//! The four flow-rule families against seeded fixture files: each must
//! fire at exactly the expected sites with the expected call chain, and
//! `press::allow` waivers must suppress — and count — what they cover.

use press_analyze::callgraph::Pins;
use press_analyze::{lint_files, Manifest, SourceFile};

/// Loads a fixture, assigning it the synthetic workspace path that
/// steers it into the right rule scopes.
fn fixture(name: &str, as_path: &str) -> SourceFile {
    let disk = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    SourceFile {
        path: as_path.to_string(),
        content: std::fs::read_to_string(&disk).unwrap_or_else(|e| panic!("read {disk}: {e}")),
    }
}

/// (path, line, rule) triples of a report's violations.
fn triples(report: &press_analyze::Report) -> Vec<(String, usize, &'static str)> {
    report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect()
}

#[test]
fn hot_path_transitive_fires_with_chain_and_respects_waivers() {
    let f = fixture("flow_hot.rs", "crates/via/src/flow_hot.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    let hot = |line| {
        (
            "crates/via/src/flow_hot.rs".to_string(),
            line,
            "hot-path-transitive",
        )
    };
    assert_eq!(
        triples(&report),
        vec![hot(14), hot(34), hot(39)],
        "the reachable unwaived unwrap, the unwrap in a tagged root outside \
         node.rs, and Vec growth in a callee fire; never_called is clean"
    );
    let chains: Vec<&[String]> = report.violations.iter().map(|v| &v.chain[..]).collect();
    assert_eq!(
        chains,
        vec![
            &[
                "via::flow_hot::root".to_string(),
                "via::flow_hot::step_one".to_string(),
                "via::flow_hot::leaf_bad".to_string(),
            ][..],
            &["via::flow_hot::Batch::flush".to_string()][..],
            &[
                "via::flow_hot::Batch::flush".to_string(),
                "via::flow_hot::Batch::stage".to_string(),
            ][..],
        ],
        "each diagnostic carries the shortest chain from its hot root"
    );
    assert!(
        report.violations[1]
            .message
            .contains("in hot-path root `via::flow_hot::Batch::flush`"),
        "a root's own finding names it as the root: {}",
        report.violations[1].message
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(20, "hot-path-transitive")]);
}

#[test]
fn blocking_in_hot_path_fires_transitively_and_respects_waivers() {
    let f = fixture("flow_blocking.rs", "crates/via/src/flow_block.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![(
            "crates/via/src/flow_block.rs".into(),
            10,
            "blocking-in-hot-path"
        )],
        "cold_sleep is unreachable from the root and must not fire"
    );
    assert_eq!(
        report.violations[0].chain,
        vec![
            "via::flow_block::root".to_string(),
            "via::flow_block::helper".to_string(),
        ]
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(15, "blocking-in-hot-path")]);
}

#[test]
fn lock_order_cycle_fires_once_per_pair() {
    let f = fixture("flow_lock.rs", "crates/via/src/flow_lock.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    let lock_findings: Vec<&press_analyze::rules::Finding> = report
        .violations
        .iter()
        .filter(|v| v.rule == "lock-order")
        .collect();
    assert_eq!(
        lock_findings.len(),
        1,
        "one report per unordered lock pair: {:?}",
        report.violations
    );
    assert!(
        lock_findings[0].message.contains("Pair::a")
            && lock_findings[0].message.contains("Pair::b"),
        "{}",
        lock_findings[0].message
    );
}

#[test]
fn lock_order_waiver_suppresses_the_cycle() {
    let f = fixture("flow_lock_waived.rs", "crates/via/src/flow_lockw.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert!(
        !report.violations.iter().any(|v| v.rule == "lock-order"),
        "{:?}",
        report.violations
    );
    assert!(
        report.waived.iter().any(|w| w.rule == "lock-order"),
        "the waiver must be counted: {:?}",
        report.waived
    );
}

#[test]
fn determinism_taint_crosses_crates_and_respects_waivers() {
    let core = fixture("flow_taint_core.rs", "crates/core/src/flow_core.rs");
    let helper = fixture("flow_taint_helper.rs", "crates/telem/src/flow_helper.rs");
    let report = lint_files(&[core, helper], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![(
            "crates/core/src/flow_core.rs".into(),
            4,
            "determinism-taint"
        )],
        "tick_clean calls an untainted helper and must not fire"
    );
    assert!(
        report.violations[0]
            .chain
            .iter()
            .any(|q| q.contains("flow_helper::stamp")),
        "the chain names the tainted helper: {:?}",
        report.violations[0].chain
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(9, "determinism-taint")]);
}

#[test]
fn scanner_ignores_comments_strings_and_test_regions() {
    let f = fixture("scanner_edges.rs", "crates/sim/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![("crates/sim/src/fixture.rs".into(), 17, "wall-clock")],
        "only the real call site fires — not comments, strings, raw \
         strings, or #[cfg(test)] code"
    );
}

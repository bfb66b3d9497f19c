//! The lint engine against seeded fixture files: every rule must report
//! its violations at exactly the expected lines (and nowhere else), and
//! waivers must suppress — and count — what they cover.

use press_analyze::callgraph::Pins;
use press_analyze::{lint_files, Manifest, SourceFile};
use proptest::collection::vec;
use proptest::prelude::*;

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
fn wall_clock_fixture_exact_diagnostics() {
    let f = fixture("wall_clock.rs", "crates/sim/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/sim/src/fixture.rs".into(), 6, "wall-clock"),
            ("crates/sim/src/fixture.rs".into(), 10, "wall-clock"),
        ]
    );
}

#[test]
fn wall_clock_rule_is_scoped_to_sim_paths() {
    let f = fixture("wall_clock.rs", "crates/server/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert!(
        report.violations.is_empty(),
        "live-server code may read the wall clock: {:?}",
        report.violations
    );
}

#[test]
fn os_random_fixture_exact_diagnostics() {
    let f = fixture("os_random.rs", "crates/core/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/core/src/fixture.rs".into(), 4, "os-random"),
            ("crates/core/src/fixture.rs".into(), 9, "os-random"),
        ]
    );
}

#[test]
fn hash_iter_fixture_exact_diagnostics() {
    let f = fixture("hash_iter.rs", "crates/net/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/net/src/fixture.rs".into(), 5, "hash-iter"),
            ("crates/net/src/fixture.rs".into(), 7, "hash-iter"),
            ("crates/net/src/fixture.rs".into(), 15, "hash-iter"),
        ],
        "keys(), for-loop, and wrapped .iter() chain; Vec iteration clean"
    );
}

#[test]
fn hot_unwrap_fixture_exact_diagnostics_and_test_exemption() {
    let f = fixture("hot_unwrap.rs", "crates/server/src/node.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/server/src/node.rs".into(), 5, "hot-unwrap"),
            ("crates/server/src/node.rs".into(), 6, "hot-unwrap"),
        ],
        "the unwrap inside #[cfg(test)] must be exempt"
    );
}

#[test]
fn hot_unwrap_rule_is_scoped_to_the_node_hot_loop() {
    let f = fixture("hot_unwrap.rs", "crates/server/src/cluster.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn hot_path_alloc_fixture_exact_diagnostics() {
    let f = fixture("hot_path_alloc.rs", "crates/via/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    let hot = |line| {
        (
            "crates/via/src/fixture.rs".to_string(),
            line,
            "hot-path-transitive",
        )
    };
    assert_eq!(
        triples(&report),
        vec![hot(5), hot(6), hot(7), hot(8), hot(19), hot(31)],
        "untagged functions and the waived format! must not fire"
    );
    assert_eq!(report.waived.len(), 1, "the waived format! is counted");
    assert_eq!(report.waived[0].line, 42);
}

#[test]
fn hot_path_alloc_fires_in_any_crate_the_tag_appears_in() {
    // The tag is the opt-in: the rule is not path-scoped.
    let f = fixture("hot_path_alloc.rs", "crates/server/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(report.violations.len(), 6, "{:?}", report.violations);
}

#[test]
fn unbounded_queue_fixture_exact_diagnostics() {
    let f = fixture("unbounded_queue.rs", "crates/via/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/via/src/fixture.rs".into(), 7, "hot-path-transitive"),
            ("crates/via/src/fixture.rs".into(), 8, "hot-path-transitive"),
        ],
        "len-guarded, pop-rotated, untagged, and waived pushes must not fire"
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(33, "hot-path-transitive")]);
}

#[test]
fn unbounded_queue_fires_in_any_crate_the_tag_appears_in() {
    // The tag is the opt-in: the rule is not path-scoped.
    let f = fixture("unbounded_queue.rs", "crates/server/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
}

#[test]
fn safety_fixture_exact_diagnostics() {
    let f = fixture("safety.rs", "crates/via/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![("crates/via/src/fixture.rs".into(), 5, "safety-comment")],
        "the SAFETY-commented block must pass"
    );
}

#[test]
fn atomics_fixture_annotations_and_manifest() {
    let f = fixture("atomics.rs", "crates/via/src/fixture.rs");
    // Without a manifest: the bare load and the manifest-covered
    // fetch_sub both fire.
    let report = lint_files(std::slice::from_ref(&f), &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/via/src/fixture.rs".into(), 6, "atomic-ordering"),
            ("crates/via/src/fixture.rs".into(), 19, "atomic-ordering"),
        ]
    );
    // With the matching manifest entry, only the bare load remains.
    let manifest = Manifest::parse(
        r#"
[[site]]
path = "crates/via/src/fixture.rs"
symbol = "counter.fetch_sub"
ordering = "Ordering::AcqRel"
why = "both halves: takes and republishes the slot"
"#,
    )
    .expect("manifest parses");
    let report = lint_files(&[f], &manifest, &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![("crates/via/src/fixture.rs".into(), 6, "atomic-ordering")]
    );
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
}

#[test]
fn raw_eprintln_fixture_exact_diagnostics() {
    let f = fixture("raw_eprintln.rs", "crates/bench/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/bench/src/fixture.rs".into(), 5, "raw-eprintln"),
            ("crates/bench/src/fixture.rs".into(), 9, "raw-eprintln"),
        ],
        "waived and #[cfg(test)] sites must not fire"
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(14, "raw-eprintln")]);
}

#[test]
fn raw_eprintln_rule_is_scoped_to_runtime_crates() {
    let f = fixture("raw_eprintln.rs", "crates/analyze/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert!(
        report.violations.is_empty(),
        "the linter may print freely: {:?}",
        report.violations
    );
}

#[test]
fn span_balance_fixture_exact_diagnostics() {
    let f = fixture("span_balance.rs", "crates/core/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![
            ("crates/core/src/fixture.rs".into(), 14, "span-balance"),
            ("crates/core/src/fixture.rs".into(), 32, "span-balance"),
        ],
        "balanced, nested-close, waived, and #[cfg(test)] starts must not fire"
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(42, "span-balance")]);
}

#[test]
fn span_balance_rule_exempts_the_telem_crate() {
    let f = fixture("span_balance.rs", "crates/telem/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert!(
        report.violations.is_empty(),
        "telem implements the span primitives and is out of scope: {:?}",
        report.violations
    );
}

#[test]
fn stale_manifest_entries_warn() {
    let f = fixture("atomics.rs", "crates/via/src/fixture.rs");
    let manifest = Manifest::parse(
        r#"
[[site]]
path = "crates/via/src/fixture.rs"
symbol = "gone.fetch_xor"
ordering = "Ordering::SeqCst"
why = "this site no longer exists"
"#,
    )
    .expect("manifest parses");
    let report = lint_files(&[f], &manifest, &Pins::empty());
    assert_eq!(report.warnings.len(), 1);
    assert!(
        report.warnings[0].contains("stale"),
        "{}",
        report.warnings[0]
    );
}

#[test]
fn waivers_suppress_and_are_counted() {
    let f = fixture("waivers.rs", "crates/sim/src/fixture.rs");
    let report = lint_files(&[f], &Manifest::empty(), &Pins::empty());
    assert_eq!(
        triples(&report),
        vec![("crates/sim/src/fixture.rs".into(), 16, "wall-clock")],
        "only the unwaived Instant::now remains"
    );
    let waived: Vec<(usize, &str)> = report.waived.iter().map(|w| (w.line, w.rule)).collect();
    assert_eq!(waived, vec![(7, "wall-clock"), (12, "hash-iter")]);
}

#[test]
fn every_violating_fixture_exits_nonzero() {
    for (name, as_path) in [
        ("wall_clock.rs", "crates/sim/src/fixture.rs"),
        ("os_random.rs", "crates/core/src/fixture.rs"),
        ("hash_iter.rs", "crates/net/src/fixture.rs"),
        ("hot_unwrap.rs", "crates/server/src/node.rs"),
        ("hot_path_alloc.rs", "crates/via/src/fixture.rs"),
        ("unbounded_queue.rs", "crates/via/src/fixture.rs"),
        ("safety.rs", "crates/via/src/fixture.rs"),
        ("atomics.rs", "crates/via/src/fixture.rs"),
        ("waivers.rs", "crates/sim/src/fixture.rs"),
        ("raw_eprintln.rs", "crates/bench/src/fixture.rs"),
        ("span_balance.rs", "crates/core/src/fixture.rs"),
    ] {
        let report = lint_files(
            &[fixture(name, as_path)],
            &Manifest::empty(),
            &Pins::empty(),
        );
        let (rendered, code) = press_analyze::render(&report, false);
        assert_eq!(code, 1, "{name} must fail the lint:\n{rendered}");
    }
}

/// Every fixture loaded under its scoped path, used by the ordering
/// property below.
fn all_fixtures() -> Vec<SourceFile> {
    vec![
        fixture("wall_clock.rs", "crates/sim/src/fixture_wall.rs"),
        fixture("os_random.rs", "crates/core/src/fixture_rand.rs"),
        fixture("hash_iter.rs", "crates/net/src/fixture_hash.rs"),
        fixture("hot_unwrap.rs", "crates/server/src/node.rs"),
        fixture("hot_path_alloc.rs", "crates/via/src/fixture_hot_alloc.rs"),
        fixture("unbounded_queue.rs", "crates/via/src/fixture_queue.rs"),
        fixture("safety.rs", "crates/via/src/fixture_safety.rs"),
        fixture("atomics.rs", "crates/via/src/fixture_atomics.rs"),
        fixture("waivers.rs", "crates/sim/src/fixture_waivers.rs"),
        fixture("raw_eprintln.rs", "crates/bench/src/fixture_eprintln.rs"),
        fixture("span_balance.rs", "crates/core/src/fixture_span.rs"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The report is identical whatever order the files are scanned in —
    /// the property that keeps analyze runs byte-stable in CI.
    #[test]
    // More keys than fixtures: zip must truncate keys, never fixtures.
    fn report_is_stable_under_file_ordering(keys in vec(0u64..1_000_000, 16)) {
        let baseline = lint_files(&all_fixtures(), &Manifest::empty(), &Pins::empty());

        let mut shuffled: Vec<(u64, SourceFile)> =
            keys.iter().copied().zip(all_fixtures()).collect();
        shuffled.sort_by_key(|(k, _)| *k);
        let files: Vec<SourceFile> = shuffled.into_iter().map(|(_, f)| f).collect();
        let report = lint_files(&files, &Manifest::empty(), &Pins::empty());

        prop_assert_eq!(&report.violations, &baseline.violations);
        prop_assert_eq!(&report.waived, &baseline.waived);
        prop_assert_eq!(&report.warnings, &baseline.warnings);
    }
}

//! The repo at HEAD must lint clean: `cargo test -p press-analyze` fails
//! the moment a change violates a project invariant without a waiver,
//! mirroring the CI `cargo run -p press-analyze -- --deny-warnings` gate.

use std::path::PathBuf;

use press_analyze::{build_graph, collect_workspace, lint_files, load_manifest, load_pins};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_at_head_is_clean() {
    let root = root();
    let manifest = load_manifest(&root).expect("atomics manifest parses");
    assert!(
        !manifest.sites.is_empty(),
        "the atomics manifest must register the audited sites"
    );
    let pins = load_pins(&root).expect("callgraph.toml parses");
    let files = collect_workspace(&root).expect("walk workspace");
    assert!(
        files.len() > 50,
        "workspace walk looks wrong: only {} files",
        files.len()
    );
    let report = lint_files(&files, &manifest, &pins);
    let (rendered, code) = press_analyze::render(&report, true);
    assert_eq!(code, 0, "press-analyze must pass at HEAD:\n{rendered}");
}

#[test]
fn call_graph_at_head_has_no_unpinned_ambiguities_or_stale_pins() {
    let root = root();
    let pins = load_pins(&root).expect("callgraph.toml parses");
    let files = collect_workspace(&root).expect("walk workspace");
    let (_, cg) = build_graph(&files, &pins);
    assert!(
        cg.ambiguities.is_empty(),
        "unpinned call-graph ambiguities:\n{}",
        cg.ambiguities.join("\n")
    );
    assert!(
        cg.stale_pins.is_empty(),
        "stale pins in callgraph.toml:\n{}",
        cg.stale_pins.join("\n")
    );
}

//! Determinism guarantees of the analysis pipeline: the lexer must tile
//! its input byte-exactly, and two runs over the same tree must produce
//! byte-identical reports, JSON, and DOT — the property CI diffs on.

use std::path::PathBuf;

use press_analyze::lexer::lex;
use press_analyze::{
    build_graph, collect_workspace, lint_files, load_manifest, load_pins, render, render_json,
};
use proptest::prelude::*;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Rust-shaped fragments that stress the string/comment/lifetime
/// states more than uniform bytes do.
const FRAGMENTS: [&str; 12] = [
    "fn f() {",
    "}",
    "// line comment\n",
    "/* block */",
    "\"str with \\\" escape\"",
    "r#\"raw \" string\"#",
    "'c'",
    "'\\''",
    "'static",
    "x.unwrap();",
    "let a = 0b101;",
    "#[press::hot_path]\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tokens tile the source: concatenating every token's text
    /// reproduces the input byte-for-byte, whatever the input — the
    /// lexer never drops, merges, or invents bytes.
    #[test]
    fn lexer_round_trips_arbitrary_input(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        let rebuilt: String = tokens.iter().map(|t| t.text(&src)).collect();
        prop_assert_eq!(rebuilt, src);
    }

    /// Concatenated fragment soup: every state machine transition the
    /// scanner relies on (raw strings, escapes, block comments,
    /// lifetimes vs chars) must still tile byte-exactly.
    #[test]
    fn lexer_round_trips_rusty_soup(
        idxs in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..24)
    ) {
        let src: String = idxs.iter().map(|&i| FRAGMENTS[i]).collect();
        let tokens = lex(&src);
        let rebuilt: String = tokens.iter().map(|t| t.text(&src)).collect();
        prop_assert_eq!(rebuilt, src);
    }
}

#[test]
fn full_pipeline_is_byte_identical_across_runs() {
    let root = root();
    let manifest = load_manifest(&root).expect("manifest");
    let pins = load_pins(&root).expect("pins");
    let files = collect_workspace(&root).expect("walk");

    let run = || {
        let report = lint_files(&files, &manifest, &pins);
        let (text, _) = render(&report, true);
        let json = render_json(&report);
        let (ws, cg) = build_graph(&files, &pins);
        (text, json, cg.to_dot(&ws))
    };
    let (text_a, json_a, dot_a) = run();
    let (text_b, json_b, dot_b) = run();
    assert_eq!(text_a, text_b, "rendered report must be byte-stable");
    assert_eq!(json_a, json_b, "JSON report must be byte-stable");
    assert_eq!(dot_a, dot_b, "DOT graph must be byte-stable");
}

//! `press-analyze` CLI: lints the workspace source against the project
//! invariants.
//!
//! ```text
//! cargo run -p press-analyze                  # lint the workspace
//! cargo run -p press-analyze -- --deny-warnings
//! cargo run -p press-analyze -- --json        # machine-readable report
//! cargo run -p press-analyze -- --graph       # call graph as DOT
//! cargo run -p press-analyze -- --list-rules
//! cargo run -p press-analyze -- --root /path/to/workspace
//! ```
//!
//! Exit status: 0 clean, 1 violations (or warnings under
//! `--deny-warnings`/`--deny`), 2 usage or I/O errors. The interleaving
//! models run separately under `cargo test -p press-analyze`.

use std::path::PathBuf;
use std::process::ExitCode;

use press_analyze::flow_rules::FLOW_RULE_NAMES;
use press_analyze::rules::{describe, RULE_NAMES};
use press_analyze::{
    build_graph, collect_workspace, lint_files, load_manifest, load_pins, render, render_json,
};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny_warnings = false;
    let mut json = false;
    let mut graph = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" | "--deny" => deny_warnings = true,
            "--json" => json = true,
            "--graph" => graph = true,
            "--list-rules" => {
                for rule in RULE_NAMES.iter().chain(FLOW_RULE_NAMES.iter()) {
                    println!("press::{rule:<20} {}", describe(rule));
                }
                println!("\nwaive a site with `// press::allow(<rule>): reason`");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "press-analyze [--root PATH] [--deny-warnings|--deny] [--json] \
                     [--graph] [--list-rules]\n\
                     lints the workspace against the project invariants"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // Default root: the workspace this binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let manifest = match load_manifest(&root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let pins = match load_pins(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let files = match collect_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if graph {
        let (ws, cg) = build_graph(&files, &pins);
        print!("{}", cg.to_dot(&ws));
        return ExitCode::SUCCESS;
    }

    let report = lint_files(&files, &manifest, &pins);
    if json {
        let code =
            if !report.violations.is_empty() || (deny_warnings && !report.warnings.is_empty()) {
                1
            } else {
                0
            };
        print!("{}", render_json(&report));
        return ExitCode::from(code);
    }
    let (text, code) = render(&report, deny_warnings);
    print!("{text}");
    ExitCode::from(code as u8)
}

//! `press-analyze`: static analysis for the PRESS reproduction.
//!
//! Three engines keep the workspace's correctness story machine-checked:
//!
//! 1. **Project-invariant lints** ([`lint_files`]): named, suppressible
//!    rules over the workspace source — no wall-clock or OS entropy in
//!    the deterministic engines, no hash-order iteration that can leak
//!    into results, no `unwrap`/`expect` in the live server's hot loops,
//!    `// SAFETY:` on every `unsafe`, and a `// ordering:` justification
//!    (or an atomics-manifest entry) on every atomic access. Waive a
//!    site with `// press::allow(rule-name): reason`; waivers are
//!    counted, never silent — and a waiver whose rule no longer fires
//!    is itself reported as stale.
//! 2. **Flow-aware lints** ([`flow_rules`]): a lexer → item parser →
//!    call-graph pipeline ([`lexer`], [`ir`], [`callgraph`]) feeding
//!    four transitive rule families — hot-path-transitive (no unwrap,
//!    allocation or unbounded queue in a `#[press::hot_path]` root or
//!    anything it reaches), lock-order, blocking-in-hot-path, and
//!    determinism-taint — with the offending call chain printed in each
//!    diagnostic. Ambiguous call edges are pinned in
//!    `crates/analyze/callgraph.toml`.
//! 3. **Mini-loom interleaving models** ([`models`]): the lock-free
//!    membership bitmask, the ResetPeer credit repair, and the
//!    batch-pool claim protocol re-expressed over the vendored
//!    [`minloom`] shadow atomics and checked across *every* thread
//!    interleaving and stale-read choice.
//!
//! Run the lints with `cargo run -p press-analyze` (add
//! `--deny-warnings` in CI, `--json` for machine-readable findings,
//! `--graph` for a DOT dump of the call graph); the models run under
//! `cargo test -p press-analyze`.

pub mod callgraph;
pub mod flow_rules;
pub mod ir;
pub mod lexer;
pub mod manifest;
pub mod models;
pub mod rules;
pub mod scanner;

pub use manifest::Manifest;
pub use rules::Finding;

use callgraph::{CallGraph, Pins};
use ir::Workspace;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A source file handed to the lint engine.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (rule scoping keys
    /// off this, so synthetic paths steer fixtures into rules).
    pub path: String,
    /// Full file contents.
    pub content: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that were not waived, sorted by (path, line, rule).
    pub violations: Vec<Finding>,
    /// Violations suppressed by `press::allow` comments, same order.
    pub waived: Vec<Finding>,
    /// Non-fatal problems (stale manifest entries, stale waivers,
    /// unresolved call-graph edges, stale pins); fatal under
    /// `--deny-warnings`.
    pub warnings: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints a set of files against `manifest`: the line-local rules, and
/// the flow rules over the call graph resolved with `pins`.
///
/// Output is sorted, so the report is identical whatever order the files
/// arrive in.
pub fn lint_files(files: &[SourceFile], manifest: &Manifest, pins: &Pins) -> Report {
    let ws = Workspace::build(files);
    let mut raw: Vec<Finding> = Vec::new();
    for file in &ws.files {
        raw.extend(rules::check_file(&file.path, &file.lines, manifest));
    }
    let cg = CallGraph::build(&ws, pins);
    raw.extend(flow_rules::check_workspace(&ws, &cg));
    let mut warnings = cg.ambiguities.clone();
    warnings.extend(cg.stale_pins.iter().cloned());

    let mut violations = Vec::new();
    let mut waived = Vec::new();
    let mut used_waivers: std::collections::BTreeSet<(usize, usize)> =
        std::collections::BTreeSet::new();
    for finding in raw {
        let file_idx = ws
            .files
            .iter()
            .position(|f| f.path == finding.path)
            .expect("finding paths come from scanned files");
        match waiver_for(&ws.files[file_idx].lines, &finding) {
            Some(line_idx) => {
                used_waivers.insert((file_idx, line_idx));
                waived.push(finding);
            }
            None => violations.push(finding),
        }
    }
    violations.sort();
    violations.dedup();
    waived.sort();
    waived.dedup();

    // Stale-entry check: every manifest site must still match a line.
    for site in &manifest.sites {
        let alive = ws.files.iter().any(|f| {
            f.path.ends_with(&site.path)
                && f.lines
                    .iter()
                    .any(|l| l.code.contains(&site.symbol) && l.code.contains(&site.ordering))
        });
        if !alive {
            warnings.push(format!(
                "stale atomics-manifest entry: {} `{}` with `{}` matches no source line",
                site.path, site.symbol, site.ordering
            ));
        }
    }

    // Stale-waiver check: a press::allow whose rule never fired on its
    // site is itself reported (mirrors the manifest staleness).
    for (file_idx, file) in ws.files.iter().enumerate() {
        for (line_idx, line) in file.lines.iter().enumerate() {
            if line.in_test || !line.comment.contains("press::allow(") {
                continue;
            }
            if !used_waivers.contains(&(file_idx, line_idx)) {
                let rule = line
                    .comment
                    .split("press::allow(")
                    .nth(1)
                    .and_then(|r| r.split(')').next())
                    .unwrap_or("?");
                // Prose that merely *mentions* the waiver syntax
                // (docs, this file) names no real rule; only known
                // rule names are live waivers.
                if !rules::RULE_NAMES.contains(&rule)
                    && !flow_rules::FLOW_RULE_NAMES.contains(&rule)
                {
                    continue;
                }
                warnings.push(format!(
                    "stale waiver: press::allow({}) at {}:{} suppresses nothing — \
                     the rule no longer fires there; delete the waiver",
                    rule, file.path, line.number
                ));
            }
        }
    }
    warnings.sort();
    warnings.dedup();

    Report {
        violations,
        waived,
        warnings,
        files_scanned: files.len(),
    }
}

/// Builds the workspace IR and resolved call graph for `files` (the
/// `--graph` export and the determinism tests use this directly).
pub fn build_graph(files: &[SourceFile], pins: &Pins) -> (Workspace, CallGraph) {
    let ws = Workspace::build(files);
    let cg = CallGraph::build(&ws, pins);
    (ws, cg)
}

/// Whether the finding's line (or a comment line directly above it)
/// carries a `press::allow(rule)` waiver; returns the waiving line's
/// 0-based index so stale waivers can be detected.
fn waiver_for(lines: &[scanner::Line], finding: &Finding) -> Option<usize> {
    let needle = format!("press::allow({})", finding.rule);
    let idx = finding.line - 1;
    if lines[idx].comment.contains(&needle) {
        return Some(idx);
    }
    // Walk up over pure-comment lines.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if !l.code.trim().is_empty() {
            break;
        }
        if l.comment.contains(&needle) {
            return Some(i);
        }
        if l.comment.trim().is_empty() {
            break;
        }
    }
    None
}

/// Directory names never scanned: generated or reference code, test and
/// fixture trees (the lint's test exemption), and the offline vendor
/// stand-ins.
const SKIP_DIRS: [&str; 8] = [
    "target", "vendor", "tests", "benches", "examples", "fixtures", ".git", "results",
];

/// Collects the workspace's lintable sources under `root`, sorted by
/// path.
///
/// # Errors
///
/// Propagates filesystem errors other than racing deletions.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let content = fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile {
            path: rel.to_string_lossy().replace('\\', "/"),
            content,
        });
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Loads the atomics manifest from its conventional location under the
/// workspace root, or an empty manifest if absent.
///
/// # Errors
///
/// Returns the parse error message for a malformed manifest.
pub fn load_manifest(root: &Path) -> Result<Manifest, String> {
    let path = root.join("crates/analyze/atomics.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Manifest::parse(&text),
        Err(_) => Ok(Manifest::empty()),
    }
}

/// Loads the call-graph pin file from its conventional location under
/// the workspace root, or an empty pin set if absent.
///
/// # Errors
///
/// Returns the parse error message for a malformed pin file.
pub fn load_pins(root: &Path) -> Result<Pins, String> {
    let path = root.join("crates/analyze/callgraph.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Pins::parse(&text),
        Err(_) => Ok(Pins::empty()),
    }
}

/// Renders the report in `file:line: severity: press::rule: message`
/// form, one diagnostic per line (flow findings add an indented
/// `call chain:` line), plus a summary.
pub fn render(report: &Report, deny_warnings: bool) -> (String, i32) {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}: error: press::{}: {}\n",
            v.path, v.line, v.rule, v.message
        ));
        if !v.chain.is_empty() {
            out.push_str(&format!("    call chain: {}\n", v.chain.join(" -> ")));
        }
    }
    for w in &report.waived {
        out.push_str(&format!(
            "{}:{}: waived: press::{}: {}\n",
            w.path, w.line, w.rule, w.message
        ));
        if !w.chain.is_empty() {
            out.push_str(&format!("    call chain: {}\n", w.chain.join(" -> ")));
        }
    }
    for w in &report.warnings {
        out.push_str(&format!(
            "warning: {}{}\n",
            w,
            if deny_warnings { " (denied)" } else { "" }
        ));
    }
    out.push_str(&format!(
        "press-analyze: {} files, {} violations, {} waived, {} warnings\n",
        report.files_scanned,
        report.violations.len(),
        report.waived.len(),
        report.warnings.len()
    ));
    let failed = !report.violations.is_empty() || (deny_warnings && !report.warnings.is_empty());
    (out, if failed { 1 } else { 0 })
}

/// Renders the report as deterministic JSON (sorted findings, stable
/// key order) for machine consumption; byte-identical across runs on
/// the same tree.
pub fn render_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn finding(f: &Finding) -> String {
        let chain = f
            .chain
            .iter()
            .map(|c| format!("\"{}\"", esc(c)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"chain\":[{}]}}",
            esc(&f.path),
            f.line,
            esc(f.rule),
            esc(&f.message),
            chain
        )
    }
    let violations: Vec<String> = report.violations.iter().map(finding).collect();
    let waived: Vec<String> = report.waived.iter().map(finding).collect();
    let warnings: Vec<String> = report
        .warnings
        .iter()
        .map(|w| format!("\"{}\"", esc(w)))
        .collect();
    format!(
        "{{\"files_scanned\":{},\"violations\":[{}],\"waived\":[{}],\"warnings\":[{}]}}\n",
        report.files_scanned,
        violations.join(","),
        waived.join(","),
        warnings.join(",")
    )
}

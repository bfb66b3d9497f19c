//! The project-invariant lint rules.
//!
//! Each rule is named, scoped to the paths where its invariant applies,
//! and suppressible with an inline waiver comment:
//!
//! ```text
//! // press::allow(rule-name): why this site is exempt
//! ```
//!
//! on the offending line or a comment line directly above it. Waivers
//! are counted and reported, never silent.

use crate::manifest::Manifest;
use crate::scanner::{find_token, is_ident_char, Line};
use std::collections::BTreeSet;

/// Names of every rule, in reporting order.
pub const RULE_NAMES: [&str; 8] = [
    "wall-clock",
    "os-random",
    "hash-iter",
    "hot-unwrap",
    "safety-comment",
    "atomic-ordering",
    "raw-eprintln",
    "span-balance",
];

/// One-line description per rule, for `--list-rules`.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "wall-clock" => "no Instant::now/SystemTime in simulation paths (press-sim, press-core)",
        "os-random" => "no OS entropy (thread_rng/OsRng/from_entropy) in deterministic crates",
        "hash-iter" => "no iteration over HashMap/HashSet where order can leak into results",
        "hot-unwrap" => "no unwrap/expect in the server node hot loops (test code exempt)",
        "safety-comment" => "every unsafe block needs a `// SAFETY:` comment",
        "atomic-ordering" => {
            "every atomic access needs a `// ordering:` justification or an atomics-manifest entry"
        }
        "raw-eprintln" => {
            "no direct eprintln!/eprint! in runtime crates — use press_telem::progress so \
             PRESS_QUIET silences everything uniformly"
        }
        "span-balance" => {
            "a span start captured with `let x = ...now_ns();` must reach a `span(x`/\
             `span_in(x` close in the same scope — an unclosed open skews attribution"
        }
        "hot-path-transitive" => {
            "`#[press::hot_path]` roots and every function they reach get the no-unwrap/\
             no-alloc (Vec growth included)/bounded-queue checks; the diagnostic prints \
             the call chain"
        }
        "lock-order" => {
            "per-function lock-acquisition sequences composed through the call graph \
             must form an acyclic order — any cycle is a deadlock finding"
        }
        "blocking-in-hot-path" => {
            "no thread::sleep, channel recv, join, or blocking lock() reachable from a \
             `#[press::hot_path]` root — the fast path must never park a thread"
        }
        "determinism-taint" => {
            "wall-clock/OS-entropy values from live-cluster helpers must not flow, via \
             the call graph, into press-core/press-sim state"
        }
        _ => "unknown rule",
    }
}

/// A single rule violation (or waived violation).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`RULE_NAMES`] or
    /// [`crate::flow_rules::FLOW_RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
    /// For flow rules: the call chain from the root to the offending
    /// site (function quals). Empty for line-local rules.
    pub chain: Vec<String>,
}

/// Paths where the wall-clock rule applies: the deterministic simulation
/// engines, where wall-clock reads would desynchronize replay.
fn wall_clock_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/") || path.starts_with("crates/core/src/")
}

/// Paths where OS entropy is banned: everything that feeds results.
fn os_random_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/trace/src/")
        || path.starts_with("crates/model/src/")
}

/// The live server's per-request hot loops.
fn hot_loop_scope(path: &str) -> bool {
    path == "crates/server/src/node.rs"
}

/// Paths where stderr chatter must route through `press_telem`'s
/// `PRESS_QUIET`-aware helpers: every runtime crate plus the CLI front
/// end. The analyze tool itself is exempt — it is a dev-time linter
/// whose diagnostics must always print.
fn eprintln_scope(path: &str) -> bool {
    const RUNTIME: [&str; 10] = [
        "crates/sim/src/",
        "crates/trace/src/",
        "crates/via/src/",
        "crates/net/src/",
        "crates/cluster/src/",
        "crates/core/src/",
        "crates/model/src/",
        "crates/server/src/",
        "crates/bench/src/",
        "crates/telem/src/",
    ];
    RUNTIME.iter().any(|p| path.starts_with(p)) || path.starts_with("src/")
}

/// Paths where the span-balance rule applies: the engine crates and the
/// CLI — everywhere spans are *emitted*. The telem crate is exempt: it
/// implements the span primitives the rule reasons about.
fn span_balance_scope(path: &str) -> bool {
    const ENGINES: [&str; 6] = [
        "crates/sim/src/",
        "crates/core/src/",
        "crates/net/src/",
        "crates/via/src/",
        "crates/cluster/src/",
        "crates/server/src/",
    ];
    ENGINES.iter().any(|p| path.starts_with(p)) || path.starts_with("src/")
}

/// Runs every rule over one scanned file, returning raw findings
/// (waivers not yet applied).
pub fn check_file(path: &str, lines: &[Line], manifest: &Manifest) -> Vec<Finding> {
    let mut out = Vec::new();
    let hash_names = collect_typed_names(lines, &["HashMap", "HashSet"]);

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();

        if wall_clock_scope(path) {
            for pat in ["Instant::now", "SystemTime::now", "UNIX_EPOCH"] {
                if find_token(code, pat).is_some() {
                    out.push(Finding {
                        path: path.into(),
                        line: line.number,
                        rule: "wall-clock",
                        chain: Vec::new(),
                        message: format!(
                            "`{pat}` in a simulation path — wall-clock time breaks \
                             deterministic replay; use simulated time"
                        ),
                    });
                }
            }
        }

        if os_random_scope(path) {
            for pat in ["thread_rng", "OsRng", "from_entropy", "rand::random"] {
                if find_token(code, pat).is_some() {
                    out.push(Finding {
                        path: path.into(),
                        line: line.number,
                        rule: "os-random",
                        chain: Vec::new(),
                        message: format!(
                            "`{pat}` draws OS entropy — results must come from seeded \
                             generators only"
                        ),
                    });
                }
            }
        }

        check_hash_iter(path, lines, idx, &hash_names, &mut out);

        if hot_loop_scope(path) {
            for pat in [".unwrap()", ".expect("] {
                if code.contains(pat) {
                    out.push(Finding {
                        path: path.into(),
                        line: line.number,
                        rule: "hot-unwrap",
                        chain: Vec::new(),
                        message: format!(
                            "`{}` in a node hot loop — a poisoned thread takes the whole \
                             node down; handle the None/Err arm",
                            pat.trim_end_matches('(')
                        ),
                    });
                }
            }
        }

        if let Some(pos) = find_token(code, "unsafe") {
            // `unsafe` the keyword (block/fn/impl/trait), not part of an
            // identifier; find_token already enforces boundaries.
            let _ = pos;
            let documented = comment_window(lines, idx, 3)
                .iter()
                .any(|c| c.contains("SAFETY:"));
            if !documented {
                out.push(Finding {
                    path: path.into(),
                    line: line.number,
                    rule: "safety-comment",
                    chain: Vec::new(),
                    message: "`unsafe` without a `// SAFETY:` comment on or above the line".into(),
                });
            }
        }

        if eprintln_scope(path) {
            for pat in ["eprintln!", "eprint!"] {
                if code.contains(pat) {
                    out.push(Finding {
                        path: path.into(),
                        line: line.number,
                        rule: "raw-eprintln",
                        chain: Vec::new(),
                        message: format!(
                            "`{pat}` bypasses the quiet-aware logger — route stderr chatter \
                             through `press_telem::progress`/`progress_with`"
                        ),
                    });
                }
            }
        }

        if span_balance_scope(path) {
            check_span_balance(path, lines, idx, &mut out);
        }

        if is_atomic_site(lines, idx) {
            let annotated = comment_window(lines, idx, 3)
                .iter()
                .any(|c| c.contains("ordering:"));
            let in_manifest = manifest.covers(path, code);
            if !annotated && !in_manifest {
                out.push(Finding {
                    path: path.into(),
                    line: line.number,
                    rule: "atomic-ordering",
                    chain: Vec::new(),
                    message: "atomic access without a `// ordering:` justification or an \
                              atomics-manifest entry"
                        .into(),
                });
            }
        }
    }
    out
}

/// Allocating constructs flagged in hot-path roots and everything they
/// reach.
pub(crate) const HOT_ALLOC_PATTERNS: [&str; 12] = [
    "Box::new(",
    "vec!",
    "Vec::new",
    "Vec::with_capacity",
    "VecDeque::new",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    "String::new",
    "String::from(",
    "format!",
    ".clone(",
];

/// Queue-growth calls checked for a nearby bound.
pub(crate) const QUEUE_PUSH_PATTERNS: [&str; 2] = [".push_back(", ".push_front("];

/// Tokens accepted as evidence the queue is bounded at the push site:
/// an explicit length/capacity comparison, a fullness predicate, or a
/// matching pop that keeps the size constant.
pub(crate) const CAPACITY_GUARD_TOKENS: [&str; 6] = [
    ".len()",
    ".capacity(",
    "is_full",
    "has_capacity",
    ".pop_front(",
    ".pop_back(",
];

/// Flags a trace span opened but never closed: a start timestamp bound
/// with `let <name> = <expr>.now_ns();` (the span-open idiom) that no
/// later `span(<name>`/`span_in(<name>` call consumes before the
/// binding's scope ends. An unmatched open leaves a dangling interval
/// that the critical-path attribution then never charges — begin/end
/// imbalance silently skews the breakdown. Brace counting is reliable
/// here because the scanner blanks string and char literal contents.
fn check_span_balance(path: &str, lines: &[Line], idx: usize, out: &mut Vec<Finding>) {
    let code = lines[idx].code.as_str();
    if !code.contains(".now_ns()") {
        return;
    }
    let Some(let_pos) = find_token(code, "let") else {
        return;
    };
    let rest = code[let_pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let Some(name) = leading_ident(rest) else {
        return;
    };
    let closers = [format!("span({name}"), format!("span_in({name}")];
    let consumed = |c: &str| closers.iter().any(|p| c.contains(p.as_str()));
    if consumed(code) {
        return;
    }
    let mut depth: i64 = code.matches('{').count() as i64 - code.matches('}').count() as i64;
    for line in &lines[idx + 1..] {
        let c = line.code.as_str();
        if consumed(c) {
            return;
        }
        depth += c.matches('{').count() as i64 - c.matches('}').count() as i64;
        if depth < 0 {
            break; // the binding's scope ended
        }
    }
    out.push(Finding {
        path: path.into(),
        line: lines[idx].number,
        rule: "span-balance",
        chain: Vec::new(),
        message: format!(
            "span start `{name}` is captured from now_ns() but never reaches a \
             `span({name}`/`span_in({name}` close in this scope — the open/close \
             imbalance drops the interval from critical-path attribution"
        ),
    });
}

/// Names this file declares with one of the generic container `types`:
/// `name: Type<..>` fields, params and typed lets, and
/// `let [mut] name = Type::new/with_capacity/from(..)` bindings.
pub(crate) fn collect_typed_names(lines: &[Line], types: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in lines {
        let code = line.code.as_str();
        for ty in types {
            let mut from = 0;
            while let Some(rel) = code[from..].find(&format!("{ty}<")) {
                let pos = from + rel;
                from = pos + ty.len();
                let before = code[..pos].trim_end();
                if let Some(stripped) = before.strip_suffix(':') {
                    if let Some(name) = trailing_ident(stripped) {
                        names.insert(name.to_string());
                    }
                }
            }
            for ctor in ["::new", "::with_capacity", "::from"] {
                if code.contains(&format!("{ty}{ctor}")) {
                    if let Some(pos) = find_token(code, "let") {
                        let rest = code[pos + 3..].trim_start();
                        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                        if let Some(name) = leading_ident(rest) {
                            names.insert(name.to_string());
                        }
                    }
                }
            }
        }
    }
    names
}

/// Comments attached to line `idx`: its own plus up to `above` comment
/// lines (lines whose code part is blank) directly above it.
fn comment_window(lines: &[Line], idx: usize, above: usize) -> Vec<&str> {
    let mut window = vec![lines[idx].comment.as_str()];
    let mut i = idx;
    for _ in 0..above {
        if i == 0 {
            break;
        }
        i -= 1;
        let l = &lines[i];
        if l.code.trim().is_empty() {
            window.push(l.comment.as_str());
        } else {
            // One non-comment line above is still allowed to carry the
            // annotation (multi-line call chains), but stop after it.
            window.push(l.comment.as_str());
            break;
        }
    }
    window
}

const ATOMIC_METHODS: [&str; 13] = [
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_nand(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_update(",
    ".compare_exchange",
];

/// Whether line `idx` is an atomic access: mentions `Ordering::` with an
/// atomic method on the same line or the two lines above (multi-line
/// calls).
fn is_atomic_site(lines: &[Line], idx: usize) -> bool {
    if !lines[idx].code.contains("Ordering::") {
        return false;
    }
    for back in 0..3 {
        if back > idx {
            break;
        }
        let code = &lines[idx - back].code;
        if ATOMIC_METHODS.iter().any(|m| code.contains(m)) {
            return true;
        }
    }
    false
}

const ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Flags iteration over names known to be HashMap/HashSet.
fn check_hash_iter(
    path: &str,
    lines: &[Line],
    idx: usize,
    names: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if names.is_empty() {
        return;
    }
    let line = &lines[idx];
    let code = line.code.as_str();
    for m in ITER_METHODS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(m) {
            let pos = from + rel;
            from = pos + m.len();
            // The receiver ends this line, or — in a wrapped method
            // chain starting with `.iter()` — the nearest non-comment
            // line above.
            let receiver = match trailing_ident(&code[..pos]) {
                Some(name) => Some(name),
                None if code[..pos].trim().is_empty() => lines[..idx]
                    .iter()
                    .rev()
                    .find(|l| !l.code.trim().is_empty())
                    .and_then(|l| trailing_ident(&l.code)),
                None => None,
            };
            if let Some(name) = receiver {
                if names.contains(name) {
                    out.push(Finding {
                        path: path.into(),
                        line: line.number,
                        rule: "hash-iter",
                        chain: Vec::new(),
                        message: format!(
                            "iteration over HashMap/HashSet `{name}` — hash order is \
                             process-random and can leak into results or schedules; \
                             sort the items or use an ordered container"
                        ),
                    });
                }
            }
        }
    }
    // `for x in [&[mut ]]name {` loops.
    if let Some(for_pos) = find_token(code, "for") {
        if let Some(in_rel) = find_token(&code[for_pos..], "in") {
            let expr = code[for_pos + in_rel + 2..].trim();
            let expr = expr.strip_suffix('{').unwrap_or(expr).trim_end();
            let expr = expr
                .strip_prefix("&mut ")
                .or_else(|| expr.strip_prefix('&'))
                .unwrap_or(expr);
            // Only a bare (possibly dotted) name: `m`, `self.m`, `ctx.m`.
            let tail = expr.rsplit('.').next().unwrap_or(expr);
            if !tail.is_empty()
                && tail.bytes().all(is_ident_char)
                && expr.bytes().all(|b| is_ident_char(b) || b == b'.')
                && names.contains(tail)
            {
                out.push(Finding {
                    path: path.into(),
                    line: line.number,
                    rule: "hash-iter",
                    chain: Vec::new(),
                    message: format!(
                        "`for` loop over HashMap/HashSet `{tail}` — hash order is \
                         process-random and can leak into results or schedules; \
                         sort the items or use an ordered container"
                    ),
                });
            }
        }
    }
}

/// The identifier ending at the end of `s` (after trimming), if any.
pub(crate) fn trailing_ident(s: &str) -> Option<&str> {
    let s = s.trim_end();
    let bytes = s.as_bytes();
    let mut start = s.len();
    while start > 0 && is_ident_char(bytes[start - 1]) {
        start -= 1;
    }
    if start == s.len() {
        return None;
    }
    let ident = &s[start..];
    if ident.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(ident)
}

/// The identifier starting at the beginning of `s`, if any.
fn leading_ident(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut end = 0;
    while end < bytes.len() && is_ident_char(bytes[end]) {
        end += 1;
    }
    if end == 0 || bytes[0].is_ascii_digit() {
        None
    } else {
        Some(&s[..end])
    }
}

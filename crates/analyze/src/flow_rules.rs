//! The flow-aware rule families, run over the [`crate::ir`] workspace
//! and the [`crate::callgraph`] resolution:
//!
//! - **hot-path-transitive** — every `#[press::hot_path]` root and
//!   every function reachable from one inherits the no-unwrap /
//!   no-alloc (Vec growth included) / bounded-queue discipline; the
//!   diagnostic prints the call chain from the root.
//! - **blocking-in-hot-path** — `thread::sleep`, channel `recv`,
//!   `join`, spin-`yield`s, and blocking `lock()`/RwLock acquisition
//!   reachable from a fast-path root (roots included).
//! - **lock-order** — per-function lock-acquisition sequences over
//!   `Mutex`/`RwLock` guards, composed through the call graph; any
//!   cycle in the global lock graph (self-loops included) is a
//!   deadlock finding.
//! - **determinism-taint** — a press-core/press-sim call site whose
//!   callee transitively reaches wall-clock or OS entropy outside the
//!   deterministic crates taints replay; the chain to the primitive is
//!   printed.
//!
//! Findings use the same waiver mechanism as the line rules
//! (`// press::allow(rule): reason`).

use crate::callgraph::{CallGraph, Recv, Resolution, Site};
use crate::ir::{FileIr, Workspace};
use crate::rules::{
    collect_typed_names, trailing_ident, Finding, CAPACITY_GUARD_TOKENS, HOT_ALLOC_PATTERNS,
    QUEUE_PUSH_PATTERNS,
};
use crate::scanner::find_token;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Names of the flow rules, in reporting order.
pub const FLOW_RULE_NAMES: [&str; 4] = [
    "hot-path-transitive",
    "lock-order",
    "blocking-in-hot-path",
    "determinism-taint",
];

/// Wall-clock / OS-entropy primitives for the taint rule.
const TAINT_SOURCES: [&str; 7] = [
    "Instant::now",
    "SystemTime::now",
    "UNIX_EPOCH",
    "thread_rng",
    "OsRng",
    "from_entropy",
    "rand::random",
];

/// Blocking line patterns (receiver-typed lock calls are handled via
/// call sites instead).
const BLOCKING_PATTERNS: [&str; 7] = [
    "thread::sleep",
    "yield_now",
    ".recv()",
    ".recv_timeout(",
    ".join()",
    "pop_wait",
    ".park(",
];

/// Deterministic-engine paths the taint rule protects.
fn deterministic_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/") || path.starts_with("crates/core/src/")
}

/// Runs all four flow-rule families; raw findings, waivers not yet
/// applied.
pub fn check_workspace(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let by_caller = sites_by_caller(cg);
    let reach = reach_from_hot_roots(ws, cg);
    hot_transitive(ws, &reach, &mut out);
    blocking_in_hot_path(ws, &by_caller, &reach, &mut out);
    lock_order(ws, cg, &by_caller, &mut out);
    determinism_taint(ws, cg, &mut out);
    out.sort();
    out.dedup();
    out
}

fn sites_by_caller(cg: &CallGraph) -> BTreeMap<usize, Vec<&Site>> {
    let mut by: BTreeMap<usize, Vec<&Site>> = BTreeMap::new();
    for s in &cg.sites {
        by.entry(s.caller).or_default().push(s);
    }
    by
}

/// BFS from every live `#[press::hot_path]` root; returns, per
/// reachable function, the shortest call chain of quals from a root.
fn reach_from_hot_roots(ws: &Workspace, cg: &CallGraph) -> BTreeMap<usize, Vec<String>> {
    let mut chains: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for (id, f) in ws.functions.iter().enumerate() {
        if f.attrs.hot_path && !f.in_test {
            chains.insert(id, vec![f.qual.clone()]);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        let chain = chains[&id].clone();
        if let Some(outs) = cg.edges.get(&id) {
            for (callee, _) in outs {
                if !chains.contains_key(callee) {
                    let mut c = chain.clone();
                    c.push(ws.functions[*callee].qual.clone());
                    chains.insert(*callee, c);
                    queue.push_back(*callee);
                }
            }
        }
    }
    chains
}

/// Lines of `f`'s own body, excluding nested-function extents and test
/// lines.
fn own_lines<'a>(
    ws: &'a Workspace,
    id: usize,
) -> impl Iterator<Item = &'a crate::scanner::Line> + 'a {
    let f = &ws.functions[id];
    let file = &ws.files[f.file];
    let nested: Vec<(usize, usize)> = f
        .nested
        .iter()
        .map(|&(lo, hi)| (file.line(lo), file.line(hi)))
        .collect();
    file.lines[f.sig_line - 1..f.end_line.min(file.lines.len())]
        .iter()
        .filter(move |l| {
            !l.in_test
                && !nested
                    .iter()
                    .any(|&(lo, hi)| lo < l.number && l.number < hi)
        })
}

fn hot_transitive(ws: &Workspace, reach: &BTreeMap<usize, Vec<String>>, out: &mut Vec<Finding>) {
    let mut vec_names: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (&id, chain) in reach {
        let f = &ws.functions[id];
        if f.in_test {
            continue;
        }
        let path = &ws.files[f.file].path;
        let vecs = vec_names
            .entry(f.file)
            .or_insert_with(|| collect_typed_names(&ws.files[f.file].lines, &["Vec", "VecDeque"]));
        let site = if chain.len() == 1 {
            format!("in hot-path root `{}`", f.qual)
        } else {
            format!(
                "in `{}`, reachable from hot-path root `{}`",
                f.qual, chain[0]
            )
        };
        let mut push = |line: usize, message: String| {
            out.push(Finding {
                path: path.clone(),
                line,
                rule: "hot-path-transitive",
                chain: chain.clone(),
                message,
            })
        };
        let body: Vec<&crate::scanner::Line> = own_lines(ws, id).collect();
        for (pos, line) in body.iter().enumerate() {
            let code = line.code.as_str();
            for pat in [".unwrap()", ".expect("] {
                if code.contains(pat) {
                    push(
                        line.number,
                        format!(
                            "`{}` {site} — a panic here takes the fast path down; handle \
                             the None/Err arm",
                            pat.trim_end_matches('(')
                        ),
                    );
                }
            }
            for pat in HOT_ALLOC_PATTERNS {
                if code.contains(pat) {
                    push(
                        line.number,
                        format!(
                            "`{}` heap-allocates {site} — the fast path must draw from the \
                             slab pool or fixed-capacity structures",
                            pat.trim_end_matches('(')
                        ),
                    );
                }
            }
            for (at, _) in code.match_indices(".push(") {
                if let Some(name) = trailing_ident(&code[..at]).filter(|n| vecs.contains(*n)) {
                    push(
                        line.number,
                        format!(
                            "`{name}.push` can grow a Vec {site} — reserve outside the hot \
                             path or use a fixed-size ring"
                        ),
                    );
                }
            }
            for pat in QUEUE_PUSH_PATTERNS {
                if !code.contains(pat) {
                    continue;
                }
                let guarded = |s: &str| CAPACITY_GUARD_TOKENS.iter().any(|t| s.contains(t));
                let mut found = guarded(code);
                let (mut seen, mut i) = (0, pos);
                while !found && seen < 4 && i > 0 {
                    i -= 1;
                    let prev = body[i].code.as_str();
                    if prev.trim().is_empty() {
                        continue;
                    }
                    seen += 1;
                    found = guarded(prev);
                }
                if !found {
                    push(
                        line.number,
                        format!(
                            "`{}` with no capacity check nearby {site} — bound the queue or \
                             shed at the bound",
                            pat.trim_start_matches('.').trim_end_matches('(')
                        ),
                    );
                }
            }
        }
    }
}

fn blocking_in_hot_path(
    ws: &Workspace,
    by_caller: &BTreeMap<usize, Vec<&Site>>,
    reach: &BTreeMap<usize, Vec<String>>,
    out: &mut Vec<Finding>,
) {
    for (&id, chain) in reach {
        let f = &ws.functions[id];
        if f.in_test {
            continue;
        }
        let path = ws.files[f.file].path.clone();
        let root = &chain[0];
        for line in own_lines(ws, id) {
            let code = line.code.as_str();
            for pat in BLOCKING_PATTERNS {
                if code.contains(pat) {
                    // A function's own signature mentioning its own
                    // name is a declaration, not a call (`fn pop_wait`
                    // matching the `pop_wait` pattern).
                    if line.number == f.sig_line && pat == f.name {
                        continue;
                    }
                    out.push(Finding {
                        path: path.clone(),
                        line: line.number,
                        rule: "blocking-in-hot-path",
                        chain: chain.clone(),
                        message: format!(
                            "`{}` in `{}`, reachable from hot-path root `{}` — the fast \
                             path must never park or spin-wait a thread",
                            pat.trim_matches(|c| c == '.' || c == '('),
                            f.qual,
                            root
                        ),
                    });
                }
            }
        }
        for site in by_caller.get(&id).into_iter().flatten() {
            if let Some(lock) = blocking_lock(site) {
                out.push(Finding {
                    path: path.clone(),
                    line: site.line,
                    rule: "blocking-in-hot-path",
                    chain: chain.clone(),
                    message: format!(
                        "blocking `{}` on `{}` in `{}`, reachable from hot-path root \
                         `{}` — a contended acquisition stalls the fast path",
                        site.name, lock, f.qual, root
                    ),
                });
            }
        }
    }
}

/// If `site` is a blocking `Mutex`/`RwLock` acquisition, the lock's
/// display identity.
fn blocking_lock(site: &Site) -> Option<String> {
    let typed = |head: &str, text: &str| {
        text.contains("Mutex") || head.contains("RwLock") || text.contains("RwLock")
    };
    match (&site.name[..], &site.recv) {
        ("lock", Recv::Field { owner, field, .. }) => Some(format!("{owner}::{field}")),
        ("lock", Recv::Local { name, .. }) => Some(name.clone()),
        ("lock", _) => Some("<receiver>".into()),
        (
            "read" | "write",
            Recv::Field {
                owner,
                field,
                head,
                type_text,
            },
        ) if typed(head, type_text) => Some(format!("{owner}::{field}")),
        (
            "read" | "write",
            Recv::Local {
                name,
                head,
                type_text,
            },
        ) if typed(head, type_text) => Some(name.clone()),
        _ => None,
    }
}

/// One lock acquisition inside a function body.
struct LockEvent {
    /// Stable identity: `Owner::field` for struct-typed locks, a
    /// function-scoped name otherwise.
    id: String,
    line: usize,
    /// Sig-index of the acquiring call.
    start: usize,
    /// Sig-index at which the guard is dropped (brace close for
    /// let-bound guards, statement end for temporaries).
    end: usize,
}

/// The lock identity of `site` if it acquires a `Mutex`/`RwLock` guard
/// with a *type-identified* receiver (cross-function comparable).
fn lock_identity(ws: &Workspace, site: &Site) -> Option<String> {
    let has_lock = |head: &str, text: &str| {
        head.contains("Mutex")
            || head.contains("RwLock")
            || text.contains("Mutex<")
            || text.contains("RwLock<")
    };
    match (&site.name[..], &site.recv) {
        (
            "lock" | "read" | "write",
            Recv::Field {
                owner,
                field,
                head,
                type_text,
            },
        ) if !owner.is_empty() && has_lock(head, type_text) => Some(format!("{owner}::{field}")),
        (
            "lock" | "read" | "write",
            Recv::Local {
                name,
                head,
                type_text,
            },
        ) if has_lock(head, type_text) => {
            Some(format!("{}::{}", ws.functions[site.caller].qual, name))
        }
        _ => None,
    }
}

/// Guard extent of the acquisition at sig-index `k`: a let-bound guard
/// lives to the enclosing brace close; a temporary dies at the `;`.
fn guard_extent(file: &FileIr, k: usize, body_hi: usize) -> usize {
    // Was this statement a `let`? Walk back to the statement boundary.
    let mut j = k;
    let mut let_bound = false;
    while j > 0 {
        j -= 1;
        match file.text(j) {
            ";" | "{" | "}" => break,
            "let" => {
                let_bound = true;
                break;
            }
            _ => {}
        }
    }
    let mut depth = 0i32;
    let mut m = k;
    while m < body_hi {
        match file.text(m) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return m; // enclosing scope closed
                }
            }
            ";" if depth == 0 && !let_bound => return m,
            _ => {}
        }
        m += 1;
    }
    body_hi
}

fn lock_order(
    ws: &Workspace,
    cg: &CallGraph,
    by_caller: &BTreeMap<usize, Vec<&Site>>,
    out: &mut Vec<Finding>,
) {
    // Per-function lock events and the set of locks each function
    // (transitively) acquires.
    let mut events: BTreeMap<usize, Vec<LockEvent>> = BTreeMap::new();
    for (&caller, sites) in by_caller {
        let f = &ws.functions[caller];
        if f.in_test {
            continue;
        }
        let Some((_, bhi)) = f.body else { continue };
        let file = &ws.files[f.file];
        for site in sites {
            if let Some(id) = lock_identity(ws, site) {
                events.entry(caller).or_default().push(LockEvent {
                    id,
                    line: site.line,
                    start: site.idx,
                    end: guard_extent(file, site.idx, bhi),
                });
            }
        }
    }

    // Transitive lock sets via memoized DFS over the call graph.
    fn trans_locks(
        id: usize,
        events: &BTreeMap<usize, Vec<LockEvent>>,
        cg: &CallGraph,
        memo: &mut BTreeMap<usize, BTreeSet<String>>,
        visiting: &mut BTreeSet<usize>,
    ) -> BTreeSet<String> {
        if let Some(s) = memo.get(&id) {
            return s.clone();
        }
        if !visiting.insert(id) {
            return BTreeSet::new(); // recursion cycle: fixed below by iteration order
        }
        let mut set: BTreeSet<String> = events
            .get(&id)
            .into_iter()
            .flatten()
            .map(|e| e.id.clone())
            .collect();
        if let Some(outs) = cg.edges.get(&id) {
            for (callee, _) in outs {
                set.extend(trans_locks(*callee, events, cg, memo, visiting));
            }
        }
        visiting.remove(&id);
        memo.insert(id, set.clone());
        set
    }

    // Edges of the global lock graph with first-seen provenance.
    let mut lock_edges: BTreeMap<(String, String), (String, usize, Vec<String>)> = BTreeMap::new();
    let mut memo = BTreeMap::new();
    for (&caller, evs) in &events {
        let f = &ws.functions[caller];
        let path = &ws.files[f.file].path;
        // Held-lock pairs within one body.
        for a in evs {
            for b in evs {
                if a.start < b.start && b.start <= a.end {
                    lock_edges
                        .entry((a.id.clone(), b.id.clone()))
                        .or_insert_with(|| (path.clone(), b.line, vec![f.qual.clone()]));
                }
            }
            // Locks acquired by callees while `a` is held.
            for site in by_caller.get(&caller).into_iter().flatten() {
                let Resolution::Fn(callee) = site.resolution else {
                    continue;
                };
                if !(a.start < site.idx && site.idx <= a.end) {
                    continue;
                }
                let mut visiting = BTreeSet::new();
                for lid in trans_locks(callee, &events, cg, &mut memo, &mut visiting) {
                    lock_edges.entry((a.id.clone(), lid)).or_insert_with(|| {
                        (
                            path.clone(),
                            site.line,
                            vec![f.qual.clone(), ws.functions[callee].qual.clone()],
                        )
                    });
                }
            }
        }
    }

    // Any cycle in the lock graph is a deadlock finding. Self-loops
    // (re-acquiring a held lock) count.
    let adj: BTreeMap<&String, BTreeSet<&String>> = {
        let mut m: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for (a, b) in lock_edges.keys() {
            m.entry(a).or_default().insert(b);
        }
        m
    };
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n.clone()) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (path, line, chain)) in &lock_edges {
        if a == b {
            out.push(Finding {
                path: path.clone(),
                line: *line,
                rule: "lock-order",
                chain: chain.clone(),
                message: format!(
                    "`{a}` is acquired while a guard on `{a}` is still held — \
                     self-deadlock (or writer-starvation) risk"
                ),
            });
            continue;
        }
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if reaches(b, a) && reported.insert(key) {
            out.push(Finding {
                path: path.clone(),
                line: *line,
                rule: "lock-order",
                chain: chain.clone(),
                message: format!(
                    "lock-order cycle: `{a}` is held while acquiring `{b}` here, and \
                     the reverse order exists elsewhere — deadlock risk"
                ),
            });
        }
    }
}

fn determinism_taint(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Finding>) {
    // Which functions directly read a wall-clock/entropy primitive.
    let mut source: BTreeMap<usize, &'static str> = BTreeMap::new();
    for (id, f) in ws.functions.iter().enumerate() {
        if f.in_test {
            continue;
        }
        for line in own_lines(ws, id) {
            for pat in TAINT_SOURCES {
                if find_token(&line.code, pat).is_some() || line.code.contains(pat) {
                    source.entry(id).or_insert(pat);
                }
            }
        }
    }

    // Reverse-BFS: every function that can reach a source, with the
    // next hop toward it.
    let mut rev: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&caller, outs) in &cg.edges {
        for (callee, _) in outs {
            rev.entry(*callee).or_default().push(caller);
        }
    }
    let mut next_hop: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &id in source.keys() {
        next_hop.insert(id, id);
        queue.push_back(id);
    }
    while let Some(id) = queue.pop_front() {
        for &caller in rev.get(&id).into_iter().flatten() {
            next_hop.entry(caller).or_insert_with(|| {
                queue.push_back(caller);
                id
            });
        }
    }

    // A deterministic-engine call site whose callee lives outside the
    // deterministic crates and transitively reaches a primitive.
    for site in &cg.sites {
        let Resolution::Fn(callee) = site.resolution else {
            continue;
        };
        let caller = &ws.functions[site.caller];
        let caller_path = &ws.files[caller.file].path;
        if caller.in_test || !deterministic_scope(caller_path) {
            continue;
        }
        let callee_path = &ws.files[ws.functions[callee].file].path;
        if deterministic_scope(callee_path) {
            continue; // direct reads in-scope are the wall-clock rule's job
        }
        if !next_hop.contains_key(&callee) {
            continue;
        }
        // Chain callee -> ... -> source, ending with the primitive.
        let mut chain = vec![caller.qual.clone()];
        let mut cur = callee;
        loop {
            chain.push(ws.functions[cur].qual.clone());
            let nxt = next_hop[&cur];
            if nxt == cur {
                break;
            }
            cur = nxt;
        }
        let pat = source[&cur];
        chain.push(format!("{pat} (primitive)"));
        out.push(Finding {
            path: caller_path.clone(),
            line: site.line,
            rule: "determinism-taint",
            chain,
            message: format!(
                "`{}` transitively reads `{}` outside the deterministic crates — \
                 wall-clock/entropy must not flow into press-core/press-sim state",
                ws.functions[callee].qual, pat
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Pins;
    use crate::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let srcs: Vec<SourceFile> = files
            .iter()
            .map(|(p, c)| SourceFile {
                path: (*p).into(),
                content: (*c).into(),
            })
            .collect();
        let ws = Workspace::build(&srcs);
        let cg = CallGraph::build(&ws, &Pins::empty());
        check_workspace(&ws, &cg)
    }

    #[test]
    fn transitive_unwrap_carries_the_chain() {
        let out = run(&[(
            "crates/via/src/fixture.rs",
            "\
#[press::hot_path]
fn root() { middle(); }
fn middle() { leaf(); }
fn leaf(x: Option<u8>) { x.unwrap(); }
",
        )]);
        let f = out
            .iter()
            .find(|f| f.rule == "hot-path-transitive")
            .expect("transitive finding");
        assert_eq!(f.line, 4);
        assert_eq!(
            f.chain,
            vec![
                "via::fixture::root",
                "via::fixture::middle",
                "via::fixture::leaf"
            ]
        );
    }

    #[test]
    fn blocking_lock_reachable_from_root_fires() {
        let out = run(&[(
            "crates/via/src/fixture.rs",
            "\
struct Shared { table: Mutex<u8> }
impl Shared {
    #[press::hot_path]
    fn fast(&self) { self.slow(); }
    fn slow(&self) { let _g = self.table.lock(); }
}
",
        )]);
        assert!(
            out.iter()
                .any(|f| f.rule == "blocking-in-hot-path" && f.line == 5),
            "{out:?}"
        );
    }

    #[test]
    fn lock_order_cycle_across_functions() {
        let out = run(&[(
            "crates/via/src/fixture.rs",
            "\
struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    fn forward(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
    fn backward(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }
}
",
        )]);
        assert!(out.iter().any(|f| f.rule == "lock-order"), "{out:?}");
    }

    #[test]
    fn self_loop_on_one_lock_fires() {
        let out = run(&[(
            "crates/via/src/fixture.rs",
            "\
struct S { a: RwLock<u8> }
impl S {
    fn copy(&self, other: &S) { let _r = self.a.read(); let _w = other.a.write(); }
}
",
        )]);
        assert!(
            out.iter()
                .any(|f| f.rule == "lock-order" && f.message.contains("self-deadlock")),
            "{out:?}"
        );
    }

    #[test]
    fn temporaries_do_not_hold_across_statements() {
        let out = run(&[(
            "crates/via/src/fixture.rs",
            "\
struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    fn seq(&self) { *self.a.lock().unwrap_or_default(); *self.b.lock().unwrap_or_default(); }
    fn rev(&self) { *self.b.lock().unwrap_or_default(); *self.a.lock().unwrap_or_default(); }
}
",
        )]);
        assert!(
            !out.iter().any(|f| f.rule == "lock-order"),
            "temporary guards drop at the semicolon: {out:?}"
        );
    }

    #[test]
    fn taint_flows_from_core_into_a_live_helper() {
        let out = run(&[
            (
                "crates/core/src/engine.rs",
                "fn step() { sample_clock(); }\n",
            ),
            (
                "crates/server/src/helper.rs",
                "pub fn sample_clock() -> u64 { read_clock() }\nfn read_clock() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        let f = out
            .iter()
            .find(|f| f.rule == "determinism-taint")
            .expect("taint finding");
        assert_eq!(f.path, "crates/core/src/engine.rs");
        assert!(f.chain.last().unwrap().contains("Instant::now"));
    }

    #[test]
    fn clean_graph_has_no_flow_findings() {
        let out = run(&[(
            "crates/via/src/fixture.rs",
            "\
#[press::hot_path]
fn root(buf: &mut [u8; 4]) { fill(buf); }
fn fill(buf: &mut [u8; 4]) { buf[0] = 1; }
",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}

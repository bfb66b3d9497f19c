//! Name-resolution-lite call graph over the [`crate::ir`] workspace.
//!
//! Call sites are extracted from function bodies and resolved in tiers:
//! `self.m()` by the owner type, `self.field.m()` and local receivers by
//! inferred head types (struct fields, `let x: T`, `let x = T::..`,
//! signature params), `Type::m()` and longer paths by qualified-suffix
//! match, bare `f()` by file → crate → workspace uniqueness. Method
//! names that collide with the standard library (`push`, `lock`,
//! `recv`, ...) are presumed external when the receiver type is
//! unknown. Whatever remains with more than one candidate is reported
//! as an *ambiguity* and must be pinned in
//! `crates/analyze/callgraph.toml`; CI gates on zero unpinned
//! ambiguities, and stale pins are themselves warnings (mirroring the
//! atomics manifest).

use crate::ir::{head_type, FileIr, Function, Workspace};
use crate::lexer::TokKind;
use std::collections::{BTreeMap, BTreeSet};

/// Method names shared with std container/sync types: an unknown
/// receiver plus one of these resolves to *external* rather than
/// guessing a workspace function.
const STD_COLLIDE: [&str; 42] = [
    "abs", "bytes", "clear", "clone", "cmp", "contains", "count", "default", "drain", "drop", "eq",
    "extend", "flush", "fmt", "from", "get", "get_mut", "hash", "insert", "into", "is_empty",
    "iter", "join", "len", "lock", "max", "min", "new", "next", "parse", "poll", "pop", "push",
    "read", "recv", "remove", "reset", "send", "take", "try_recv", "wait", "write",
];

/// Keywords that look like `ident (` but are not calls.
const KEYWORDS: [&str; 16] = [
    "as", "break", "continue", "else", "fn", "for", "if", "in", "let", "loop", "match", "move",
    "return", "unsafe", "while", "await",
];

/// The receiver of a call site, as far as the IR can see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.m()` — the string is the owner type.
    SelfType(String),
    /// `self.field.m()` — field of the owner struct.
    Field {
        /// Owner type the field belongs to.
        owner: String,
        /// Field name.
        field: String,
        /// Head type of the field (wrappers stripped), possibly empty.
        head: String,
        /// Full field type text, possibly empty.
        type_text: String,
    },
    /// `x.m()` where `x` is a local or parameter with an inferred type.
    Local {
        /// The binding name.
        name: String,
        /// Inferred head type (may be empty if unknown).
        head: String,
        /// Full inferred type text (may be empty).
        type_text: String,
    },
    /// `a::b::m()` — path segments, method last.
    Path(Vec<String>),
    /// `f()` with no receiver.
    Bare,
    /// A chained or otherwise opaque receiver.
    Unknown,
}

/// How a call site resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// A workspace function (id into [`Workspace::functions`]).
    Fn(usize),
    /// Outside the workspace (std or vendored).
    External,
    /// More than one candidate and no pin: must be pinned.
    Ambiguous(Vec<usize>),
}

/// One extracted call site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Calling function id.
    pub caller: usize,
    /// Significant-token index of the called name in the caller's file
    /// (sites stay in body order; flow rules use this for guard scopes).
    pub idx: usize,
    /// 1-based line of the called name.
    pub line: usize,
    /// Called method/function name.
    pub name: String,
    /// Receiver classification.
    pub recv: Recv,
    /// Resolution outcome.
    pub resolution: Resolution,
}

/// A pin from `callgraph.toml`.
#[derive(Debug, Clone)]
pub struct Pin {
    /// Caller qual suffix; `None` applies to every caller.
    pub caller: Option<String>,
    /// Method name the pin covers.
    pub method: String,
    /// Target qual suffix, or `external`.
    pub target: String,
    /// 1-based call-site line; pins one site when a caller makes the
    /// same ambiguous call with different true targets.
    pub line: Option<usize>,
}

/// Parsed pin file.
#[derive(Debug, Default)]
pub struct Pins {
    /// Pins in file order.
    pub pins: Vec<Pin>,
}

impl Pins {
    /// Empty pin set.
    pub fn empty() -> Pins {
        Pins::default()
    }

    /// Parses the `[[pin]]` TOML subset (same dialect as the atomics
    /// manifest: `key = "value"` lines under `[[pin]]` headers).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Vec::new();
        let mut current: Option<Pin> = None;
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[pin]]" {
                if let Some(p) = current.take() {
                    pins.push(validate(p, no)?);
                }
                current = Some(Pin {
                    caller: None,
                    method: String::new(),
                    target: String::new(),
                    line: None,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "callgraph.toml line {}: expected key = \"value\"",
                    no + 1
                ));
            };
            let key = key.trim();
            let value = value.trim().trim_matches('"').to_string();
            let Some(pin) = current.as_mut() else {
                return Err(format!(
                    "callgraph.toml line {}: `{}` outside a [[pin]] table",
                    no + 1,
                    key
                ));
            };
            match key {
                "caller" => pin.caller = Some(value),
                "method" => pin.method = value,
                "target" => pin.target = value,
                "line" => match value.parse::<usize>() {
                    Ok(n) => pin.line = Some(n),
                    Err(_) => {
                        return Err(format!(
                            "callgraph.toml line {}: `line` must be a number",
                            no + 1
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "callgraph.toml line {}: unknown key `{}`",
                        no + 1,
                        other
                    ))
                }
            }
        }
        if let Some(p) = current.take() {
            pins.push(validate(p, text.lines().count())?);
        }
        Ok(Pins { pins })
    }
}

fn validate(p: Pin, line: usize) -> Result<Pin, String> {
    if p.method.is_empty() || p.target.is_empty() {
        return Err(format!(
            "callgraph.toml near line {}: a pin needs `method` and `target`",
            line + 1
        ));
    }
    Ok(p)
}

/// The resolved call graph.
pub struct CallGraph {
    /// Every call site, in (caller, line) order.
    pub sites: Vec<Site>,
    /// Resolved edges `caller -> callee` (workspace functions only),
    /// deduplicated, with the first line the edge occurs on.
    pub edges: BTreeMap<usize, Vec<(usize, usize)>>,
    /// Unpinned ambiguities, rendered for the report.
    pub ambiguities: Vec<String>,
    /// Pins that never matched a call site (stale).
    pub stale_pins: Vec<String>,
}

impl CallGraph {
    /// Extracts and resolves every call site in `ws`.
    pub fn build(ws: &Workspace, pins: &Pins) -> CallGraph {
        let mut sites = Vec::new();
        let mut pin_used = vec![false; pins.pins.len()];
        for (id, f) in ws.functions.iter().enumerate() {
            // Test-only callers feed no flow rule (roots, lock walks,
            // and taint all skip them) — extracting their sites would
            // only manufacture ambiguity noise.
            if f.in_test {
                continue;
            }
            let Some((blo, bhi)) = f.body else { continue };
            let file = &ws.files[f.file];
            let locals = infer_locals(file, f, ws);
            let mut k = blo + 1;
            while k < bhi {
                if let Some(&(_, nhi)) = f.nested.iter().find(|(nlo, nhi)| *nlo <= k && k <= *nhi) {
                    k = nhi + 1;
                    continue;
                }
                if file.kind(k) == TokKind::Ident
                    && k + 1 < bhi
                    && file.text(k + 1) == "("
                    && !KEYWORDS.contains(&file.text(k))
                {
                    if let Some(site) =
                        classify(file, f, ws, id, k, blo, &locals, pins, &mut pin_used)
                    {
                        sites.push(site);
                    }
                }
                k += 1;
            }
        }

        let mut edges: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for s in &sites {
            if let Resolution::Fn(callee) = s.resolution {
                if seen.insert((s.caller, callee)) {
                    edges.entry(s.caller).or_default().push((callee, s.line));
                }
            }
        }

        let mut ambiguities: Vec<String> = sites
            .iter()
            .filter_map(|s| match &s.resolution {
                Resolution::Ambiguous(cands) => {
                    let caller = &ws.functions[s.caller];
                    let names: Vec<&str> = cands
                        .iter()
                        .map(|&c| ws.functions[c].qual.as_str())
                        .collect();
                    Some(format!(
                        "unresolved call `{}` from {} ({}:{}); candidates: {} — pin it in crates/analyze/callgraph.toml",
                        s.name,
                        caller.qual,
                        ws.files[caller.file].path,
                        s.line,
                        names.join(", ")
                    ))
                }
                _ => None,
            })
            .collect();
        ambiguities.sort();
        ambiguities.dedup();

        let stale_pins = pins
            .pins
            .iter()
            .zip(&pin_used)
            .filter(|(_, used)| !**used)
            .map(|(p, _)| {
                format!(
                    "stale callgraph pin: method `{}` (caller {}) matches no call site",
                    p.method,
                    p.caller.as_deref().unwrap_or("*")
                )
            })
            .collect();

        CallGraph {
            sites,
            edges,
            ambiguities,
            stale_pins,
        }
    }

    /// Renders the resolved graph as sorted Graphviz DOT; hot-path
    /// roots are drawn as boxes.
    pub fn to_dot(&self, ws: &Workspace) -> String {
        let mut lines: BTreeSet<String> = BTreeSet::new();
        for (caller, outs) in &self.edges {
            for (callee, _) in outs {
                lines.insert(format!(
                    "  \"{}\" -> \"{}\";",
                    ws.functions[*caller].qual, ws.functions[*callee].qual
                ));
            }
        }
        let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n");
        for f in &ws.functions {
            if f.attrs.hot_path {
                out.push_str(&format!("  \"{}\" [shape=box,color=red];\n", f.qual));
            }
        }
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// Whether `qual` matches a pin/diagnostic `suffix` at a `::` boundary.
pub fn qual_matches(qual: &str, suffix: &str) -> bool {
    qual == suffix || qual.ends_with(&format!("::{suffix}"))
}

/// Infers local-binding head types for one function: signature params
/// plus `let x: T`, `let x = T::..`, and `let x = T {` bindings.
fn infer_locals(file: &FileIr, f: &Function, ws: &Workspace) -> BTreeMap<String, String> {
    let mut locals: BTreeMap<String, String> = BTreeMap::new();
    // Parameters: inside the signature's paren group, `name : Type`.
    let (slo, shi) = f.sig;
    let mut j = slo;
    while j < shi && file.text(j) != "(" {
        j += 1;
    }
    if j < shi {
        let close = matching(file, j, shi, "(", ")");
        let mut k = j + 1;
        while k < close {
            if file.kind(k) == TokKind::Ident
                && file.text(k) != "self"
                && file.text(k) != "mut"
                && k + 1 < close
                && file.text(k + 1) == ":"
            {
                let (ty, next) = type_until_comma(file, k + 2, close);
                locals.insert(file.text(k).to_string(), full_head(&ty, ws));
                k = next;
            } else {
                k += 1;
            }
        }
    }
    // Body lets.
    if let Some((blo, bhi)) = f.body {
        let mut k = blo + 1;
        while k < bhi {
            if file.text(k) == "let" {
                let mut m = k + 1;
                if m < bhi && file.text(m) == "mut" {
                    m += 1;
                }
                if m < bhi && file.kind(m) == TokKind::Ident {
                    let name = file.text(m).to_string();
                    if m + 1 < bhi && file.text(m + 1) == ":" {
                        let (ty, _) = type_until_eq(file, m + 2, bhi);
                        locals.insert(name, full_head(&ty, ws));
                        k = m + 1;
                        continue;
                    }
                    if m + 1 < bhi && file.text(m + 1) == "=" {
                        let t = file.text(m + 2);
                        if file.kind(m + 2) == TokKind::Ident
                            && t.starts_with(|c: char| c.is_ascii_uppercase())
                            && m + 3 < bhi
                            && matches!(file.text(m + 3), ":" | "{")
                        {
                            locals.insert(name, t.to_string());
                        }
                        k = m + 1;
                        continue;
                    }
                }
            }
            k += 1;
        }
    }
    locals
}

/// Head type, descending into field-type wrappers (`Arc<RwLock<..>>` →
/// `RwLock`); falls back to the raw head.
fn full_head(ty: &str, _ws: &Workspace) -> String {
    head_type(ty)
}

/// Collects type text until a `,` at depth zero (param lists).
fn type_until_comma(file: &FileIr, k: usize, close: usize) -> (String, usize) {
    collect_type(file, k, close, &[","])
}

/// Collects type text until `=` or `;` at depth zero (let bindings).
fn type_until_eq(file: &FileIr, k: usize, close: usize) -> (String, usize) {
    collect_type(file, k, close, &["=", ";"])
}

fn collect_type(file: &FileIr, k: usize, close: usize, stops: &[&str]) -> (String, usize) {
    let mut depth = 0i32;
    let mut out = String::new();
    let mut j = k;
    while j < close {
        let t = file.text(j);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => depth += 1,
            ">" => {
                if j > k && matches!(file.text(j - 1), "-" | "=") {
                    out.push_str(t);
                    j += 1;
                    continue;
                }
                depth -= 1;
            }
            _ => {}
        }
        if depth == 0 && stops.contains(&t) {
            return (out, j + 1);
        }
        if depth < 0 {
            return (out, j);
        }
        // Keep word tokens separated (`&mut Ring`, not `&mutRing`).
        if out.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            && t.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
        {
            out.push(' ');
        }
        out.push_str(t);
        j += 1;
    }
    (out, close)
}

fn matching(file: &FileIr, open: usize, hi: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < hi {
        let t = file.text(j);
        if t == o {
            depth += 1;
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    hi
}

/// Classifies and resolves the call whose name token is at sig-index
/// `k`; returns `None` for constructors, definitions, and macros.
#[allow(clippy::too_many_arguments)]
fn classify(
    file: &FileIr,
    f: &Function,
    ws: &Workspace,
    caller_id: usize,
    k: usize,
    blo: usize,
    locals: &BTreeMap<String, String>,
    pins: &Pins,
    pin_used: &mut [bool],
) -> Option<Site> {
    let name = file.text(k).to_string();
    let line = file.line(k);
    let prev = if k > blo { file.text(k - 1) } else { "" };

    let recv = if prev == "fn" {
        return None; // nested definition
    } else if prev == "." {
        // Method call: walk the receiver.
        if k >= 2 && file.text(k - 2) == "self" && (k < 3 || file.text(k - 3) != ".") {
            Recv::SelfType(f.owner.clone().unwrap_or_default())
        } else if k >= 4
            && file.kind(k - 2) == TokKind::Ident
            && file.text(k - 3) == "."
            && file.text(k - 4) == "self"
        {
            let field = file.text(k - 2).to_string();
            let (head, type_text) = f
                .owner
                .as_ref()
                .and_then(|o| ws.structs.get(o))
                .and_then(|s| s.fields.iter().find(|fl| fl.name == field))
                .map(|fl| (fl.head.clone(), fl.type_text.clone()))
                .unwrap_or_default();
            Recv::Field {
                owner: f.owner.clone().unwrap_or_default(),
                field,
                head,
                type_text,
            }
        } else if k >= 4
            && file.kind(k - 2) == TokKind::Ident
            && file.text(k - 3) == "."
            && file.kind(k - 4) == TokKind::Ident
            && (k < 5 || !matches!(file.text(k - 5), "." | ":"))
        {
            // `local.field.m()` — field of a typed local's struct.
            let field = file.text(k - 2).to_string();
            let owner = locals.get(file.text(k - 4)).cloned().unwrap_or_default();
            let (head, type_text) = ws
                .structs
                .get(&owner)
                .and_then(|s| s.fields.iter().find(|fl| fl.name == field))
                .map(|fl| (fl.head.clone(), fl.type_text.clone()))
                .unwrap_or_default();
            if owner.is_empty() {
                Recv::Unknown
            } else {
                Recv::Field {
                    owner,
                    field,
                    head,
                    type_text,
                }
            }
        } else if k >= 2
            && file.kind(k - 2) == TokKind::Ident
            && (k < 3 || !matches!(file.text(k - 3), "." | ":"))
        {
            let rname = file.text(k - 2).to_string();
            let (head, type_text) = locals
                .get(&rname)
                .map(|h| (h.clone(), h.clone()))
                .unwrap_or_default();
            Recv::Local {
                name: rname,
                head,
                type_text,
            }
        } else {
            Recv::Unknown
        }
    } else if prev == ":" && k >= 2 && file.text(k - 2) == ":" {
        // Qualified path: collect segments backwards.
        if name.starts_with(|c: char| c.is_ascii_uppercase()) {
            return None; // enum variant / associated constant pattern
        }
        let mut segs = vec![name.clone()];
        let mut m = k;
        while m >= 3
            && file.text(m - 1) == ":"
            && file.text(m - 2) == ":"
            && file.kind(m - 3) == TokKind::Ident
        {
            segs.push(file.text(m - 3).to_string());
            m -= 3;
        }
        segs.reverse();
        Recv::Path(segs)
    } else {
        if name.starts_with(|c: char| c.is_ascii_uppercase()) {
            return None; // tuple-struct constructor
        }
        Recv::Bare
    };

    let resolution = resolve(ws, caller_id, &name, line, &recv, pins, pin_used);
    Some(Site {
        caller: caller_id,
        idx: k,
        line,
        name,
        recv,
        resolution,
    })
}

/// Candidate functions for `name`, excluding test-only targets for live
/// callers.
fn candidates(ws: &Workspace, caller_id: usize, name: &str) -> Vec<usize> {
    let caller = &ws.functions[caller_id];
    ws.fns_by_name
        .get(name)
        .map(|ids| {
            ids.iter()
                .copied()
                .filter(|&id| caller.in_test || !ws.functions[id].in_test)
                .filter(|&id| id != caller_id)
                .collect()
        })
        .unwrap_or_default()
}

fn resolve(
    ws: &Workspace,
    caller_id: usize,
    name: &str,
    line: usize,
    recv: &Recv,
    pins: &Pins,
    pin_used: &mut [bool],
) -> Resolution {
    let caller = &ws.functions[caller_id];
    // Pins take precedence: line-scoped beats caller-scoped beats
    // global.
    let mut pick: Option<(usize, u8)> = None;
    for (i, p) in pins.pins.iter().enumerate() {
        if p.method != name {
            continue;
        }
        if let Some(want) = p.line {
            if want != line {
                continue;
            }
        }
        let scoped = match &p.caller {
            Some(c) => qual_matches(&caller.qual, c),
            None => true,
        };
        if !scoped {
            continue;
        }
        let rank = u8::from(p.line.is_some()) * 2 + u8::from(p.caller.is_some());
        if pick.is_none_or(|(_, best)| rank > best) {
            pick = Some((i, rank));
        }
    }
    let pick = pick.map(|(i, _)| i);
    if let Some(i) = pick {
        let p = &pins.pins[i];
        pin_used[i] = true;
        if p.target == "external" {
            return Resolution::External;
        }
        let hits: Vec<usize> = ws
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| qual_matches(&f.qual, &p.target))
            .map(|(id, _)| id)
            .collect();
        return match hits.len() {
            1 => Resolution::Fn(hits[0]),
            _ => Resolution::Ambiguous(hits),
        };
    }

    let cands = candidates(ws, caller_id, name);
    match recv {
        Recv::SelfType(owner)
        | Recv::Field { head: owner, .. }
        | Recv::Local { head: owner, .. }
            if !owner.is_empty() && owner.starts_with(|c: char| c.is_ascii_uppercase()) =>
        {
            let typed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| ws.functions[id].owner.as_deref() == Some(owner.as_str()))
                .collect();
            narrow(ws, caller_id, typed)
        }
        Recv::Path(segs) => {
            let suffix = segs.join("::");
            let hits: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| qual_matches(&ws.functions[id].qual, &suffix))
                .collect();
            narrow(ws, caller_id, hits)
        }
        Recv::Bare => {
            let free: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| ws.functions[id].owner.is_none())
                .collect();
            let same_file: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&id| ws.functions[id].file == caller.file)
                .collect();
            if same_file.len() == 1 {
                return Resolution::Fn(same_file[0]);
            }
            narrow(ws, caller_id, free)
        }
        _ => {
            // Unknown or untyped receiver.
            if STD_COLLIDE.contains(&name) {
                return Resolution::External;
            }
            narrow(ws, caller_id, cands)
        }
    }
}

/// Narrows a candidate set: unique wins; same-crate preference breaks
/// ties; anything still plural is ambiguous.
fn narrow(ws: &Workspace, caller_id: usize, cands: Vec<usize>) -> Resolution {
    match cands.len() {
        0 => Resolution::External,
        1 => Resolution::Fn(cands[0]),
        _ => {
            let caller_crate = &ws.files[ws.functions[caller_id].file].crate_name;
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| &ws.files[ws.functions[id].file].crate_name == caller_crate)
                .collect();
            if same_crate.len() == 1 {
                Resolution::Fn(same_crate[0])
            } else {
                Resolution::Ambiguous(cands)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn graph(src: &str) -> (Workspace, CallGraph) {
        let ws = Workspace::build(&[SourceFile {
            path: "crates/via/src/fixture.rs".into(),
            content: src.into(),
        }]);
        let cg = CallGraph::build(&ws, &Pins::empty());
        (ws, cg)
    }

    fn edge(ws: &Workspace, cg: &CallGraph, a: &str, b: &str) -> bool {
        cg.edges.iter().any(|(caller, outs)| {
            ws.functions[*caller].name == a
                && outs
                    .iter()
                    .any(|(callee, _)| ws.functions[*callee].name == b)
        })
    }

    #[test]
    fn self_and_field_receivers_resolve() {
        let src = "\
struct Inner { n: usize }
impl Inner { fn tick(&self) {} }
struct Outer { inner: Inner }
impl Outer {
    fn run(&self) { self.step(); self.inner.tick(); }
    fn step(&self) {}
}
";
        let (ws, cg) = graph(src);
        assert!(edge(&ws, &cg, "run", "step"));
        assert!(edge(&ws, &cg, "run", "tick"));
    }

    #[test]
    fn local_and_path_receivers_resolve() {
        let src = "\
struct Ring;
impl Ring { fn fire(&self) {} fn make() -> Ring { Ring } }
fn go() {
    let r: Ring = Ring::make();
    r.fire();
    helper();
}
fn helper() {}
";
        let (ws, cg) = graph(src);
        assert!(edge(&ws, &cg, "go", "make"));
        assert!(edge(&ws, &cg, "go", "fire"));
        assert!(edge(&ws, &cg, "go", "helper"));
    }

    #[test]
    fn std_collisions_stay_external_without_a_pin() {
        let src = "\
struct Q;
impl Q { fn push(&self) {} }
fn go(items: Vec<u8>) { let it = items.iter(); it.clone().count(); }
";
        let (ws, cg) = graph(src);
        // `.count()` has an unknown receiver; no workspace candidate.
        assert!(!cg.edges.contains_key(&2) || !edge(&ws, &cg, "go", "push"));
        assert!(cg.ambiguities.is_empty());
    }

    #[test]
    fn pins_redirect_and_go_stale() {
        // `pick().fire()` has a chained (opaque) receiver and two
        // workspace candidates — ambiguous until pinned.
        let src = "\
struct A; struct B;
impl A { fn fire(&self) {} }
impl B { fn fire(&self) {} }
fn pick() -> A { A }
fn go() { pick().fire(); }
";
        let ws = Workspace::build(&[SourceFile {
            path: "crates/via/src/fixture.rs".into(),
            content: src.into(),
        }]);
        let unpinned = CallGraph::build(&ws, &Pins::empty());
        assert_eq!(unpinned.ambiguities.len(), 1, "{:?}", unpinned.ambiguities);

        let pins = Pins::parse(
            "[[pin]]\ncaller = \"fixture::go\"\nmethod = \"fire\"\ntarget = \"A::fire\"\n",
        )
        .unwrap();
        let pinned = CallGraph::build(&ws, &pins);
        assert!(pinned.ambiguities.is_empty());
        assert!(edge(&ws, &pinned, "go", "fire"));
        assert!(pinned.stale_pins.is_empty());

        let stale =
            Pins::parse("[[pin]]\nmethod = \"nonexistent\"\ntarget = \"external\"\n").unwrap();
        let cg = CallGraph::build(&ws, &stale);
        assert_eq!(cg.stale_pins.len(), 1);
    }

    #[test]
    fn test_functions_are_not_live_targets() {
        let src = "\
fn live() { probe(); }
#[cfg(test)]
mod tests { pub fn probe() {} }
fn probe_decoy() {}
";
        let (ws, cg) = graph(src);
        // Only the cfg(test) probe exists; live callers treat it as external.
        assert!(!edge(&ws, &cg, "live", "probe"));
    }

    #[test]
    fn dot_export_is_sorted_and_marks_roots() {
        let src = "\
#[press::hot_path]
fn root() { leaf(); }
fn leaf() {}
";
        let (ws, cg) = graph(src);
        let dot = cg.to_dot(&ws);
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("\"via::fixture::root\" -> \"via::fixture::leaf\";"));
    }
}

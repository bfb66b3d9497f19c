//! The workspace IR: an item-level view of every source file.
//!
//! Built on the [`crate::lexer`] token stream, the IR records — per
//! file — the functions (with owner type, enclosing modules, captured
//! attributes, and brace-matched body extents), the struct definitions
//! with field types, and the classified [`crate::scanner::Line`]s. The
//! [`crate::callgraph`] layer resolves call sites over it; the
//! [`crate::flow_rules`] layer runs the transitive rule families on
//! top of the graph.
//!
//! This is deliberately *name-resolution-lite*: no trait solving, no
//! type checking. Owner types come from `impl` blocks, field types from
//! struct definitions, and everything else is resolved by unique-suffix
//! matching with explicit pins (`crates/analyze/callgraph.toml`) for
//! the ambiguous remainder.

use crate::lexer::{lex, TokKind, Token};
use crate::scanner::{scan_tokens, Line};
use crate::SourceFile;
use std::collections::BTreeMap;

/// Captured attributes and prefixes of a function item.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnAttrs {
    /// Tagged `#[press::hot_path]` (or `#[hot_path]`).
    pub hot_path: bool,
    /// Tagged `#[test]` or `#[cfg(test)]`.
    pub test: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct Function {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The `impl`/`trait` type the function belongs to, if any.
    pub owner: Option<String>,
    /// Bare function name.
    pub name: String,
    /// `crate::module::Owner::name` — the stable handle pins and
    /// diagnostics use (suffix-matched, so `Owner::name` usually does).
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line of the body's closing brace (sig_line if bodyless).
    pub end_line: usize,
    /// Significant-token index range of the signature: `[fn, body `{`)`.
    pub sig: (usize, usize),
    /// Significant-token index range of the body, inclusive of both
    /// braces; `None` for trait declarations without a default body.
    pub body: Option<(usize, usize)>,
    /// Body ranges of functions nested inside this one (excluded from
    /// this function's call extraction).
    pub nested: Vec<(usize, usize)>,
    /// Captured attributes.
    pub attrs: FnAttrs,
    /// Inside a `#[cfg(test)]` module, or itself attribute-tested.
    pub in_test: bool,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// The field's type, tokens joined (e.g. `Arc<RwLock<Vec<u8>>>`).
    pub type_text: String,
    /// The type's head identifier with reference/smart-pointer wrappers
    /// stripped (e.g. `RwLock` for `Arc<RwLock<..>>`).
    pub head: String,
}

/// A struct definition with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<Field>,
}

/// One parsed file.
pub struct FileIr {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Crate the file belongs to (`via`, `server`, ..., `press` for
    /// the root `src/`).
    pub crate_name: String,
    /// Full source text.
    pub src: String,
    /// The complete token stream (tiles the source).
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of significant tokens: everything except
    /// whitespace and comments.
    pub sig: Vec<usize>,
    /// Classified lines (shared with the line-local rules).
    pub lines: Vec<Line>,
}

impl FileIr {
    /// Text of the significant token at sig-index `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[self.sig[i]].text(&self.src)
    }

    /// Kind of the significant token at sig-index `i`.
    pub fn kind(&self, i: usize) -> TokKind {
        self.tokens[self.sig[i]].kind
    }

    /// 1-based line of the significant token at sig-index `i`.
    pub fn line(&self, i: usize) -> usize {
        self.tokens[self.sig[i]].line as usize
    }
}

/// The parsed workspace.
pub struct Workspace {
    /// Parsed files, in input order.
    pub files: Vec<FileIr>,
    /// Every function item, in (file, position) order.
    pub functions: Vec<Function>,
    /// Struct definitions by type name (first definition wins).
    pub structs: BTreeMap<String, StructDef>,
    /// Function ids grouped by bare name.
    pub fns_by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Parses `files` into the workspace IR.
    pub fn build(files: &[SourceFile]) -> Workspace {
        let mut out = Workspace {
            files: Vec::new(),
            functions: Vec::new(),
            structs: BTreeMap::new(),
            fns_by_name: BTreeMap::new(),
        };
        for sf in files {
            let tokens = lex(&sf.content);
            let sig: Vec<usize> = tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    !matches!(
                        t.kind,
                        TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                    )
                })
                .map(|(i, _)| i)
                .collect();
            let lines = scan_tokens(&sf.content, &tokens);
            let file = FileIr {
                path: sf.path.clone(),
                crate_name: crate_of(&sf.path),
                src: sf.content.clone(),
                tokens,
                sig,
                lines,
            };
            let file_idx = out.files.len();
            out.files.push(file);
            let file = &out.files[file_idx];
            let ctx = Ctx {
                mods: module_path(&sf.path),
                owner: None,
                in_test: false,
            };
            let hi = file.sig.len();
            let mut parsed = Vec::new();
            let mut structs = Vec::new();
            parse_items(file, 0, hi, &ctx, &mut parsed, &mut structs);
            for s in structs {
                out.structs.entry(s.name.clone()).or_insert(s);
            }
            for mut f in parsed {
                f.file = file_idx;
                out.fns_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(out.functions.len());
                out.functions.push(f);
            }
        }
        out
    }

    /// The function whose body contains 1-based `line` of `file`, if
    /// any (innermost wins).
    pub fn fn_at(&self, file: usize, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (id, f) in self.functions.iter().enumerate() {
            if f.file == file && f.sig_line <= line && line <= f.end_line {
                let tighter = best
                    .map(|b| {
                        let bf = &self.functions[b];
                        f.end_line - f.sig_line < bf.end_line - bf.sig_line
                    })
                    .unwrap_or(true);
                if tighter {
                    best = Some(id);
                }
            }
        }
        best
    }
}

/// Crate name from a workspace-relative path.
fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "press".to_string()
}

/// Module segments from a path (`crates/via/src/fabric.rs` → `[fabric]`;
/// `lib.rs`/`main.rs`/`mod.rs` contribute nothing).
fn module_path(path: &str) -> Vec<String> {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    match stem {
        "lib" | "main" | "mod" => Vec::new(),
        s => vec![s.to_string()],
    }
}

#[derive(Clone)]
struct Ctx {
    mods: Vec<String>,
    owner: Option<String>,
    in_test: bool,
}

/// Pending attributes/prefixes accumulated before an item.
#[derive(Default)]
struct Pending {
    hot_path: bool,
    test: bool,
    cfg_test: bool,
    is_unsafe: bool,
}

/// Parses items in sig-index range `[lo, hi)` of `file`.
fn parse_items(
    file: &FileIr,
    lo: usize,
    hi: usize,
    ctx: &Ctx,
    fns: &mut Vec<Function>,
    structs: &mut Vec<StructDef>,
) {
    let mut pending = Pending::default();
    let mut i = lo;
    while i < hi {
        let t = file.text(i);
        match t {
            "#" => {
                // `#[attr]` binds to the next item; `#![attr]` is an
                // inner attribute and binds to nothing here.
                let inner = i + 1 < hi && file.text(i + 1) == "!";
                let open = if inner { i + 2 } else { i + 1 };
                if open < hi && file.text(open) == "[" {
                    let (attr, end) = join_group(file, open, hi, "[", "]");
                    if !inner {
                        if attr.contains("press::hot_path") || attr == "hot_path" {
                            pending.hot_path = true;
                        }
                        if attr == "test" || attr.contains("cfg(test)") {
                            pending.test = true;
                        }
                        if attr.contains("cfg(test)") {
                            pending.cfg_test = true;
                        }
                    }
                    i = end + 1;
                } else {
                    i += 1;
                }
            }
            "pub" => {
                i += 1;
                if i < hi && file.text(i) == "(" {
                    i = skip_group(file, i, hi, "(", ")") + 1;
                }
            }
            "unsafe" => {
                pending.is_unsafe = true;
                i += 1;
            }
            "async" => i += 1,
            "extern" => {
                i += 1;
                if i < hi && file.kind(i) == TokKind::Str {
                    i += 1;
                }
            }
            "const" => {
                if i + 1 < hi && file.text(i + 1) == "fn" {
                    i += 1; // prefix of a const fn
                } else {
                    i = skip_to_semi(file, i, hi);
                    pending = Pending::default();
                }
            }
            "fn" => {
                i = parse_fn(file, i, hi, ctx, &pending, fns, structs);
                pending = Pending::default();
            }
            "struct" | "union" => {
                i = parse_struct(file, i, hi, structs);
                pending = Pending::default();
            }
            "enum" => {
                i = skip_named_braces(file, i, hi);
                pending = Pending::default();
            }
            "trait" => {
                let name = file.text(i + 1).to_string();
                let mut j = i + 2;
                while j < hi && file.text(j) != "{" && file.text(j) != ";" {
                    j += 1;
                }
                if j < hi && file.text(j) == "{" {
                    let close = skip_group(file, j, hi, "{", "}");
                    let sub = Ctx {
                        owner: Some(name),
                        ..ctx.clone()
                    };
                    parse_items(file, j + 1, close, &sub, fns, structs);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending = Pending::default();
            }
            "impl" => {
                let mut j = i + 1;
                if j < hi && file.text(j) == "<" {
                    j = skip_angles(file, j, hi) + 1;
                }
                // Type path until `{` or `for`; on `for`, the real
                // subject follows.
                let mut last_ident = None;
                while j < hi {
                    let tj = file.text(j);
                    if tj == "{" {
                        break;
                    }
                    if tj == "for" {
                        last_ident = None;
                        j += 1;
                        continue;
                    }
                    if tj == "<" {
                        j = skip_angles(file, j, hi) + 1;
                        continue;
                    }
                    if tj == "where" {
                        // Bounds may mention types; the subject is fixed.
                        while j < hi && file.text(j) != "{" {
                            if file.text(j) == "<" {
                                j = skip_angles(file, j, hi);
                            }
                            j += 1;
                        }
                        break;
                    }
                    if file.kind(j) == TokKind::Ident && tj != "dyn" && tj != "mut" {
                        last_ident = Some(tj.to_string());
                    }
                    j += 1;
                }
                if j < hi && file.text(j) == "{" {
                    let close = skip_group(file, j, hi, "{", "}");
                    let sub = Ctx {
                        owner: last_ident,
                        in_test: ctx.in_test || pending.cfg_test,
                        ..ctx.clone()
                    };
                    parse_items(file, j + 1, close, &sub, fns, structs);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending = Pending::default();
            }
            "mod" => {
                let name = file.text(i + 1).to_string();
                let mut j = i + 2;
                while j < hi && file.text(j) != "{" && file.text(j) != ";" {
                    j += 1;
                }
                if j < hi && file.text(j) == "{" {
                    let close = skip_group(file, j, hi, "{", "}");
                    let mut mods = ctx.mods.clone();
                    mods.push(name);
                    let sub = Ctx {
                        mods,
                        owner: None,
                        in_test: ctx.in_test || pending.cfg_test,
                    };
                    parse_items(file, j + 1, close, &sub, fns, structs);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending = Pending::default();
            }
            "use" | "static" | "type" => {
                i = skip_to_semi(file, i, hi);
                pending = Pending::default();
            }
            "macro_rules" => {
                i = skip_named_braces(file, i, hi);
                pending = Pending::default();
            }
            "{" => i = skip_group(file, i, hi, "{", "}") + 1,
            _ => i += 1,
        }
    }
}

/// Parses a `fn` item at sig-index `i` (pointing at `fn`); returns the
/// index just past the item.
fn parse_fn(
    file: &FileIr,
    i: usize,
    hi: usize,
    ctx: &Ctx,
    pending: &Pending,
    fns: &mut Vec<Function>,
    structs: &mut Vec<StructDef>,
) -> usize {
    let name = file.text(i + 1).to_string();
    let sig_line = file.line(i);
    let mut j = i + 2;
    if j < hi && file.text(j) == "<" {
        j = skip_angles(file, j, hi) + 1;
    }
    if j < hi && file.text(j) == "(" {
        j = skip_group(file, j, hi, "(", ")") + 1;
    }
    // Return type / where clause: scan to the body `{` or a `;` at
    // group depth zero (angles can't contain either here).
    let mut depth = 0i32;
    while j < hi {
        match file.text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break,
            ";" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let mut qual_parts: Vec<&str> = vec![file.crate_name.as_str()];
    for m in &ctx.mods {
        qual_parts.push(m);
    }
    if let Some(o) = &ctx.owner {
        qual_parts.push(o);
    }
    qual_parts.push(&name);
    let qual = qual_parts.join("::");

    let mut f = Function {
        file: 0, // patched by the caller
        owner: ctx.owner.clone(),
        name,
        qual,
        sig_line,
        end_line: sig_line,
        sig: (i, j),
        body: None,
        nested: Vec::new(),
        attrs: FnAttrs {
            hot_path: pending.hot_path,
            test: pending.test,
            is_unsafe: pending.is_unsafe,
        },
        in_test: ctx.in_test || pending.test,
    };
    if j < hi && file.text(j) == "{" {
        let close = skip_group(file, j, hi, "{", "}");
        f.body = Some((j, close));
        f.end_line = file.line(close.min(hi.saturating_sub(1)));
        // Nested items (fns inside fns, test mods inside fns).
        let before = fns.len();
        let sub = Ctx {
            owner: None,
            ..ctx.clone()
        };
        parse_items(file, j + 1, close, &sub, fns, structs);
        let nested: Vec<(usize, usize)> = fns[before..].iter().filter_map(|c| c.body).collect();
        f.nested = nested;
        fns.push(f);
        close + 1
    } else {
        fns.push(f);
        j + 1
    }
}

/// Parses a struct/union definition, recording named fields.
fn parse_struct(file: &FileIr, i: usize, hi: usize, structs: &mut Vec<StructDef>) -> usize {
    let name = file.text(i + 1).to_string();
    let mut j = i + 2;
    if j < hi && file.text(j) == "<" {
        j = skip_angles(file, j, hi) + 1;
    }
    while j < hi && !matches!(file.text(j), "{" | "(" | ";") {
        if file.text(j) == "<" {
            j = skip_angles(file, j, hi);
        }
        j += 1;
    }
    if j >= hi {
        return hi;
    }
    match file.text(j) {
        ";" => {
            structs.push(StructDef {
                name,
                fields: Vec::new(),
            });
            j + 1
        }
        "(" => {
            let close = skip_group(file, j, hi, "(", ")");
            structs.push(StructDef {
                name,
                fields: Vec::new(),
            });
            close + 1
        }
        "{" => {
            let close = skip_group(file, j, hi, "{", "}");
            let mut fields = Vec::new();
            let mut k = j + 1;
            while k < close {
                // Skip attributes and visibility on the field.
                match file.text(k) {
                    "#" => {
                        if k + 1 < close && file.text(k + 1) == "[" {
                            k = skip_group(file, k + 1, close, "[", "]") + 1;
                        } else {
                            k += 1;
                        }
                        continue;
                    }
                    "pub" => {
                        k += 1;
                        if k < close && file.text(k) == "(" {
                            k = skip_group(file, k, close, "(", ")") + 1;
                        }
                        continue;
                    }
                    _ => {}
                }
                if file.kind(k) == TokKind::Ident && k + 1 < close && file.text(k + 1) == ":" {
                    let fname = file.text(k).to_string();
                    let (ty, next) = field_type(file, k + 2, close);
                    let head = head_type(&ty);
                    fields.push(Field {
                        name: fname,
                        type_text: ty,
                        head,
                    });
                    k = next;
                } else {
                    k += 1;
                }
            }
            structs.push(StructDef { name, fields });
            close + 1
        }
        _ => j + 1,
    }
}

/// Collects a field's type text from `k` to the `,` (or close) at field
/// depth; returns (joined type, index past the separator).
fn field_type(file: &FileIr, k: usize, close: usize) -> (String, usize) {
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
                // `->` in fn-pointer types doesn't close an angle.
                if j > k && matches!(file.text(j - 1), "-" | "=") {
                    out.push_str(t);
                    j += 1;
                    continue;
                }
                depth -= 1;
            }
            "," if depth == 0 => return (out, j + 1),
            _ => {}
        }
        // Keep word tokens separated (`&mut Mutex`, not `&mutMutex`).
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

/// The head identifier of a type with wrappers stripped: references,
/// `mut`, lifetimes, and one layer of `Arc`/`Box`/`Rc`/`Option` at a
/// time (`Arc<RwLock<V>>` → `RwLock`).
pub fn head_type(type_text: &str) -> String {
    let mut t = type_text;
    loop {
        t = t.trim_start();
        while let Some(rest) = t.strip_prefix('&') {
            t = rest.trim_start();
        }
        if let Some(rest) = t.strip_prefix("mut") {
            if !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                t = rest;
                continue;
            }
        }
        if let Some(rest) = t.strip_prefix('\'') {
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            t = &rest[end..];
            continue;
        }
        let ident_end = t
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(t.len());
        let head = &t[..ident_end];
        if matches!(head, "Arc" | "Box" | "Rc" | "Option") && t[ident_end..].starts_with('<') {
            t = &t[ident_end + 1..];
            continue;
        }
        return head.to_string();
    }
}

/// Joins the group opened at sig-index `open` (text and end index).
fn join_group(file: &FileIr, open: usize, hi: usize, o: &str, c: &str) -> (String, usize) {
    let mut depth = 0usize;
    let mut out = String::new();
    let mut j = open;
    while j < hi {
        let t = file.text(j);
        if t == o {
            depth += 1;
            if depth == 1 {
                j += 1;
                continue;
            }
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return (out, j);
            }
        }
        out.push_str(t);
        j += 1;
    }
    (out, hi.saturating_sub(1))
}

/// Index of the token closing the group opened at `open`.
fn skip_group(file: &FileIr, open: usize, hi: usize, o: &str, c: &str) -> usize {
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
    hi.saturating_sub(1)
}

/// Index of the `>` closing the `<` at `open` (arrow-aware).
fn skip_angles(file: &FileIr, open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < hi {
        match file.text(j) {
            "<" => depth += 1,
            ">" => {
                if j > open && matches!(file.text(j - 1), "-" | "=") {
                    j += 1;
                    continue;
                }
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            "(" => j = skip_group(file, j, hi, "(", ")"),
            _ => {}
        }
        j += 1;
    }
    hi.saturating_sub(1)
}

/// Index just past the `;` ending the item at `i` (group-aware).
fn skip_to_semi(file: &FileIr, i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < hi {
        match file.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Skips `kw [!] name? { ... }` items (enums, macro_rules).
fn skip_named_braces(file: &FileIr, i: usize, hi: usize) -> usize {
    let mut j = i;
    while j < hi && file.text(j) != "{" {
        if file.text(j) == ";" {
            return j + 1;
        }
        j += 1;
    }
    if j < hi {
        skip_group(file, j, hi, "{", "}") + 1
    } else {
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(&[SourceFile {
            path: "crates/via/src/fixture.rs".into(),
            content: src.into(),
        }])
    }

    #[test]
    fn functions_with_owners_and_attrs() {
        let src = "\
struct Ring { slots: Vec<u8>, head: usize }
impl Ring {
    #[press::hot_path]
    pub fn push(&self, x: u8) -> bool { self.grow(); true }
    fn grow(&self) {}
}
fn free_fn() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        let w = ws(src);
        let names: Vec<(&str, Option<&str>, bool, bool)> = w
            .functions
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.owner.as_deref(),
                    f.attrs.hot_path,
                    f.in_test,
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("push", Some("Ring"), true, false),
                ("grow", Some("Ring"), false, false),
                ("free_fn", None, false, false),
                ("t", None, false, true),
            ]
        );
        assert_eq!(w.functions[0].qual, "via::fixture::Ring::push");
        let ring = &w.structs["Ring"];
        assert_eq!(ring.fields.len(), 2);
        assert_eq!(ring.fields[0].head, "Vec");
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let w = ws("struct S; impl From<u8> for S { fn from(_x: u8) -> S { S } }");
        assert_eq!(w.functions[0].owner.as_deref(), Some("S"));
        assert_eq!(w.functions[0].name, "from");
    }

    #[test]
    fn wrapped_field_types_strip_to_the_lock() {
        assert_eq!(head_type("Arc<RwLock<Vec<u8>>>"), "RwLock");
        assert_eq!(head_type("&mut Mutex<(A,B)>"), "Mutex");
        assert_eq!(head_type("Option<Arc<ViShared>>"), "ViShared");
        assert_eq!(head_type("&'a str"), "str");
    }

    #[test]
    fn nested_fns_are_recorded_and_excluded() {
        let src = "fn outer() { fn inner() { x.lock(); } inner(); }";
        let w = ws(src);
        let outer = w.functions.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.nested.len(), 1);
        assert!(w.functions.iter().any(|f| f.name == "inner"));
    }

    #[test]
    fn bodies_with_literal_braces_close_correctly() {
        let src = "fn a() { let _s = \"}\"; let _c = '}'; } fn b() {}";
        let w = ws(src);
        assert_eq!(w.functions.len(), 2);
        assert_eq!(w.functions[0].name, "a");
        assert_eq!(w.functions[1].name, "b");
    }

    #[test]
    fn fn_at_maps_lines_to_functions() {
        let src = "fn a() {\n  x();\n}\nfn b() {\n  y();\n}\n";
        let w = ws(src);
        assert_eq!(w.functions[w.fn_at(0, 2).unwrap()].name, "a");
        assert_eq!(w.functions[w.fn_at(0, 5).unwrap()].name, "b");
    }
}

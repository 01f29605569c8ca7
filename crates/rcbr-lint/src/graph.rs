//! The workspace call graph: a per-crate function table plus resolved
//! call edges, built on [`crate::lexer::fn_spans`].
//!
//! This is the symbol layer under the cross-function passes
//! ([`crate::taint`], `phase-discipline`): line-local
//! token rules see one file at a time, but the hazards that survived to
//! PR 7 (the fuzzer's two real finds) were *interactions* — a helper two
//! hops away reading a clock, a mutator reachable from outside the
//! quiescence window. The graph makes those chains auditable.
//!
//! Name resolution is a deliberate heuristic, not rustc:
//!
//! * `Type::name(...)` and `Self::name(...)` resolve **only** through the
//!   impl/trait table — an unknown type (std's `Vec::new`,
//!   `Barrier::new`) resolves to nothing rather than to every `new` in
//!   the workspace;
//! * `.name(...)` method calls resolve to every known method of that
//!   name, same-crate candidates first (falling back to cross-crate only
//!   when the caller's crate has none) — an over-approximation, which is
//!   the safe direction for taint;
//! * bare `name(...)` calls resolve to free functions the same way;
//! * functions in binary targets (`src/bin/`, `src/main.rs`) are only
//!   callable from their own file — no other crate can link them;
//! * test functions (test targets and `#[cfg(test)]` regions) are
//!   excluded from the table entirely: the graph models production
//!   reachability.
//!
//! Everything is deterministic by construction: files are sorted by
//! path before ids are assigned, edges are sorted and deduplicated, and
//! no map with randomized iteration order is used anywhere.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::{fn_spans, TokKind, Token};
use crate::source::SourceFile;

/// One production function in the workspace.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range in the file's token stream (incl. braces).
    pub body_start: usize,
    pub body_end: usize,
    /// Lives in a binary target: callable only within its own file.
    pub is_bin: bool,
}

impl FnInfo {
    /// `Owner::name` for methods, `name` for free functions.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call site: `caller` invokes `callee` at `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallEdge {
    pub caller: usize,
    pub callee: usize,
    pub line: u32,
}

/// The whole-workspace symbol table and call graph.
#[derive(Debug)]
pub struct Workspace {
    /// Every scanned file, sorted by `rel_path` (ids below index into
    /// this order, so the graph is independent of discovery order).
    pub files: Vec<SourceFile>,
    /// Production functions of graph-eligible files, in (file, span)
    /// order.
    pub fns: Vec<FnInfo>,
    /// Resolved call edges, sorted by `(caller, line, callee)`, deduped.
    pub edges: Vec<CallEdge>,
    /// Call sites whose name resolved to no known function (std calls,
    /// constructors); kept for `--stats` plausibility checks.
    pub unresolved_calls: usize,
    /// Reverse adjacency: `callers[f]` lists `(caller, line)` pairs.
    callers: Vec<Vec<(usize, u32)>>,
    /// Function ids per file, for innermost-enclosing lookup.
    fns_by_file: Vec<Vec<usize>>,
}

/// Identifiers that look like calls but never are (keywords, the enum
/// constructors std injects into every scope).
const NON_CALL_IDENTS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "union", "unsafe", "use", "where",
    "while", "yield", "Some", "None", "Ok", "Err",
];

impl Workspace {
    /// Build the table and graph over `files`. Crates listed in
    /// `[graph] exclude_crates` (vendored shims) contribute no
    /// functions; their files are still carried for per-file rules.
    pub fn build(mut files: Vec<SourceFile>, cfg: &Config) -> Self {
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let excluded = cfg.list("graph", "exclude_crates");

        // Pass 1: the function table.
        let mut fns: Vec<FnInfo> = Vec::new();
        let mut fns_by_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for (fi, file) in files.iter().enumerate() {
            if excluded.iter().any(|c| c == &file.crate_name) {
                continue;
            }
            let impls = impl_spans(&file.tokens);
            let is_bin = file.rel_path.contains("/bin/") || file.rel_path.ends_with("src/main.rs");
            for span in fn_spans(&file.tokens) {
                let line = file.tokens[span.fn_tok].line;
                if file.is_test_at(line) {
                    continue;
                }
                let owner = impls
                    .iter()
                    .filter(|(_, s, e)| *s <= span.fn_tok && span.fn_tok < *e)
                    .min_by_key(|(_, s, e)| e - s)
                    .map(|(name, _, _)| name.clone());
                fns_by_file[fi].push(fns.len());
                fns.push(FnInfo {
                    file: fi,
                    name: span.name,
                    owner,
                    line,
                    body_start: span.body_start,
                    body_end: span.body_end,
                    is_bin,
                });
            }
        }

        // Resolution tables (candidate lists are in fn-id order, so every
        // lookup below is deterministic).
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            match &f.owner {
                Some(owner) => {
                    methods_by_name.entry(&f.name).or_default().push(id);
                    by_owner
                        .entry((owner.as_str(), f.name.as_str()))
                        .or_default()
                        .push(id);
                }
                None => free_by_name.entry(&f.name).or_default().push(id),
            }
        }

        // Pass 2: call sites and edges.
        let mut edges: Vec<CallEdge> = Vec::new();
        let mut unresolved = 0usize;
        for (fi, file) in files.iter().enumerate() {
            if fns_by_file[fi].is_empty() {
                continue;
            }
            let toks = &file.tokens;
            for i in 0..toks.len() {
                if toks[i].kind != TokKind::Ident
                    || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    || NON_CALL_IDENTS.contains(&toks[i].text.as_str())
                    || (i > 0 && toks[i - 1].is_ident("fn"))
                {
                    continue;
                }
                let Some(&caller) = fns_by_file[fi]
                    .iter()
                    .filter(|&&id| fns[id].body_start <= i && i < fns[id].body_end)
                    .min_by_key(|&&id| fns[id].body_end - fns[id].body_start)
                else {
                    continue; // top-level const expression or test code
                };
                let name = toks[i].text.as_str();
                let qualified = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
                let candidates: &[usize] = if qualified {
                    let qualifier = toks
                        .get(i.wrapping_sub(3))
                        .filter(|t| t.kind == TokKind::Ident);
                    match qualifier {
                        Some(q) if q.text == "Self" => fns[caller]
                            .owner
                            .as_deref()
                            .and_then(|o| by_owner.get(&(o, name)))
                            .map(Vec::as_slice)
                            .unwrap_or(&[]),
                        Some(q) if q.text.starts_with(char::is_uppercase) => by_owner
                            .get(&(q.text.as_str(), name))
                            .map(Vec::as_slice)
                            .unwrap_or(&[]),
                        // Lowercase qualifier: a module path to a free fn.
                        _ => free_by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
                    }
                } else if i > 0 && toks[i - 1].is_punct('.') {
                    methods_by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
                } else {
                    free_by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
                };
                // Binary-target functions are invisible outside their file;
                // everything else prefers the nearest scope: same file,
                // then same crate, then anywhere.
                let visible: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| !fns[id].is_bin || fns[id].file == fi)
                    .collect();
                let same_file: Vec<usize> = visible
                    .iter()
                    .copied()
                    .filter(|&id| fns[id].file == fi)
                    .collect();
                let same_crate: Vec<usize> = visible
                    .iter()
                    .copied()
                    .filter(|&id| files[fns[id].file].crate_name == file.crate_name)
                    .collect();
                let resolved = if !same_file.is_empty() {
                    &same_file
                } else if !same_crate.is_empty() {
                    &same_crate
                } else {
                    &visible
                };
                if resolved.is_empty() {
                    unresolved += 1;
                    continue;
                }
                for &callee in resolved {
                    edges.push(CallEdge {
                        caller,
                        callee,
                        line: toks[i].line,
                    });
                }
            }
        }
        edges.sort_by_key(|e| (e.caller, e.line, e.callee));
        edges.dedup();

        let mut callers: Vec<Vec<(usize, u32)>> = vec![Vec::new(); fns.len()];
        for e in &edges {
            callers[e.callee].push((e.caller, e.line));
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }

        Self {
            files,
            fns,
            edges,
            unresolved_calls: unresolved,
            callers,
            fns_by_file,
        }
    }

    /// `(caller, line)` pairs that invoke `fn_id`, sorted.
    pub fn callers_of(&self, fn_id: usize) -> &[(usize, u32)] {
        &self.callers[fn_id]
    }

    /// The innermost production function of `file_idx` whose body
    /// contains token index `tok`.
    pub fn enclosing(&self, file_idx: usize, tok: usize) -> Option<usize> {
        self.fns_by_file[file_idx]
            .iter()
            .copied()
            .filter(|&id| self.fns[id].body_start <= tok && tok < self.fns[id].body_end)
            .min_by_key(|&id| self.fns[id].body_end - self.fns[id].body_start)
    }

    /// Function ids defined in `file_idx`, in span order.
    pub fn fns_in_file(&self, file_idx: usize) -> &[usize] {
        &self.fns_by_file[file_idx]
    }

    /// `path:line Owner::name` — the anchor used in chain diagnostics.
    pub fn locate(&self, fn_id: usize) -> String {
        let f = &self.fns[fn_id];
        format!("{}:{} {}", self.files[f.file].rel_path, f.line, f.display())
    }

    /// The deterministic `--graph` debug dump: every function in id
    /// order with its outgoing edges.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# rcbr-lint call graph: {} function(s), {} edge(s), {} unresolved call(s)",
            self.fns.len(),
            self.edges.len(),
            self.unresolved_calls
        );
        let mut at = 0usize;
        for (id, f) in self.fns.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}:{} {}",
                self.files[f.file].rel_path,
                f.line,
                f.display()
            );
            while at < self.edges.len() && self.edges[at].caller == id {
                let e = &self.edges[at];
                let _ = writeln!(out, "  -> {} (line {})", self.locate(e.callee), e.line);
                at += 1;
            }
        }
        out
    }
}

/// `impl`/`trait` block spans: `(type name, body_start, body_end)` in
/// token indices. The type of `impl Trait for Type` is `Type`; generics,
/// paths, and `where` clauses are skipped.
fn impl_spans(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_impl = tokens[i].is_ident("impl");
        let is_trait = tokens[i].is_ident("trait");
        if !is_impl && !is_trait {
            i += 1;
            continue;
        }
        let mut angle = 0i64;
        let mut nest = 0i64;
        let mut for_at: Option<usize> = None;
        let mut where_at: Option<usize> = None;
        let mut open = None;
        let mut j = i + 1;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if t.is_punct('(') || t.is_punct('[') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                nest -= 1;
            } else if angle == 0 && nest == 0 {
                if t.is_ident("for") {
                    for_at = Some(j);
                } else if t.is_ident("where") && where_at.is_none() {
                    where_at = Some(j);
                } else if t.is_punct('{') {
                    open = Some(j);
                    break;
                } else if t.is_punct(';') {
                    break;
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        // The self-type segment: after `for` if present, else after the
        // keyword; truncated at any `where` clause.
        let seg_start = for_at.map(|f| f + 1).unwrap_or(i + 1);
        let seg_end = where_at.filter(|w| *w > seg_start).unwrap_or(open);
        let name = if is_trait {
            tokens
                .get(i + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
        } else {
            let mut angle = 0i64;
            let mut last = None;
            for t in &tokens[seg_start..seg_end] {
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle = (angle - 1).max(0);
                } else if angle == 0 && t.kind == TokKind::Ident {
                    last = Some(t.text.clone());
                }
            }
            last
        };
        // Brace-match the body.
        let mut depth = 0i64;
        let mut k = open;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                depth += 1;
            } else if tokens[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        if let Some(name) = name {
            out.push((name, open, (k + 1).min(tokens.len())));
        }
        i = open + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(path, src)| SourceFile::new(*path, "rcbr-runtime", false, src))
            .collect();
        Workspace::build(files, &Config::parse("").unwrap())
    }

    fn edge_names(ws: &Workspace) -> Vec<(String, String)> {
        ws.edges
            .iter()
            .map(|e| (ws.fns[e.caller].display(), ws.fns[e.callee].display()))
            .collect()
    }

    #[test]
    fn free_fn_and_method_edges_resolve() {
        let ws = ws(&[(
            "crates/rcbr-runtime/src/a.rs",
            "struct S;\n\
             impl S {\n    fn step(&self) { helper(); }\n}\n\
             fn helper() {}\n\
             fn run(s: &S) { s.step(); }\n",
        )]);
        let edges = edge_names(&ws);
        assert!(edges.contains(&("S::step".into(), "helper".into())));
        assert!(edges.contains(&("run".into(), "S::step".into())));
    }

    #[test]
    fn qualified_calls_resolve_through_impl_table_only() {
        let ws = ws(&[(
            "crates/rcbr-runtime/src/a.rs",
            "struct S;\n\
             impl S {\n    fn new() -> S { S }\n}\n\
             fn a() { let _ = S::new(); }\n\
             fn b() { let _ = Vec::<u8>::with_capacity(4); let _ = String::new(); }\n",
        )]);
        let edges = edge_names(&ws);
        assert!(edges.contains(&("a".into(), "S::new".into())));
        // `String::new` must NOT fall back to S::new by bare name.
        assert!(!edges.contains(&("b".into(), "S::new".into())));
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let ws = ws(&[(
            "crates/rcbr-runtime/src/a.rs",
            "trait T { }\nstruct S;\n\
             impl T for S {\n    fn go(&self) { helper(); }\n}\n\
             fn helper() {}\n",
        )]);
        assert!(edge_names(&ws).contains(&("S::go".into(), "helper".into())));
    }

    #[test]
    fn test_regions_and_bin_targets_are_scoped_out() {
        let ws = ws(&[
            (
                "crates/rcbr-runtime/src/a.rs",
                "fn prod() { helper(); }\nfn helper() {}\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n",
            ),
            (
                "crates/rcbr-runtime/src/bin/tool.rs",
                "fn helper() {}\nfn main() { helper(); }\n",
            ),
        ]);
        // The test fn contributes neither a node nor an edge.
        assert!(ws.fns.iter().all(|f| f.name != "t"));
        // Both `helper`s exist, but a.rs's call resolves only to its own
        // crate-visible helper, never the binary's.
        let hits: Vec<_> = edge_names(&ws)
            .into_iter()
            .filter(|(c, _)| c == "prod" || c == "main")
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn build_is_order_independent() {
        let a = ("crates/rcbr-runtime/src/a.rs", "fn one() { two(); }\n");
        let b = ("crates/rcbr-runtime/src/b.rs", "fn two() {}\n");
        let x = ws(&[a, b]);
        let y = ws(&[b, a]);
        assert_eq!(x.dump(), y.dump());
    }
}

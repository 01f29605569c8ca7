//! Transitive nondeterminism taint over the call graph.
//!
//! The line-local rules (`wall-clock`, `unordered-iter`, `ptr-identity`)
//! flag the *source line* of a hazard. This pass flags everything that
//! can **reach** one: each seed taints its enclosing function, taint
//! propagates caller-ward along [`crate::graph::Workspace`] edges, and
//! every in-scope call site whose callee is tainted gets a diagnostic
//! carrying the full chain down to the seed
//! (`round_top → helper → Instant::now`).
//!
//! Propagation stops at **sanctioned boundaries**:
//!
//! * functions whose name starts with a `[taint] boundary_fn_prefixes`
//!   prefix (`snapshot*` barrier reads, `reduce_*` ordered reductions);
//! * functions in a seed rule's `allow_files` (the `WallTimer` file for
//!   `wall-clock`) — the audited escape hatches stay escape hatches at
//!   any call depth.
//!
//! Diagnostics are emitted under the *seeding rule's* id, so the scoping
//! (`crates`, `allow_files`) and `lint:allow` machinery users already
//! know keeps working; a chain into a tainted helper from an unscoped
//! crate (the bench binaries) is tracked but not flagged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::Workspace;
use crate::lexer::{TokKind, Token};
use crate::rules::{rule_by_id, rule_in_scope};

/// Seed-detection outcome for the report's graph stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaintSummary {
    /// Nondeterminism source sites found in production functions.
    pub seeds: usize,
    /// Functions carrying taint (seeds plus transitive callers, minus
    /// sanctioned boundaries), across all categories.
    pub tainted: usize,
}

/// One nondeterminism source site.
struct Seed {
    fn_id: usize,
    rule: &'static str,
    /// What the chain terminates in (`Instant::now`, `HashMap`, …).
    label: &'static str,
}

/// How a function became tainted: through which callee (None = it holds
/// the seed itself), ending in which source label.
#[derive(Clone)]
struct Trace {
    via: Option<usize>,
    label: &'static str,
}

/// Run the taint pass, appending diagnostics to `out`. Returns the
/// summary plus per-rule `lint:allow` suppression counts.
pub fn check(
    ws: &Workspace,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> (TaintSummary, BTreeMap<&'static str, usize>) {
    let prefixes = {
        let p = cfg.list("taint", "boundary_fn_prefixes");
        if p.is_empty() {
            vec!["snapshot".to_string(), "reduce_".to_string()]
        } else {
            p
        }
    };
    let seeds = find_seeds(ws);
    let mut suppressed: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut tainted_union: BTreeSet<usize> = BTreeSet::new();

    let categories: BTreeSet<&'static str> = seeds.iter().map(|s| s.rule).collect();
    for rule_id in categories {
        let Some(rule) = rule_by_id(rule_id) else {
            continue;
        };
        let allow = cfg.list(&format!("rule.{rule_id}"), "allow_files");
        let boundary = |fn_id: usize| -> bool {
            let f = &ws.fns[fn_id];
            prefixes.iter().any(|p| f.name.starts_with(p.as_str()))
                || allow
                    .iter()
                    .any(|a| path_matches(&ws.files[f.file].rel_path, a))
        };

        // BFS caller-ward from the seeds; first (shortest) trace wins,
        // ties resolved by sorted seed/caller order.
        let mut tainted: BTreeMap<usize, Trace> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for s in seeds.iter().filter(|s| s.rule == rule_id) {
            if !boundary(s.fn_id) && !tainted.contains_key(&s.fn_id) {
                tainted.insert(
                    s.fn_id,
                    Trace {
                        via: None,
                        label: s.label,
                    },
                );
                queue.push_back(s.fn_id);
            }
        }
        while let Some(t) = queue.pop_front() {
            let label = tainted[&t].label;
            for &(caller, _) in ws.callers_of(t) {
                if tainted.contains_key(&caller) || boundary(caller) {
                    continue;
                }
                tainted.insert(
                    caller,
                    Trace {
                        via: Some(t),
                        label,
                    },
                );
                queue.push_back(caller);
            }
        }
        tainted_union.extend(tainted.keys().copied());

        // Flag every in-scope call site into tainted territory.
        let mut emitted: BTreeSet<(usize, u32, usize)> = BTreeSet::new();
        for e in &ws.edges {
            let Some(trace_head) = tainted.get(&e.callee) else {
                continue;
            };
            let caller = &ws.fns[e.caller];
            let file = &ws.files[caller.file];
            if boundary(e.caller) || !rule_in_scope(rule, file, cfg) {
                continue;
            }
            if !emitted.insert((caller.file, e.line, e.callee)) {
                continue;
            }
            if file.is_suppressed(rule_id, e.line) {
                *suppressed.entry(rule_id).or_insert(0) += 1;
                continue;
            }
            let chain = render_chain(ws, &tainted, e.caller, e.callee, trace_head.label);
            out.push(Diagnostic {
                rule: rule_id.to_string(),
                path: file.rel_path.clone(),
                line: e.line,
                message: format!(
                    "call chain reaches {}: {chain} — every function on this chain \
                     inherits the nondeterminism; route it through a sanctioned \
                     boundary (snapshot_*/reduce_*/the rule's allow_files) or derive \
                     the value from deterministic state",
                    trace_head.label
                ),
                snippet: file.snippet(e.line),
            });
        }
    }

    (
        TaintSummary {
            seeds: seeds.len(),
            tainted: tainted_union.len(),
        },
        suppressed,
    )
}

/// `caller → callee → … → seed-label`.
fn render_chain(
    ws: &Workspace,
    tainted: &BTreeMap<usize, Trace>,
    caller: usize,
    callee: usize,
    label: &str,
) -> String {
    let mut names = vec![ws.fns[caller].display(), ws.fns[callee].display()];
    let mut at = callee;
    while let Some(next) = tainted.get(&at).and_then(|t| t.via) {
        names.push(ws.fns[next].display());
        at = next;
    }
    names.push(label.to_string());
    names.join(" → ")
}

/// Scan every production function for the nondeterminism sources the
/// line-local rules define (the patterns must stay in lockstep with
/// `rules/wall_clock.rs`, `rules/unordered_iter.rs`,
/// `rules/ptr_identity.rs`).
fn find_seeds(ws: &Workspace) -> Vec<Seed> {
    let mut seeds = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if ws.fns_in_file(fi).is_empty() {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let hit: Option<(&'static str, &'static str)> = seed_at(toks, i);
            let Some((rule, label)) = hit else { continue };
            let Some(fn_id) = ws.enclosing(fi, i) else {
                continue;
            };
            // One seed per (fn, rule, label) is enough to taint it.
            if !seeds
                .iter()
                .any(|s: &Seed| s.fn_id == fn_id && s.rule == rule && s.label == label)
            {
                seeds.push(Seed { fn_id, rule, label });
            }
        }
    }
    seeds
}

/// Is token `i` the head of a nondeterminism-source pattern?
fn seed_at(toks: &[Token], i: usize) -> Option<(&'static str, &'static str)> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        // `as *const` / `as *mut` pointer casts.
        if t.is_punct('*')
            && i > 0
            && toks[i - 1].is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_ident("const") || n.is_ident("mut"))
        {
            return Some(("ptr-identity", "as *const"));
        }
        return None;
    }
    let follows_path = |name: &str| {
        toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident(name))
    };
    match t.text.as_str() {
        "Instant" if follows_path("now") => Some(("wall-clock", "Instant::now")),
        "SystemTime" => Some(("wall-clock", "SystemTime")),
        "thread_rng" | "ThreadRng" => Some(("wall-clock", "thread_rng")),
        "rand" if follows_path("random") => Some(("wall-clock", "rand::random")),
        "HashMap" => Some(("unordered-iter", "HashMap")),
        "HashSet" => Some(("unordered-iter", "HashSet")),
        "ptr" if follows_path("eq") => Some(("ptr-identity", "ptr::eq")),
        _ => None,
    }
}

/// Component-aligned path-suffix match (same semantics as rule scoping).
fn path_matches(rel_path: &str, entry: &str) -> bool {
    rel_path == entry
        || rel_path
            .strip_suffix(entry)
            .is_some_and(|prefix| prefix.ends_with('/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn analyze(sources: &[(&str, &str)], cfg: &str) -> Vec<Diagnostic> {
        let files = sources
            .iter()
            .map(|(p, s)| SourceFile::new(*p, "rcbr-runtime", false, s))
            .collect();
        let cfg = Config::parse(cfg).unwrap();
        let ws = Workspace::build(files, &cfg);
        let mut out = Vec::new();
        check(&ws, &cfg, &mut out);
        out
    }

    #[test]
    fn two_hop_chain_is_flagged_with_full_chain() {
        let diags = analyze(
            &[
                (
                    "crates/rcbr-runtime/src/engine.rs",
                    "pub fn drive() { mid(); }\n",
                ),
                (
                    "crates/rcbr-runtime/src/mid.rs",
                    "pub fn mid() { deep(); }\n",
                ),
                (
                    "crates/rcbr-runtime/src/deep.rs",
                    "pub fn deep() -> std::time::Instant { std::time::Instant::now() }\n",
                ),
            ],
            "",
        );
        let hit = diags
            .iter()
            .find(|d| d.path.ends_with("engine.rs"))
            .expect("engine call site flagged");
        assert!(
            hit.message.contains("drive → mid → deep → Instant::now"),
            "{}",
            hit.message
        );
    }

    #[test]
    fn boundaries_stop_propagation() {
        let diags = analyze(
            &[
                (
                    "crates/rcbr-runtime/src/engine.rs",
                    "pub fn drive() -> f64 { reduce_total() }\n",
                ),
                (
                    "crates/rcbr-runtime/src/mid.rs",
                    "pub fn reduce_total() -> f64 { wall() }\n",
                ),
                (
                    "crates/rcbr-runtime/src/wall.rs",
                    "pub fn wall() -> f64 { let _ = std::time::Instant::now(); 0.0 }\n",
                ),
            ],
            "",
        );
        assert!(
            diags.iter().all(|d| !d.path.ends_with("engine.rs")),
            "{diags:#?}"
        );
    }
}

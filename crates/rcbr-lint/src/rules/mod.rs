//! The rule registry.
//!
//! Every rule is one entry in [`RULES`]: an id, a one-line summary, the
//! hazard it encodes (shown by `lint --explain`), and a check function
//! over a lexed [`SourceFile`]. Adding a rule is ~30 lines: write the
//! check in a new module, append one entry here, scope it in `lint.toml`,
//! and add a tripping + near-miss fixture pair under `tests/fixtures/`.
//!
//! Shared scoping semantics (all driven by the rule's `[rule.<id>]`
//! section in `lint.toml`):
//!
//! * `enabled = false` turns the rule off;
//! * `crates = [...]` limits it to those crate directories (empty = all);
//! * `files = [...]` limits it to paths ending in one of the entries;
//! * `allow_files = [...]` exempts designated files (audited boundaries);
//! * `include_tests = true` extends it into test targets and
//!   `#[cfg(test)]` regions (default: production code only);
//! * `// lint:allow(<id>)` on or above a line silences one diagnostic.

mod barrier;
mod float_accum;
mod float_sort;
mod lease_units;
mod panic_path;
mod phase_discipline;
mod ptr_identity;
mod salt_disjointness;
mod salt_registry;
mod unordered_iter;
mod unsafe_audit;
mod wall_clock;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::Workspace;
use crate::source::SourceFile;

/// How a rule runs: over one file at a time, or once over the whole
/// workspace call graph.
pub enum Check {
    /// Per-file token scan (scoped by `crates`/`files`/`allow_files`).
    File(fn(&mut Ctx<'_>)),
    /// One whole-workspace pass over the [`Workspace`] call graph.
    Graph(fn(&mut GraphCtx<'_>)),
}

/// One static-analysis rule.
pub struct Rule {
    /// Stable identifier, used in diagnostics, `lint.toml` sections, and
    /// `lint:allow(...)` comments.
    pub id: &'static str,
    /// One-line summary for reports.
    pub summary: &'static str,
    /// The hazard this rule encodes and the sanctioned alternative —
    /// shown by `lint --explain <id>`.
    pub hazard: &'static str,
    /// The check itself.
    pub check: Check,
}

/// The registry. Order here is the order rules run and report in.
pub static RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        summary: "no wall-clock or ambient randomness in deterministic crates",
        hazard: "Instant::now/SystemTime/thread_rng make run outcomes depend on host \
                 timing, which breaks the bit-identical replay contract between the \
                 sharded and the sequential driver. Wall time may only be read through \
                 the audited WallTimer boundary (crates/rcbr-runtime/src/report.rs), \
                 which feeds throughput reporting and never simulation state.",
        check: Check::File(wall_clock::check),
    },
    Rule {
        id: "unordered-iter",
        summary: "no HashMap/HashSet in deterministic crates",
        hazard: "std HashMap/HashSet iteration order is randomized per process \
                 (RandomState), so any fold, serialization, or float accumulation over \
                 one diverges between runs and between shards. Use BTreeMap/BTreeSet, \
                 or a Vec with explicit sorting.",
        check: Check::File(unordered_iter::check),
    },
    Rule {
        id: "ptr-identity",
        summary: "no pointer-as-identity comparisons",
        hazard: "std::ptr::eq and `as *const/*mut` casts compare allocation addresses, \
                 which differ run to run and shard to shard; identity must come from \
                 stable ids (vci, seq, switch index).",
        check: Check::File(ptr_identity::check),
    },
    Rule {
        id: "barrier-discipline",
        summary: "shared-counter loads only inside snapshot_* helpers",
        hazard: "The PR 2 engine-drain deadlock: an atomic counter read that drives a \
                 driver's break/continue must be snapshotted between barriers where no \
                 shard can write — reading after the drain barrier races with the next \
                 round's phase-A timeout writes and deadlocks the barrier. All \
                 cross-shard counter loads therefore live in functions prefixed \
                 `snapshot`, whose call sites are auditable.",
        check: Check::File(barrier::check),
    },
    Rule {
        id: "panic-path",
        summary: "no unwrap/panic!/todo! in engine and worker code paths",
        hazard: "A panic in a worker thread poisons the barrier and hangs every other \
                 shard (scoped threads join at the end of `run`). Hot paths must use \
                 `expect(\"<invariant>\")` with a meaningful message for genuine \
                 invariants, or plumb a Result. Bare unwrap(), panic!, todo!, \
                 unimplemented!, empty-message expect, and unchecked indexing \
                 (get_unchecked) are banned; tests and benches are exempt.",
        check: Check::File(panic_path::check),
    },
    Rule {
        id: "unsafe-audit",
        summary: "unsafe is banned in product crates; shims need // SAFETY:",
        hazard: "The product crates target zero unsafe: every determinism argument in \
                 DESIGN.md assumes no UB-capable code path. In the vendored shim \
                 crates, each `unsafe` must carry a `// SAFETY:` comment within three \
                 lines above it explaining why the invariant holds.",
        check: Check::File(unsafe_audit::check),
    },
    Rule {
        id: "float-sort",
        summary: "float comparators must use total_cmp",
        hazard: "sort_by(partial_cmp) on f64 panics (or lies, via unwrap_or) on NaN \
                 and is not a total order, so sorted output — and everything downstream \
                 of it, like trellis survivor pruning — can differ between runs the \
                 moment a NaN or -0.0 appears. f64::total_cmp is total, deterministic, \
                 and free.",
        check: Check::File(float_sort::check),
    },
    Rule {
        id: "float-accum",
        summary: "cross-shard float accumulation only in reduce_* reducers",
        hazard: "Float addition is not associative: summing per-shard values in \
                 partition-dependent order changes low bits and breaks bit-identity. \
                 Reductions over merged shard data therefore live in functions prefixed \
                 `reduce_`, which document their input ordering; `.sum()` anywhere else \
                 in the runtime crate is a violation.",
        check: Check::File(float_accum::check),
    },
    Rule {
        id: "lease-units",
        summary: "lease/timeout durations flow through *_supersteps names, not raw literals",
        hazard: "Every duration in the runtime is a superstep count, and the survivable \
                 signaling plane (leases, retry backoff, reroute settle windows) is \
                 tuned by relating those counts to each other. A bare integer next to \
                 lease/timeout/deadline/backoff state hides the unit and goes silently \
                 stale when the superstep cadence changes. Durations therefore live in \
                 fields or consts named *_supersteps; pre-existing documented names are \
                 grandfathered via allow_idents in lint.toml.",
        check: Check::File(lease_units::check_durations),
    },
    Rule {
        id: "measurement-window",
        summary:
            "estimator window/decay cadences flow through *_supersteps names, not raw literals",
        hazard: "The live admission subsystem is deterministic only because every shard \
                 rolls its measurement windows at the same supersteps. A bare integer \
                 next to window/decay/ewma/horizon state hides that cadence and lets a \
                 local edit silently desynchronize the rolls (and thus the booking \
                 ceilings) across shard counts. Cadences therefore live in fields or \
                 consts named *_supersteps; audited names go in allow_idents.",
        check: Check::File(lease_units::check_cadences),
    },
    Rule {
        id: "salt-registry",
        summary: "fault-plane salts are named consts from the one registry module",
        hazard: "A job's salt feeds the fault plane's (seed, seq, hop, salt, lane) hash \
                 and breaks same-seq processing ties, so two cells sharing a (seq, salt) \
                 pair share fault coin flips and ordering — the PR 5 shard-identity \
                 regression was a teardown walk reusing slot traffic's salt space. Bare \
                 salt literals scattered across crates make that disjointness unauditable; \
                 every salt therefore lives as a named const in the single registry \
                 module configured as `registry` in lint.toml.",
        check: Check::File(salt_registry::check),
    },
    Rule {
        id: "phase-discipline",
        summary: "phase-locked state mutators reachable only from declared quiescence entry points",
        hazard: "Route/lease/admission state (RouteState transitions, lease sweeps, \
                 measurement-window rolls, booking-ceiling updates) may only move at \
                 phase-A quiescence or in the end-of-run auditor, where every shard \
                 observes the same state — otherwise shard counts diverge (the PR 5/6 \
                 bug class). This rule walks the call graph caller-ward from every \
                 declared mutator (mutator_fns / state_idents writes) and flags any \
                 root that is not a declared entry_points quiescence function, with \
                 the full chain from root to mutation.",
        check: Check::Graph(phase_discipline::check),
    },
    Rule {
        id: "salt-disjointness",
        summary: "declared salt families are pairwise disjoint and anchor the registry consts",
        hazard: "A job's salt feeds the fault hash and sits second in the kernel's \
                 (seq, salt, origin) sort key, so two traffic families sharing salt \
                 space share fault coin flips and processing-order ties — the PR 5 \
                 shard-identity regression. (`origin` is in the key because one family \
                 does collide with itself: a primary duplicated at two hops leaves two \
                 SALT_GHOST cells of one seq, told apart only by their spawn hop.) `salt-registry` forces every \
                 construction through named consts; this rule proves the consts \
                 themselves stay collision-free: the families declared in lint.toml \
                 must be pairwise disjoint, each anchored by its `const` at the \
                 family's start, and every SALT_ const must belong to a declared \
                 family so no unaudited salt can be minted.",
        check: Check::File(salt_disjointness::check),
    },
];

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Per-file, per-rule check context: scoping plus filtered emission.
pub struct Ctx<'a> {
    pub file: &'a SourceFile,
    pub cfg: &'a Config,
    pub rule: &'static Rule,
    include_tests: bool,
    out: &'a mut Vec<Diagnostic>,
    suppressed: &'a mut usize,
}

impl<'a> Ctx<'a> {
    /// The rule's `lint.toml` section name.
    fn section(&self) -> String {
        format!("rule.{}", self.rule.id)
    }

    /// A string-list key from the rule's section.
    pub fn cfg_list(&self, key: &str) -> Vec<String> {
        self.cfg.list(&self.section(), key)
    }

    /// A string key from the rule's section.
    pub fn cfg_str(&self, key: &str) -> Option<String> {
        self.cfg.str_(&self.section(), key).map(str::to_string)
    }

    /// Emit a diagnostic at `line`, unless the line is test code outside
    /// the rule's scope or carries a `lint:allow` for this rule.
    pub fn emit(&mut self, line: u32, message: String) {
        if !self.include_tests && self.file.is_test_at(line) {
            return;
        }
        if self.file.is_suppressed(self.rule.id, line) {
            *self.suppressed += 1;
            return;
        }
        self.out.push(Diagnostic {
            rule: self.rule.id.to_string(),
            path: self.file.rel_path.clone(),
            line,
            message,
            snippet: self.file.snippet(line),
        });
    }
}

/// Does `rule` apply to `file` at all, per its `lint.toml` scope?
pub(crate) fn rule_in_scope(rule: &Rule, file: &SourceFile, cfg: &Config) -> bool {
    let section = format!("rule.{}", rule.id);
    if !cfg.bool_or(&section, "enabled", true) {
        return false;
    }
    let include_tests = cfg.bool_or(&section, "include_tests", false);
    if file.is_test_target && !include_tests {
        return false;
    }
    let crates = cfg.list(&section, "crates");
    if !crates.is_empty() && !crates.iter().any(|c| c == &file.crate_name) {
        return false;
    }
    let files = cfg.list(&section, "files");
    if !files.is_empty() && !files.iter().any(|f| path_matches(&file.rel_path, f)) {
        return false;
    }
    let allow = cfg.list(&section, "allow_files");
    if allow.iter().any(|f| path_matches(&file.rel_path, f)) {
        return false;
    }
    true
}

/// A config path entry matches a file if it equals the relative path or
/// is a suffix of it starting at a path-component boundary.
pub(crate) fn path_matches(rel_path: &str, entry: &str) -> bool {
    rel_path == entry
        || rel_path
            .strip_suffix(entry)
            .is_some_and(|prefix| prefix.ends_with('/'))
}

/// Whole-workspace check context for [`Check::Graph`] rules: the call
/// graph, the rule's config section, and filtered emission addressed by
/// workspace file index.
pub struct GraphCtx<'a> {
    pub ws: &'a Workspace,
    pub cfg: &'a Config,
    pub rule: &'static Rule,
    include_tests: bool,
    out: &'a mut Vec<Diagnostic>,
    suppressed: &'a mut usize,
}

impl<'a> GraphCtx<'a> {
    fn section(&self) -> String {
        format!("rule.{}", self.rule.id)
    }

    /// A string-list key from the rule's section.
    pub fn cfg_list(&self, key: &str) -> Vec<String> {
        self.cfg.list(&self.section(), key)
    }

    /// Does this rule's per-file scoping (`crates`/`files`/`allow_files`)
    /// admit `file`? Graph rules see the whole workspace; this is how
    /// they honor the shared scoping semantics per emission site.
    pub fn file_in_scope(&self, file: &SourceFile) -> bool {
        rule_in_scope(self.rule, file, self.cfg)
    }

    /// Emit a diagnostic in workspace file `file_idx` at `line`, with
    /// the same test-region and `lint:allow` filtering as [`Ctx::emit`].
    pub fn emit(&mut self, file_idx: usize, line: u32, message: String) {
        let file = &self.ws.files[file_idx];
        if !self.include_tests && file.is_test_at(line) {
            return;
        }
        if file.is_suppressed(self.rule.id, line) {
            *self.suppressed += 1;
            return;
        }
        self.out.push(Diagnostic {
            rule: self.rule.id.to_string(),
            path: file.rel_path.clone(),
            line,
            message,
            snippet: file.snippet(line),
        });
    }
}

/// Run every in-scope [`Check::File`] rule over one file, appending
/// diagnostics to `out`. Returns, per rule id, how many diagnostics
/// `lint:allow` comments silenced.
pub fn check_file(
    file: &SourceFile,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut all_suppressed = std::collections::BTreeMap::new();
    for rule in RULES {
        let Check::File(check) = rule.check else {
            continue;
        };
        if !rule_in_scope(rule, file, cfg) {
            continue;
        }
        let include_tests = cfg.bool_or(&format!("rule.{}", rule.id), "include_tests", false);
        let mut suppressed = 0usize;
        let mut ctx = Ctx {
            file,
            cfg,
            rule,
            include_tests,
            out,
            suppressed: &mut suppressed,
        };
        check(&mut ctx);
        if suppressed > 0 {
            *all_suppressed.entry(rule.id).or_insert(0) += suppressed;
        }
    }
    all_suppressed
}

/// Run every enabled [`Check::Graph`] rule once over the workspace,
/// appending diagnostics to `out`. Returns per-rule `lint:allow`
/// suppression counts.
pub fn check_graph(
    ws: &Workspace,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut all_suppressed = std::collections::BTreeMap::new();
    for rule in RULES {
        let Check::Graph(check) = rule.check else {
            continue;
        };
        let section = format!("rule.{}", rule.id);
        if !cfg.bool_or(&section, "enabled", true) {
            continue;
        }
        let include_tests = cfg.bool_or(&section, "include_tests", false);
        let mut suppressed = 0usize;
        let mut ctx = GraphCtx {
            ws,
            cfg,
            rule,
            include_tests,
            out,
            suppressed: &mut suppressed,
        };
        check(&mut ctx);
        if suppressed > 0 {
            *all_suppressed.entry(rule.id).or_insert(0) += suppressed;
        }
    }
    all_suppressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_matching_respects_component_boundaries() {
        assert!(path_matches(
            "crates/rcbr-runtime/src/engine.rs",
            "engine.rs"
        ));
        assert!(path_matches(
            "crates/rcbr-runtime/src/engine.rs",
            "src/engine.rs"
        ));
        assert!(path_matches(
            "crates/rcbr-runtime/src/engine.rs",
            "crates/rcbr-runtime/src/engine.rs"
        ));
        // `ngine.rs` is not a component-aligned suffix.
        assert!(!path_matches("crates/x/src/engine.rs", "ngine.rs"));
    }

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {} is not kebab-case",
                r.id
            );
        }
    }
}

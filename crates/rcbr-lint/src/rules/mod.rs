//! The rule registry.
//!
//! Every rule is one entry in [`RULES`]: an id, a one-line summary, the
//! hazard it encodes (shown by `lint --explain`), and a check function
//! over a lexed [`SourceFile`]. A hazard the compiler can check belongs in
//! `clippy.toml` or the type system instead (DESIGN.md §7).
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

mod lease_units;
mod salt_registry;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

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
    /// The check itself: a token scan of one in-scope file.
    pub check: fn(&mut Ctx<'_>),
}

/// The registry. Order here is the order rules run and report in.
pub static RULES: &[Rule] = &[
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
        check: lease_units::check_durations,
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
        check: lease_units::check_cadences,
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
        check: salt_registry::check,
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
fn rule_in_scope(rule: &Rule, file: &SourceFile, cfg: &Config) -> bool {
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

/// Run every in-scope rule over one file, appending
/// diagnostics to `out`. Returns, per rule id, how many diagnostics
/// `lint:allow` comments silenced.
pub fn check_file(
    file: &SourceFile,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut all_suppressed = std::collections::BTreeMap::new();
    for rule in RULES {
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
        (rule.check)(&mut ctx);
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

//! Rule fixtures: for every rule, one fixture that trips it and one
//! near-miss that must stay clean — plus suppression semantics, the
//! self-gate (the workspace itself lints clean), and a determinism
//! property for the report.

use std::path::PathBuf;

use rcbr_lint::config::Config;
use rcbr_lint::diag::Diagnostic;
use rcbr_lint::{check_source, collect_files, find_root, run_lint_files};

/// Read a fixture file from `tests/fixtures/<dir>/<file>`.
fn fixture(dir: &str, file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Lint a fixture as production code of `crate_name`, under `cfg_text`,
/// returning only diagnostics of `rule`.
fn lint_rule(
    rule: &str,
    dir: &str,
    file: &str,
    crate_name: &str,
    cfg_text: &str,
) -> Vec<Diagnostic> {
    let cfg = Config::parse(cfg_text).expect("fixture config parses");
    let rel = format!("crates/{crate_name}/src/{file}");
    let (diags, _) = check_source(&rel, crate_name, false, &fixture(dir, file), &cfg);
    diags.into_iter().filter(|d| d.rule == rule).collect()
}

/// Assert the trip fixture yields at least `min` diagnostics of `rule`
/// and the near-miss fixture yields none.
fn assert_rule(rule: &str, dir: &str, cfg_text: &str, min: usize) {
    let trips = lint_rule(rule, dir, "trip.rs", "rcbr-runtime", cfg_text);
    assert!(
        trips.len() >= min,
        "[{rule}] trip.rs: expected >= {min} diagnostics, got {}: {trips:#?}",
        trips.len()
    );
    for d in &trips {
        assert!(d.line > 0, "[{rule}] diagnostics carry line anchors");
        assert!(!d.snippet.is_empty(), "[{rule}] diagnostics carry snippets");
    }
    let misses = lint_rule(rule, dir, "ok.rs", "rcbr-runtime", cfg_text);
    assert!(
        misses.is_empty(),
        "[{rule}] ok.rs must be clean, got: {misses:#?}"
    );
}

#[test]
fn lease_units_fixtures() {
    assert_rule("lease-units", "lease_units", "", 3);
}

#[test]
fn lease_units_allow_idents_exempt_audited_names() {
    // Grandfathering `lease_expires` silences exactly that trip; the
    // other raw durations still fire.
    let cfg = "[rule.lease-units]\nallow_idents = [\"lease_expires\"]\n";
    let trips = lint_rule("lease-units", "lease_units", "trip.rs", "rcbr-runtime", cfg);
    assert_eq!(
        trips.len(),
        2,
        "one audited name, two live trips: {trips:#?}"
    );
    assert!(
        trips.iter().all(|d| !d.snippet.contains("lease_expires")),
        "the allow_idents window must be exempt: {trips:#?}"
    );
}

#[test]
fn lease_units_supersteps_named_bindings_are_sanctioned() {
    // The sanctioned pattern from the rule's hazard text: the raw count
    // lives in a *_supersteps const/field, uses flow through the name.
    let src = "\
const REROUTE_SETTLE_SUPERSTEPS: u64 = 48;
fn settle(now: u64) -> u64 {
    now + REROUTE_SETTLE_SUPERSTEPS
}
";
    let cfg = Config::parse("").unwrap();
    let (diags, _) = check_source(
        "crates/rcbr-runtime/src/x.rs",
        "rcbr-runtime",
        false,
        src,
        &cfg,
    );
    assert!(
        !diags.iter().any(|d| d.rule == "lease-units"),
        "named superstep counts are the sanctioned home: {diags:#?}"
    );
}

#[test]
fn measurement_window_fixtures() {
    assert_rule("measurement-window", "measurement_window", "", 3);
}

#[test]
fn measurement_window_supersteps_named_cadences_are_sanctioned() {
    // The sanctioned pattern: the raw count lives in a *_supersteps
    // config knob, the roll schedule flows through the name.
    let src = "\
pub fn next_roll(superstep: u64, measurement_window_supersteps: u64) -> u64 {
    superstep + measurement_window_supersteps
}
";
    let cfg = Config::parse("").unwrap();
    let (diags, _) = check_source(
        "crates/rcbr-runtime/src/x.rs",
        "rcbr-runtime",
        false,
        src,
        &cfg,
    );
    assert!(
        !diags.iter().any(|d| d.rule == "measurement-window"),
        "named cadences are the sanctioned home: {diags:#?}"
    );
}

#[test]
fn salt_registry_fixtures() {
    assert_rule("salt-registry", "salt_registry", "", 4);
}

#[test]
fn salt_registry_exempts_the_registry_module_itself() {
    // The registry is where the literals live: the same source that trips
    // everywhere else is clean when it *is* the configured registry.
    let cfg_text = "[rule.salt-registry]\nregistry = \"crates/rcbr-runtime/src/trip.rs\"\n";
    let cfg = Config::parse(cfg_text).expect("config parses");
    let (diags, _) = check_source(
        "crates/rcbr-runtime/src/trip.rs",
        "rcbr-runtime",
        false,
        &fixture("salt_registry", "trip.rs"),
        &cfg,
    );
    assert!(
        !diags.iter().any(|d| d.rule == "salt-registry"),
        "the registry module declares the literals: {diags:#?}"
    );
}

#[test]
fn suppression_covers_line_and_counts() {
    let src = "\
fn f(now: u64) {
    // lint:allow(lease-units)
    let lease_expires = now + 12;
    let lease_renews = now + 12;
}
";
    let cfg = Config::parse("").unwrap();
    let (diags, suppressed) = check_source(
        "crates/rcbr-runtime/src/x.rs",
        "rcbr-runtime",
        false,
        src,
        &cfg,
    );
    let leases: Vec<_> = diags.iter().filter(|d| d.rule == "lease-units").collect();
    assert_eq!(leases.len(), 1, "only the un-suppressed line remains");
    assert_eq!(leases[0].line, 4);
    assert_eq!(suppressed.get("lease-units"), Some(&1));
}

#[test]
fn cfg_test_regions_are_exempt_by_default() {
    let src = "\
fn prod(now: u64) -> u64 {
    let deadline = now + 48;
    deadline
}
#[cfg(test)]
mod tests {
    fn t(now: u64) -> u64 {
        let deadline = now + 48;
        deadline
    }
}
";
    let cfg = Config::parse("").unwrap();
    let (diags, _) = check_source(
        "crates/rcbr-runtime/src/x.rs",
        "rcbr-runtime",
        false,
        src,
        &cfg,
    );
    let trips: Vec<_> = diags.iter().filter(|d| d.rule == "lease-units").collect();
    assert_eq!(trips.len(), 1, "only the production literal trips");
    assert_eq!(trips[0].line, 2);
}

#[test]
fn seeded_violation_is_caught_with_file_line_anchor() {
    // Seeding a bare salt literal into an rcbr-runtime source yields a
    // diagnostic anchored to its line.
    let src = "fn hot(seq: u64) -> Job {\n    Job { seq, salt: 2 }\n}\n";
    let cfg = Config::parse("").unwrap();
    let (diags, _) = check_source(
        "crates/rcbr-runtime/src/engine.rs",
        "rcbr-runtime",
        false,
        src,
        &cfg,
    );
    let hit = diags
        .iter()
        .find(|d| d.rule == "salt-registry")
        .expect("seeded salt literal must be caught");
    assert_eq!(hit.line, 2);
    assert!(hit
        .render()
        .starts_with("crates/rcbr-runtime/src/engine.rs:2:"));
}

/// The self-gate: the workspace this crate lives in must lint clean under
/// its own `lint.toml` — the same invocation CI runs with `--deny`.
#[test]
fn workspace_is_clean() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(&manifest).expect("lint.toml above the crate");
    let cfg_text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let cfg = Config::parse(&cfg_text).unwrap();
    let files = collect_files(&root, &cfg).unwrap();
    assert!(files.len() > 50, "workspace walk found the sources");
    let report = run_lint_files(&root, &cfg, &files).unwrap();
    assert!(
        report.clean(),
        "workspace must lint clean: {:#?}",
        report.violations
    );
    assert_eq!(
        report.rules.len(),
        3,
        "the three rules the compiler cannot check yet"
    );
}

mod determinism {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The JSON report is byte-identical no matter what order files
        /// are scanned in.
        #[test]
        fn report_is_order_independent(seed in any::<u64>()) {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            let root = find_root(&manifest).unwrap();
            let cfg_text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
            let cfg = Config::parse(&cfg_text).unwrap();
            let files = collect_files(&root, &cfg).unwrap();
            let baseline = run_lint_files(&root, &cfg, &files).unwrap().to_json();

            // Deterministic Fisher-Yates driven by the proptest seed.
            let mut shuffled = files.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let report = run_lint_files(&root, &cfg, &shuffled).unwrap().to_json();
            prop_assert_eq!(baseline, report);
        }
    }
}

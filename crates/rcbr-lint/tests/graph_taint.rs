//! Cross-function analysis: transitive taint through the multi-file
//! fixture tree, phase discipline over seeded mutations, and the
//! determinism / self-gate properties of the graph passes.

use std::path::PathBuf;

use rcbr_lint::config::Config;
use rcbr_lint::diag::Diagnostic;
use rcbr_lint::source::SourceFile;
use rcbr_lint::{analyze_sources, collect_files, find_root, run_lint_files};

/// Load the `taint_transitive` fixture tree as rcbr-runtime production
/// sources, in the given filename order (the analysis must not care).
fn taint_tree(order: &[&str]) -> Vec<SourceFile> {
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/taint_transitive");
    order
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(base.join(name))
                .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
            let rel = format!("crates/rcbr-runtime/src/{name}");
            SourceFile::new(&rel, "rcbr-runtime", false, &src)
        })
        .collect()
}

fn taint_diags(order: &[&str]) -> Vec<Diagnostic> {
    let cfg = Config::parse("").unwrap();
    let analysis = analyze_sources(taint_tree(order), &cfg);
    analysis
        .violations
        .into_iter()
        .filter(|d| d.message.contains("call chain reaches"))
        .collect()
}

/// The issue's acceptance shape: a wall-clock read in a helper two call
/// hops below an engine function is flagged at the engine's call site,
/// with the full chain named.
#[test]
fn three_hop_chain_is_flagged_at_every_link() {
    let diags = taint_diags(&["engine.rs", "mid.rs", "deep.rs"]);
    let engine_hit = diags
        .iter()
        .find(|d| d.path.ends_with("engine.rs"))
        .expect("the engine call site two hops from the seed is flagged");
    assert_eq!(engine_hit.rule, "wall-clock");
    assert!(
        engine_hit
            .message
            .contains("drive → plan → sample → Instant::now"),
        "chain names every link: {}",
        engine_hit.message
    );
    // The middle hop is flagged too — the chain is auditable link by link.
    assert!(
        diags
            .iter()
            .any(|d| d.path.ends_with("mid.rs") && d.message.contains("plan → sample")),
        "{diags:#?}"
    );
}

/// The sanctioned boundary: `tally → snapshot_total → sample` crosses a
/// snapshot_* function and must not be flagged.
#[test]
fn snapshot_boundary_stops_taint() {
    let diags = taint_diags(&["engine.rs", "mid.rs", "deep.rs"]);
    assert!(
        !diags.iter().any(|d| d.message.contains("tally")),
        "the boundary path is sanctioned: {diags:#?}"
    );
    assert!(
        !diags.iter().any(|d| d.message.contains("snapshot_total")),
        "boundaries neither carry nor emit taint: {diags:#?}"
    );
}

/// A seed rule's allow_files are boundaries at any call depth: routing
/// the same chain through the audited wall-clock file keeps the caller
/// clean.
#[test]
fn allow_files_are_boundaries_at_depth() {
    let cfg =
        Config::parse("[rule.wall-clock]\nallow_files = [\"crates/rcbr-runtime/src/deep.rs\"]\n")
            .unwrap();
    let analysis = analyze_sources(taint_tree(&["engine.rs", "mid.rs", "deep.rs"]), &cfg);
    assert!(
        !analysis
            .violations
            .iter()
            .any(|d| d.message.contains("call chain reaches")),
        "{:#?}",
        analysis.violations
    );
}

/// Scan order cannot change the analysis: every permutation of the
/// fixture tree yields byte-identical diagnostics.
#[test]
fn taint_diagnostics_are_scan_order_independent() {
    let baseline = format!("{:?}", taint_diags(&["engine.rs", "mid.rs", "deep.rs"]));
    for order in [
        ["deep.rs", "engine.rs", "mid.rs"],
        ["mid.rs", "deep.rs", "engine.rs"],
        ["deep.rs", "mid.rs", "engine.rs"],
    ] {
        assert_eq!(baseline, format!("{:?}", taint_diags(&order)));
    }
}

/// The issue's second acceptance shape: a RouteState mutation seeded
/// outside the declared quiescence entry points trips phase-discipline
/// with the chain from the undeclared root down to the mutation.
#[test]
fn seeded_route_state_mutation_outside_quiescence_trips() {
    let cfg = Config::parse(
        "[rule.phase-discipline]\n\
         entry_points = [\"crates/rcbr-runtime/src/engine.rs::worker\"]\n\
         state_idents = [\"route_state\"]\n",
    )
    .unwrap();
    let sources = vec![
        SourceFile::new(
            "crates/rcbr-runtime/src/engine.rs",
            "rcbr-runtime",
            false,
            "pub fn worker() { apply(); }\npub fn hotpatch() { apply(); }\n",
        ),
        SourceFile::new(
            "crates/rcbr-runtime/src/gen.rs",
            "rcbr-runtime",
            false,
            "pub struct Vc { pub route_state: u32 }\n\
             pub fn apply() { let mut vc = Vc { route_state: 0 }; vc.route_state = 1; }\n",
        ),
    ];
    let analysis = analyze_sources(sources, &cfg);
    let hit = analysis
        .violations
        .iter()
        .find(|d| d.rule == "phase-discipline")
        .expect("undeclared root must trip");
    assert!(
        hit.message.contains("hotpatch") && hit.message.contains("apply"),
        "chain names root and mutator: {}",
        hit.message
    );
    // `worker` is sanctioned: only the hotpatch root is flagged.
    assert_eq!(
        analysis
            .violations
            .iter()
            .filter(|d| d.rule == "phase-discipline")
            .count(),
        1,
        "{:#?}",
        analysis.violations
    );
}

/// Self-gate for the analyzer itself: the rcbr-lint crate (fixtures
/// excluded, as in lint.toml) scans clean under the workspace config.
#[test]
fn lint_crate_scans_itself_clean() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(&manifest).expect("lint.toml above the crate");
    let cfg_text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let cfg = Config::parse(&cfg_text).unwrap();
    let files: Vec<_> = collect_files(&root, &cfg)
        .unwrap()
        .into_iter()
        .filter(|p| p.starts_with(root.join("crates/rcbr-lint")))
        .collect();
    assert!(files.len() > 10, "the crate walk found its sources");
    let report = run_lint_files(&root, &cfg, &files).unwrap();
    assert!(
        report.clean(),
        "rcbr-lint must hold itself to its own bar: {:#?}",
        report.violations
    );
}

/// The report's graph stats are populated on a workspace scan — a clean
/// report with an empty graph would mean the cross-function passes
/// silently analyzed nothing.
#[test]
fn workspace_report_carries_graph_coverage() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(&manifest).expect("lint.toml above the crate");
    let cfg_text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let cfg = Config::parse(&cfg_text).unwrap();
    let files = collect_files(&root, &cfg).unwrap();
    let report = run_lint_files(&root, &cfg, &files).unwrap();
    assert!(report.graph.functions > 100, "{:?}", report.graph);
    assert!(report.graph.call_edges > 100, "{:?}", report.graph);
    let json = report.to_json();
    assert!(json.contains("\"graph\": {\"call_edges\": "), "{json}");
}

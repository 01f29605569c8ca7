//! Cross-function analysis: phase discipline over seeded mutations, and
//! the self-gate and coverage properties of the call-graph pass.

use std::path::PathBuf;

use rcbr_lint::config::Config;
use rcbr_lint::source::SourceFile;
use rcbr_lint::{analyze_sources, collect_files, find_root, run_lint_files};

/// A RouteState mutation seeded outside the declared quiescence entry points trips phase-discipline
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

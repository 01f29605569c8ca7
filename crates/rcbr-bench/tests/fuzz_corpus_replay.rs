//! Replay the committed fuzz corpus as ordinary tests.
//!
//! Every entry under `results/fuzz_corpus/` is a self-contained
//! [`FuzzRepro`]: a full runtime configuration plus the verdict it must
//! produce. `clean` entries are regression anchors — diverse schedules
//! (and minimized repros of fixed bugs, like the reroute/teardown
//! same-round race) that must keep passing the whole oracle suite.
//! `fail` entries are minimized repros of *open* bugs and must keep
//! failing their named oracle until the fix lands.

use std::path::PathBuf;

use rcbr_bench::fuzz::{run_oracles, FuzzRepro, REPRO_FORMAT};
use rcbr_bench::run_everywhere;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/fuzz_corpus")
        .canonicalize()
        .expect("corpus dir exists")
}

#[test]
fn every_corpus_entry_replays_to_its_recorded_verdict() {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("read corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "committed corpus must not be empty");

    for path in entries {
        let raw = std::fs::read_to_string(&path).expect("read repro");
        let repro: FuzzRepro = serde_json::from_str(&raw).expect("parse repro");
        assert_eq!(
            repro.format,
            REPRO_FORMAT,
            "{}: unknown format",
            path.display()
        );
        repro.cfg.validate();
        let ex = run_everywhere(&repro.cfg);
        let failures = run_oracles(&repro.cfg, &ex);
        match repro.expect.as_str() {
            "clean" => assert!(
                failures.is_empty(),
                "{}: expected clean, got {failures:?}",
                path.display()
            ),
            "fail" => assert!(
                failures.iter().any(|f| f.oracle == repro.oracle),
                "{}: expected {} to fail, got {failures:?}",
                path.display(),
                repro.oracle
            ),
            other => panic!("{}: unknown expectation {other:?}", path.display()),
        }
    }
}

//! The shard-identity check the integration tests share.

use rcbr_runtime::{run, run_sequential, RunReport, RuntimeConfig};

/// Run `cfg` on the sequential replay and at shard counts 1, 2 and 4,
/// assert that all four are the same run — `RunReport::outcome()` prints
/// the same text, every `f64` to the bit — and return the sequential
/// report for scenario-specific assertions.
pub fn same_run_everywhere(cfg: &RuntimeConfig) -> RunReport {
    let reference = run_sequential(cfg);
    let want = format!("{:#?}", reference.outcome());
    for shards in [1, 2, 4] {
        let mut scfg = cfg.clone();
        scfg.num_shards = shards;
        let got = format!("{:#?}", run(&scfg).outcome());
        let differ = want.lines().zip(got.lines()).find(|(w, g)| w != g);
        assert!(
            differ.is_none() && want.len() == got.len(),
            "{shards} shards diverge from the sequential replay at {differ:?} \
             (seed {}, {:?})",
            cfg.seed,
            cfg.fault
        );
    }
    reference
}

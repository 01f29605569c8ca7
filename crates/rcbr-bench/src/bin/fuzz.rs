//! Deterministic chaos fuzzer for the signaling plane.
//!
//! Draws whole runtime scenarios from the seeded schedule space
//! (`rcbr_bench::fuzz::space`), executes each on the sequential replay
//! and the sharded engine at shard counts {1, 2, 4}, and checks the
//! full invariant oracle suite (`rcbr_bench::fuzz::oracle`). A failing
//! schedule is minimized by the delta-debugging shrinker into the
//! smallest configuration that still fails the *same* oracle and
//! persisted to the corpus as a self-contained JSON repro.
//!
//! Every report this binary writes is a pure function of the base seed:
//! no timestamps, no wall-clock fields, no iteration-order hazards —
//! rerunning the same mode twice must produce byte-identical JSON.
//!
//! Modes:
//!
//! * `--campaign [--count N] [--base-seed S]` — explore N seeded
//!   schedules (default 200), write `<out>/fuzz_campaign.json`, shrink
//!   any failures into `<out>/fuzz_corpus/`. Non-zero exit on failure.
//! * `--smoke` — a fixed-seed bounded campaign (12 schedules), written
//!   to `<out>/fuzz_smoke.json`. The CI gate reruns it and compares
//!   bytes against the committed report.
//! * `--anchor [--count N]` — draw N schedules, require them clean, and
//!   write them to `<out>/fuzz_corpus/` as `expect: "clean"` regression
//!   anchors (replayed by `tests/fuzz_corpus_replay.rs`).
//! * `--replay <path.json>` — re-check one corpus entry against its
//!   recorded expectation.
//!
//! Usage: `fuzz --smoke [--out results/]`
//!        `fuzz --campaign --count 200 [--base-seed 2026] [--out results/]`
//!        `fuzz --replay results/fuzz_corpus/clean_0001.json`

use std::path::{Path, PathBuf};

use rcbr_bench::fuzz::{
    draw_schedule, fault_window_count, run_oracles, shrink, space::seed_stream, FuzzRepro,
    FuzzSchedule, OracleFailure, REPRO_FORMAT,
};
use rcbr_bench::{run_everywhere, write_json, Args};
use serde::Serialize;

/// Version tag of the campaign/smoke report format.
const CAMPAIGN_FORMAT: &str = "rcbr-fuzz-campaign-v1";

/// Base seed of the CI smoke campaign. Fixed forever: the committed
/// `results/fuzz_smoke.json` is the byte-exact expected output.
const SMOKE_BASE_SEED: u64 = 0x5acade;

/// Predicate-evaluation budget per shrink (each evaluation is four full
/// engine runs, so this bounds a shrink to a few minutes worst-case).
const SHRINK_BUDGET: usize = 600;

/// How a campaign covered the fault dimensions, counted over drawn
/// schedules (not over shrunk repros).
#[derive(Debug, Default, Serialize)]
struct Coverage {
    kills: usize,
    crashes: usize,
    link_flaps: usize,
    stalls: usize,
    chords: usize,
    cell_faults: usize,
    leases: usize,
    peak_rate: usize,
    memoryless: usize,
    chernoff_eb: usize,
}

impl Coverage {
    fn absorb(&mut self, s: &FuzzSchedule) {
        let cfg = &s.cfg;
        self.kills += usize::from(!cfg.fault.kills.is_empty());
        self.crashes += usize::from(!cfg.fault.crashes.is_empty());
        self.link_flaps += usize::from(!cfg.fault.link_downs.is_empty());
        self.stalls += usize::from(cfg.fault.stall.is_some());
        self.chords += usize::from(!cfg.extra_links.is_empty());
        self.cell_faults += usize::from(cfg.fault.drop_bp > 0);
        self.leases += usize::from(cfg.lease_supersteps > 0);
        match cfg.admission.name() {
            "peak-rate" => self.peak_rate += 1,
            "memoryless" => self.memoryless += 1,
            _ => self.chernoff_eb += 1,
        }
    }
}

/// One schedule's deterministic result line in the campaign report.
#[derive(Debug, Serialize)]
struct ScheduleRecord {
    schedule_seed: u64,
    num_vcs: usize,
    num_switches: usize,
    policy: String,
    fault_windows: usize,
    supersteps: u64,
    completed: u64,
    accepted: u64,
    exhausted: u64,
    reroutes: u64,
    stranded_events: u64,
    degraded_vcs: u64,
    unsettled_vcs: u64,
    failures: Vec<OracleFailure>,
}

#[derive(Debug, Serialize)]
struct CampaignReport {
    format: String,
    base_seed: u64,
    schedules: usize,
    clean: usize,
    failed: usize,
    coverage: Coverage,
    records: Vec<ScheduleRecord>,
}

/// Execute one schedule and run the oracle suite over it.
fn check(s: &FuzzSchedule) -> ScheduleRecord {
    let ex = run_everywhere(&s.cfg);
    let failures = run_oracles(&s.cfg, &ex);
    let r = &ex.sequential;
    ScheduleRecord {
        schedule_seed: s.schedule_seed,
        num_vcs: s.cfg.num_vcs,
        num_switches: s.cfg.num_switches,
        policy: s.cfg.admission.name().to_string(),
        fault_windows: fault_window_count(&s.cfg),
        supersteps: r.supersteps,
        completed: r.counters.completed,
        accepted: r.counters.accepted,
        exhausted: r.counters.exhausted,
        reroutes: r.counters.reroutes,
        stranded_events: r.counters.stranded_events,
        degraded_vcs: r.degraded_vcs,
        unsettled_vcs: r.unsettled_vcs,
        failures,
    }
}

/// Write one corpus entry under `dir`.
fn write_repro(dir: &Path, name: &str, repro: &FuzzRepro) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    let path = dir.join(name);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(repro).expect("serialize repro"),
    )
    .expect("write repro");
    eprintln!("wrote {}", path.display());
}

/// Shrink a failing schedule down to the smallest config that still
/// fails the same oracle, and persist the minimized repro.
fn shrink_and_persist(s: &FuzzSchedule, first: &OracleFailure, corpus: &Path) {
    let oracle = first.oracle.clone();
    let (min, outcome) = shrink(
        s,
        |cfg| {
            let ex = run_everywhere(cfg);
            run_oracles(cfg, &ex).iter().any(|f| f.oracle == oracle)
        },
        SHRINK_BUDGET,
    );
    println!(
        "  shrunk seed {:#x}: {} accepted steps in {} evals, {} fault windows remain",
        s.schedule_seed,
        outcome.steps.len(),
        outcome.evals,
        fault_window_count(&min.cfg)
    );
    let repro = FuzzRepro {
        format: REPRO_FORMAT.to_string(),
        schedule_seed: s.schedule_seed,
        oracle: oracle.clone(),
        expect: "fail".to_string(),
        cfg: min.cfg,
    };
    write_repro(
        corpus,
        &format!("fail_{}_{:016x}.json", oracle, s.schedule_seed),
        &repro,
    );
}

/// Run `count` schedules from `base_seed` and assemble the report.
fn campaign(base_seed: u64, count: usize, corpus: &Path, shrink_failures: bool) -> CampaignReport {
    let mut coverage = Coverage::default();
    let mut records = Vec::with_capacity(count);
    let mut failed = 0usize;
    for (i, seed) in seed_stream(base_seed, count).into_iter().enumerate() {
        let s = draw_schedule(seed);
        coverage.absorb(&s);
        let record = check(&s);
        if !record.failures.is_empty() {
            failed += 1;
            println!(
                "[{}/{}] seed {seed:#018x} FAILED: {}",
                i + 1,
                count,
                record.failures[0].detail
            );
            if shrink_failures {
                shrink_and_persist(&s, &record.failures[0], corpus);
            }
        } else if (i + 1) % 25 == 0 {
            println!("[{}/{}] clean so far", i + 1, count);
        }
        records.push(record);
    }
    CampaignReport {
        format: CAMPAIGN_FORMAT.to_string(),
        base_seed,
        schedules: count,
        clean: count - failed,
        failed,
        coverage,
        records,
    }
}

/// Replay one corpus entry and check its recorded expectation.
fn replay(path: &Path) -> bool {
    let raw = std::fs::read_to_string(path).expect("read repro");
    let repro: FuzzRepro = serde_json::from_str(&raw).expect("parse repro");
    assert_eq!(repro.format, REPRO_FORMAT, "unknown repro format");
    repro.cfg.validate();
    let ex = run_everywhere(&repro.cfg);
    let failures = run_oracles(&repro.cfg, &ex);
    let ok = match repro.expect.as_str() {
        "clean" => failures.is_empty(),
        "fail" => failures.iter().any(|f| f.oracle == repro.oracle),
        other => panic!("unknown expectation {other:?}"),
    };
    let verdict = if ok { "ok" } else { "MISMATCH" };
    println!(
        "{}: expect {} on {} -> {verdict} ({} failures)",
        path.display(),
        repro.expect,
        repro.oracle,
        failures.len()
    );
    for f in &failures {
        println!("  {}: {}", f.oracle, f.detail);
    }
    ok
}

fn main() {
    let args = Args::parse();
    let out = args.out_dir().or_else(|| Some(PathBuf::from("results")));
    let out_dir = out.clone().expect("out dir");
    let corpus = out_dir.join("fuzz_corpus");

    if args.flag("smoke") {
        // Fixed seed, bounded budget: the report must be byte-identical
        // across reruns (CI compares against the committed copy).
        let report = campaign(SMOKE_BASE_SEED, 12, &corpus, false);
        write_json(&out, "fuzz_smoke.json", &report);
        println!(
            "fuzz smoke: {}/{} schedules clean",
            report.clean, report.schedules
        );
        if report.failed > 0 {
            std::process::exit(1);
        }
        return;
    }

    let replay_path: String = args.get("replay", String::new());
    if !replay_path.is_empty() {
        if !replay(Path::new(&replay_path)) {
            std::process::exit(1);
        }
        return;
    }

    if args.flag("anchor") {
        // Clean regression anchors for the committed corpus: the first
        // N smoke-stream schedules, verified clean, written as
        // `expect: "clean"` repros.
        let count: usize = args.get("count", 4);
        for seed in seed_stream(SMOKE_BASE_SEED, count) {
            let s = draw_schedule(seed);
            let record = check(&s);
            assert!(
                record.failures.is_empty(),
                "anchor seed {seed:#x} is not clean: {:?}",
                record.failures
            );
            let repro = FuzzRepro {
                format: REPRO_FORMAT.to_string(),
                schedule_seed: seed,
                oracle: "all".to_string(),
                expect: "clean".to_string(),
                cfg: s.cfg,
            };
            write_repro(&corpus, &format!("clean_{seed:016x}.json"), &repro);
        }
        // Plus one storm anchor: the first smoke-stream schedule whose
        // draw landed both a flash-crowd window and a bounded signaling
        // budget, verified clean, so the corpus replay permanently
        // covers the overload-protection plane.
        let seed = seed_stream(SMOKE_BASE_SEED, 256)
            .into_iter()
            .find(|&seed| {
                let cfg = &draw_schedule(seed).cfg;
                cfg.storm.is_some() && cfg.signaling_budget_per_round > 0
            })
            .expect("256 draws must reach the storm x budget corner");
        let s = draw_schedule(seed);
        let record = check(&s);
        assert!(
            record.failures.is_empty(),
            "storm anchor seed {seed:#x} is not clean: {:?}",
            record.failures
        );
        let repro = FuzzRepro {
            format: REPRO_FORMAT.to_string(),
            schedule_seed: seed,
            oracle: "all".to_string(),
            expect: "clean".to_string(),
            cfg: s.cfg,
        };
        write_repro(&corpus, &format!("clean_storm_{seed:016x}.json"), &repro);
        return;
    }

    // Default: full campaign.
    let count: usize = args.get("count", 200);
    let base_seed: u64 = args.get("base-seed", 2026);
    let report = campaign(base_seed, count, &corpus, true);
    write_json(&out, "fuzz_campaign.json", &report);
    println!(
        "fuzz campaign: {}/{} schedules clean (base seed {base_seed})",
        report.clean, report.schedules
    );
    if report.failed > 0 {
        std::process::exit(1);
    }
}

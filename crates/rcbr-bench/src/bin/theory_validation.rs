//! Section V-A theory vs. simulation, for the Fig. 4 three-subchain
//! multiple-time-scale source:
//!
//! 1. eq. (9): the whole-stream equivalent bandwidth equals the maximum
//!    subchain equivalent bandwidth, and simulation confirms that rates
//!    between `max_k m_k` and `max_k EB_k` under-provision the stream;
//! 2. eqs. (10)/(11): Chernoff estimates of the bufferless-multiplexing
//!    exceedance probability vs. a direct Monte-Carlo estimate;
//! 3. the decomposition claim: the shared-buffer capacity (slow-scale
//!    means) lower-bounds the RCBR capacity (subchain EBs), with the gap
//!    shrinking as the fast-time-scale fluctuation shrinks.
//!
//! Usage: `theory_validation [--seed 1] [--out results/]`

use rcbr_bench::{write_json, Args};
use rcbr_ldt::{min_capacity_per_source, EbCache, QosTarget};
use rcbr_sim::stats::DiscreteDistribution;
use rcbr_sim::{FluidQueue, SimRng};
use rcbr_traffic::MtsModel;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Validation {
    subchain_means_bps: Vec<f64>,
    subchain_ebs_bps: Vec<f64>,
    stream_eb_bps: f64,
    overflow_at_eb: f64,
    overflow_at_max_mean: f64,
    chernoff_estimate: f64,
    simulated_exceedance: f64,
    capacity_shared_bps: f64,
    capacity_rcbr_bps: f64,
}

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed", 1);
    let slot = 1.0 / 24.0;
    let model = MtsModel::fig4_example(2e-3, slot);
    let buffer = 100_000.0;
    let qos = QosTarget::new(buffer, 1e-2);

    // 1. eq. (9). The memo makes the stream-EB call below reuse the three
    // per-subchain solves already done here.
    let mut eb_cache = EbCache::new();
    let probs = model.subchain_probs();
    let means: Vec<f64> = (0..3).map(|k| model.subchain_mean_rate(k)).collect();
    let ebs: Vec<f64> = model
        .subchains()
        .iter()
        .map(|s| eb_cache.equivalent_bandwidth(&s.as_source(slot), qos))
        .collect();
    let (stream_eb, k_dom) = eb_cache.mts_equivalent_bandwidth(&model, qos);
    debug_assert_eq!(eb_cache.hits(), 3, "stream EB should be fully memoized");
    println!("# Theory validation — Fig. 4 source, B = 100 kb, eps = 1e-2");
    println!(
        "{:>10} {:>12} {:>12} {:>10}",
        "subchain", "mean (kb/s)", "EB (kb/s)", "p_k"
    );
    for k in 0..3 {
        println!(
            "{:>10} {:>12.0} {:>12.0} {:>10.3}",
            k,
            means[k] / 1e3,
            ebs[k] / 1e3,
            probs[k]
        );
    }
    println!(
        "eq. (9): stream EB = {:.0} kb/s (subchain {k_dom})",
        stream_eb / 1e3
    );

    // Simulate the flattened stream at two rates.
    let flat = model.flatten();
    let mut rng = SimRng::from_seed(seed);
    let trace = flat.generate(1_000_000, &mut rng);
    let overflow = |rate: f64| {
        let mut q = FluidQueue::unbounded();
        let mut over = 0u64;
        for t in 0..trace.len() {
            if q.offer(trace.bits(t), rate * slot).backlog > buffer {
                over += 1;
            }
        }
        over as f64 / trace.len() as f64
    };
    let max_mean = means.iter().cloned().fold(0.0f64, f64::max);
    let p_starved = overflow(1.02 * max_mean);
    let p_eb = overflow(stream_eb);
    println!(
        "overflow frequency: at 1.02 x max subchain mean = {p_starved:.2e}; at stream EB = {p_eb:.2e}"
    );

    // 2. Chernoff vs. Monte Carlo for the slow-scale marginal.
    let marginal = model.slow_scale_distribution();
    let n = 50;
    let c = min_capacity_per_source(&marginal, n, 1e-3);
    let capacity = c * n as f64;
    let estimate = rcbr_ldt::chernoff_failure_probability(&marginal, n, capacity * 1.0001);
    let mut exceed = 0u64;
    let epochs = 300_000;
    let levels = marginal.levels().to_vec();
    let ps = marginal.probs().to_vec();
    for _ in 0..epochs {
        let mut total = 0.0;
        for _ in 0..n {
            total += levels[rng.discrete(&ps)];
        }
        if total > capacity {
            exceed += 1;
        }
    }
    let p_sim = exceed as f64 / epochs as f64;
    println!(
        "Chernoff (n = {n}): estimate {estimate:.2e} vs Monte-Carlo {p_sim:.2e} (bound holds: {})",
        p_sim <= estimate * 1.2
    );

    // 3. eq. (10) vs. (11): capacity per stream.
    let eb_marginal = DiscreteDistribution::from_weights(
        &ebs.iter()
            .zip(&probs)
            .map(|(&e, &p)| (e, p))
            .collect::<Vec<_>>(),
    );
    let c_shared = min_capacity_per_source(&marginal, n, 1e-3);
    let c_rcbr = min_capacity_per_source(&eb_marginal, n, 1e-3);
    println!(
        "capacity per stream (n = {n}): shared buffer {:.0} kb/s <= RCBR {:.0} kb/s (gap {:.1}%)",
        c_shared / 1e3,
        c_rcbr / 1e3,
        100.0 * (c_rcbr / c_shared - 1.0)
    );

    let result = Validation {
        subchain_means_bps: means,
        subchain_ebs_bps: ebs,
        stream_eb_bps: stream_eb,
        overflow_at_eb: p_eb,
        overflow_at_max_mean: p_starved,
        chernoff_estimate: estimate,
        simulated_exceedance: p_sim,
        capacity_shared_bps: c_shared,
        capacity_rcbr_bps: c_rcbr,
    };
    write_json(&args.out_dir(), "theory_validation.json", &result);

    assert!(p_starved > 10.0 * p_eb, "eq. (9) separation not visible");
    assert!(p_sim <= estimate * 1.2, "Chernoff bound violated");
    assert!(c_rcbr >= c_shared, "eq. (11) must dominate eq. (10)");
    println!("# all theory checks passed");
}

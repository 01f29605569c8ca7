//! Online (interactive) sources over the signaling substrate, including
//! fault injection: the Section III mechanisms working together.

use rcbr_suite::prelude::*;

fn video(seed: u64, frames: usize) -> FrameTrace {
    let mut rng = SimRng::from_seed(seed);
    SyntheticMpegSource::star_wars_like().generate(frames, &mut rng)
}

fn fig2_policy(trace: &FrameTrace, delta: f64) -> Ar1Policy {
    let tau = trace.frame_interval();
    Ar1Policy::new(Ar1Config::fig2(delta, trace.mean_rate(), tau), tau)
}

#[test]
fn online_source_over_clean_network_keeps_losses_low() {
    let trace = video(1, 4800);
    let buffer = 300_000.0;
    let mut switches = vec![Switch::new(&[155_000_000.0])];
    let path = Path::new(vec![0], 0.0);
    let mut conn = RcbrConnection::establish(&mut switches, path, 1, trace.mean_rate()).unwrap();
    let plane = FaultPlane::transparent();
    let policy = fig2_policy(&trace, 64_000.0);
    let mut source = VcDriver::new(trace.clone(), policy, buffer);

    for _ in 0..trace.len() {
        if let Some(want) = source.step() {
            assert!(conn.renegotiate(&mut switches, &plane, want).unwrap());
            source.on_grant();
        }
    }
    assert!(source.requests() > 10, "the policy must adapt");
    assert!(
        source.loss_fraction() < 2e-3,
        "clean network loss too high: {}",
        source.loss_fraction()
    );
    assert_eq!(conn.drift(&switches), 0.0);
}

#[test]
fn signaling_loss_drifts_and_resync_repairs() {
    let trace = video(2, 2400);
    let buffer = 300_000.0;
    let mut switches = vec![Switch::new(&[155_000_000.0])];
    let path = Path::new(vec![0], 0.0);
    let mut conn = RcbrConnection::establish(&mut switches, path, 1, trace.mean_rate())
        .unwrap()
        .with_config(ServiceConfig::new(0)); // no automatic resync
    let plane = FaultPlane::new(FaultConfig::drop_only(0.3, 17));
    let policy = fig2_policy(&trace, 100_000.0);
    let mut source = VcDriver::new(trace.clone(), policy, buffer);

    let mut saw_drift = false;
    for _ in 0..trace.len() {
        if let Some(want) = source.step() {
            if conn
                .renegotiate(&mut switches, &plane, want)
                .unwrap_or(false)
            {
                source.on_grant();
            } else {
                source.on_deny();
            }
        }
        saw_drift |= conn.drift(&switches) > 0.0;
    }
    assert!(conn.lost_cells() > 0);
    assert!(saw_drift, "30% signaling loss must cause visible drift");
    conn.resync(&mut switches).unwrap();
    assert_eq!(conn.drift(&switches), 0.0, "resync must repair all hops");
}

#[test]
fn gop_aware_policy_works_end_to_end() {
    let trace = video(3, 4800);
    let buffer = 300_000.0;
    let tau = trace.frame_interval();
    let ar1 = Ar1Config::fig2(64_000.0, trace.mean_rate(), tau);
    let mut gop = GopAwarePolicy::new(GopAwareConfig { ar1, gop_len: 12 }, tau);
    let mut frame = Ar1Policy::new(ar1, tau);

    let run_policy = |policy: &mut dyn OnlinePolicy| {
        let mut switches = vec![Switch::new(&[155_000_000.0])];
        let path = Path::new(vec![0], 0.0);
        let mut conn =
            RcbrConnection::establish(&mut switches, path, 1, trace.mean_rate()).unwrap();
        let plane = FaultPlane::transparent();
        let mut source = VcDriver::new(trace.clone(), policy, buffer);
        for _ in 0..trace.len() {
            if let Some(want) = source.step() {
                assert!(conn.renegotiate(&mut switches, &plane, want).unwrap());
                source.on_grant();
            }
        }
        (source.requests(), source.loss_fraction())
    };

    let (req_gop, loss_gop) = run_policy(&mut gop);
    let (req_frame, loss_frame) = run_policy(&mut frame);
    assert!(
        req_gop < req_frame,
        "GoP-aware should renegotiate less: {req_gop} vs {req_frame}"
    );
    assert!(loss_gop < 1e-2, "gop loss {loss_gop}");
    assert!(loss_frame < 1e-2, "frame loss {loss_frame}");
}

#[test]
fn token_bucket_policing_passes_scheduled_traffic() {
    // The stepwise-CBR output of an RCBR source conforms to a token bucket
    // at (peak schedule rate, one slot of burst) — the "trivially simple"
    // descriptor of Section VI.
    let trace = video(4, 1200);
    let buffer = 300_000.0;
    let grid = RateGrid::uniform(48_000.0, 2_400_000.0, 10);
    let schedule = OfflineOptimizer::new(
        TrellisConfig::new(grid, CostModel::from_ratio(1e6), buffer)
            .with_q_resolution(buffer / 500.0),
    )
    .optimize(&trace)
    .unwrap();
    // The network-facing stream: rate_at(t) * tau bits per slot.
    let tau = trace.frame_interval();
    let shaped: Vec<f64> = (0..trace.len())
        .map(|t| schedule.rate_at(t) * tau)
        .collect();
    let shaped_trace = FrameTrace::new(tau, shaped);
    let peak = schedule.peak_service_rate();
    let mut bucket = TokenBucket::new(peak, peak * tau + 1.0);
    assert_eq!(bucket.police(&shaped_trace), 0);
}

//! End-to-end stored-video pipeline: synthetic trace → offline optimal
//! schedule → RCBR source streaming over a multi-hop ATM path.

use rcbr_suite::prelude::*;

fn video(seed: u64, frames: usize) -> FrameTrace {
    let mut rng = SimRng::from_seed(seed);
    SyntheticMpegSource::star_wars_like().generate(frames, &mut rng)
}

fn optimal_schedule(trace: &FrameTrace, buffer: f64) -> Schedule {
    let grid = RateGrid::uniform(48_000.0, 2_400_000.0, 10);
    OfflineOptimizer::new(
        TrellisConfig::new(grid, CostModel::from_ratio(1e6), buffer)
            .with_q_resolution(buffer / 500.0),
    )
    .optimize(trace)
    .expect("grid covers the trace")
}

#[test]
fn stored_video_streams_losslessly_over_the_network() {
    let buffer = 300_000.0;
    let trace = video(42, 1440); // one minute
    let schedule = optimal_schedule(&trace, buffer);
    assert!(schedule.is_feasible(&trace, buffer));

    // Three switches with ample capacity.
    let mut switches: Vec<Switch> = (0..3).map(|_| Switch::new(&[155_000_000.0])).collect();
    let path = Path::new(vec![0, 1, 2], 0.0005);
    let mut conn = RcbrConnection::establish(&mut switches, path, 7, schedule.rate_at(0)).unwrap();
    let plane = FaultPlane::transparent();
    let policy = SchedulePolicy::new(schedule.clone());
    let mut source = VcDriver::new(trace.clone(), policy, buffer);

    for _ in 0..trace.len() {
        if let Some(want) = source.step() {
            assert!(conn.renegotiate(&mut switches, &plane, want).unwrap());
            source.on_grant();
        }
    }

    assert_eq!(
        source.loss_fraction(),
        0.0,
        "ample capacity must be lossless"
    );
    assert_eq!(source.requests() as usize, schedule.num_renegotiations());
    // Switch state tracks the source (up to the float residue that
    // delta-encoding accumulates — exactly what resync exists to clean up).
    assert!(
        conn.drift(&switches) < 1e-6,
        "drift {}",
        conn.drift(&switches)
    );
    conn.resync(&mut switches).unwrap();
    assert_eq!(conn.drift(&switches), 0.0);
    for sw in &switches {
        assert_eq!(sw.vci_rate(7), Some(conn.believed_rate()));
    }
    conn.teardown(&mut switches).unwrap();
    for sw in &switches {
        assert_eq!(sw.port(0).unwrap().reserved(), 0.0);
    }
}

#[test]
fn schedule_survives_json_roundtrip_and_replays_identically() {
    let trace = video(44, 720);
    let schedule = optimal_schedule(&trace, 300_000.0);
    let json = serde_json::to_string(&schedule).unwrap();
    let back: Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(schedule, back);
    let m1 = schedule.replay(&trace, 300_000.0);
    let m2 = back.replay(&trace, 300_000.0);
    assert_eq!(m1.loss_fraction, m2.loss_fraction);
    assert_eq!(m1.peak_backlog, m2.peak_backlog);
}

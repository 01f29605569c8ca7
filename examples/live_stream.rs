//! Live (interactive) streaming over a lossy multi-hop ATM path.
//!
//! An online RCBR source (AR(1) policy, Section IV-B) drives a camera-like
//! feed through three switches using delta-encoded RM-cell signaling
//! (Section III-B). Signaling loss is injected to demonstrate parameter
//! drift, and periodic absolute-rate resync repairs it — the mechanism of
//! the paper's footnote 2.
//!
//! Run with: `cargo run --release --example live_stream [drop_percent]`
//! (default 10, i.e. 10% of signaling cells lost — deliberately brutal).

use rcbr_suite::prelude::*;

fn main() {
    let drop_percent: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("drop_percent must be a number"))
        .unwrap_or(10.0);
    assert!(
        (0.0..=100.0).contains(&drop_percent),
        "drop_percent in [0, 100]"
    );

    // 5 minutes of live video.
    let mut rng = SimRng::from_seed(99);
    let trace = SyntheticMpegSource::star_wars_like().generate(7200, &mut rng);
    let tau = trace.frame_interval();
    let buffer = 300_000.0;

    // A 3-hop path; each hop has a 155 Mb/s port shared with background
    // reservations so renegotiations can genuinely fail.
    let mut switches: Vec<Switch> = (0..3).map(|_| Switch::new(&[155_000_000.0])).collect();
    for (i, sw) in switches.iter_mut().enumerate() {
        // Background load leaves ~2.5 Mb/s of headroom on the middle hop.
        let bg = if i == 1 { 152_500_000.0 } else { 100_000_000.0 };
        sw.setup(1000 + i as u32, 0, bg).expect("background setup");
    }
    let path = Path::new(vec![0, 1, 2], 0.001);
    let mut conn = RcbrConnection::establish(&mut switches, path, 1, trace.mean_rate())
        .expect("establish connection")
        .with_config(ServiceConfig::new(8)); // resync every 8 renegotiations
    let plane = FaultPlane::new(FaultConfig::drop_only(drop_percent / 100.0, 5));

    let policy = Ar1Policy::new(Ar1Config::fig2(100_000.0, trace.mean_rate(), tau), tau);
    let mut source = VcDriver::new(trace.clone(), policy, buffer);

    let mut denied = 0;
    let mut max_drift = 0.0f64;
    for _ in 0..trace.len() {
        if let Some(want) = source.step() {
            if conn
                .renegotiate(&mut switches, &plane, want)
                .unwrap_or(false)
            {
                source.on_grant();
            } else {
                source.on_deny();
                denied += 1;
            }
        }
        max_drift = max_drift.max(conn.drift(&switches));
    }

    println!("live stream over 3 hops with {drop_percent}% signaling loss:");
    println!("  renegotiation requests : {}", source.requests());
    println!("  denied by the network  : {denied}");
    println!("  signaling cells dropped: {}", conn.lost_cells());
    println!("  resyncs sent           : {}", conn.resyncs());
    println!("  worst observed drift   : {}", units::fmt_rate(max_drift));
    println!("  end-system loss        : {:.2e}", source.loss_fraction());
    println!(
        "  final believed rate    : {}",
        units::fmt_rate(conn.believed_rate())
    );

    // Final resync: the switches' view converges to the source's.
    conn.resync(&mut switches).expect("final resync");
    println!(
        "  drift after final resync: {}",
        units::fmt_rate(conn.drift(&switches))
    );
    assert_eq!(conn.drift(&switches), 0.0);
    conn.teardown(&mut switches).expect("teardown");
}

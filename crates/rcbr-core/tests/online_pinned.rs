//! The online source pinned to the bit.
//!
//! Fig. 2 (`run_online`) and the latency study (`online_with_latency`)
//! step their source through `VcDriver`, the slot the signaling runtime
//! steps. Their agreement with each other cannot see a change to that
//! slot's float expressions, so [`online_pinned_to_the_parent_commit`]
//! holds both to what the commit before the shared slot printed, when
//! each still stepped its own hand-written copy. Reassociate one
//! expression — `(q + a) − s` into `q + (a − s)` in
//! `FluidQueue::offer_prechecked`, say — and it moves. (The AR(1)
//! estimate reaches these figures only through quantised rates;
//! `source_round_equivalence.rs` pins its bits.)

use rcbr::latency::online_with_latency;
use rcbr_schedule::online::run_online;
use rcbr_schedule::{Ar1Config, Ar1Policy, GopAwareConfig, GopAwarePolicy};
use rcbr_sim::SimRng;
use rcbr_traffic::SyntheticMpegSource;

/// Loss, efficiency and peak backlog as bits, then the requests.
fn row(loss: f64, eff: f64, peak: f64, n: u64) -> [u64; 4] {
    [loss.to_bits(), eff.to_bits(), peak.to_bits(), n]
}

/// One 2 400-frame trace through `run_online` under AR(1) and under the
/// GoP-aware policy, then through `online_with_latency` at RTT 0, 0.25 s
/// and 2 s.
#[test]
fn online_pinned_to_the_parent_commit() {
    let buffer = 300_000.0;
    let trace = SyntheticMpegSource::star_wars_like().generate(2400, &mut SimRng::from_seed(11));
    let tau = trace.frame_interval();
    let ar1 = Ar1Config::fig2(64_000.0, trace.mean_rate(), tau);
    let gop = GopAwareConfig { ar1, gop_len: 12 };
    let mut rows = Vec::new();
    for r in [
        run_online(&trace, &mut Ar1Policy::new(ar1, tau), buffer),
        run_online(&trace, &mut GopAwarePolicy::new(gop, tau), buffer),
    ] {
        let eff = r.schedule.bandwidth_efficiency(&trace);
        rows.push(row(r.loss_fraction, eff, r.peak_backlog, r.requests as u64));
    }
    for delay in [0.0, 0.25, 2.0] {
        let o = online_with_latency(&trace, &mut Ar1Policy::new(ar1, tau), buffer, delay);
        let eff = o.bandwidth_efficiency;
        rows.push(row(o.loss_fraction, eff, o.peak_backlog, o.requests));
    }
    assert_eq!(rows, PARENT, "got {rows:#x?}");
}

/// The rows at the parent commit. RTT 0 matches `run_online` to the bit:
/// a grant there also lands at the next slot.
const PARENT: [[u64; 4]; 5] = [
    [0x0, 0x3fed_71e0_a3f5_7b3d, 0x4111_17ab_9bfc_62d4, 110],
    [0x0, 0x3fe5_aa97_8d46_2708, 0x410e_2820_377f_e69b, 50],
    [0x0, 0x3fed_71e0_a3f5_7b3d, 0x4111_17ab_9bfc_62d4, 110],
    [
        0x3f79_fdf1_21a1_4873,
        0x3fea_b45d_5e2c_5c55,
        0x4112_4f80_0000_0000,
        79,
    ],
    [
        0x3fb7_95ec_891a_1e9e,
        0x3fe2_9d71_fba5_2ca7,
        0x4112_4f80_0000_0000,
        33,
    ],
];

//! Satellite property tests for the survivability primitives:
//!
//! 1. Reroute selection is deterministic: the same (topology, failure
//!    set) produces byte-identical candidate route lists no matter what
//!    order the VCs are enumerated in — route choice is a pure function,
//!    never a race.
//! 2. One lease-expiry pass after arbitrary RM-cell loss leaves every
//!    port's reserved sum equal to the sum of the rates still granted:
//!    refreshed VCs keep exactly their rate, lapsed VCs drop to exactly
//!    zero, and the aggregate never drifts from the per-VCI ledger.

use proptest::prelude::*;
use rcbr_net::{Switch, Topology};

/// Build a ring of `n` switches plus deterministic chords drawn from
/// `chord_seed`, mirroring the runtime's `RuntimeConfig::topology` shape.
fn ring_with_chords(n: usize, chord_seed: u64) -> Topology {
    let mut topo = Topology::new(n, 1e-3);
    for i in 0..n {
        topo.add_duplex(i, (i + 1) % n, 0);
    }
    let mut s = chord_seed;
    let mut added: Vec<(usize, usize)> = Vec::new();
    for _ in 0..3 {
        // splitmix64-ish stepping; plenty for picking chord endpoints.
        s = s
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x6c62_272e_07bb_0142);
        let a = (s >> 8) as usize % n;
        let b = (s >> 32) as usize % n;
        let fresh = !added.contains(&(a, b)) && !added.contains(&(b, a));
        if a != b && (a + 1) % n != b && (b + 1) % n != a && fresh {
            topo.add_duplex(a, b, 0);
            added.push((a, b));
        }
    }
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same (seed, topology, failure set) => byte-identical candidate
    /// lists for every endpoint pair, regardless of enumeration order.
    #[test]
    fn reroute_selection_is_iteration_order_independent(
        chord_seed in 0u64..1024,
        killed in 0usize..8,
        down_a in 0usize..8,
    ) {
        let n = 8usize;
        let topo = ring_with_chords(n, chord_seed);
        let down_b = (down_a + 1) % n;
        let alive_switch = |s: usize| s != killed;
        let alive_link =
            |a: usize, b: usize| !((a, b) == (down_a, down_b) || (b, a) == (down_a, down_b));

        // Every endpoint pair, enumerated forward...
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
        let forward: Vec<Vec<Vec<usize>>> = pairs
            .iter()
            .map(|&(s, d)| topo.alive_routes(s, d, 4, 16, &alive_switch, &alive_link))
            .collect();
        // ...and backward, interleaved with unrelated queries in between
        // (a racy implementation with hidden state would diverge).
        let backward: Vec<Vec<Vec<usize>>> = pairs
            .iter()
            .rev()
            .map(|&(s, d)| {
                let _ = topo.alive_routes(d, s, 2, 16, &alive_switch, &alive_link);
                topo.alive_routes(s, d, 4, 16, &alive_switch, &alive_link)
            })
            .collect();
        for (i, (f, b)) in forward.iter().zip(backward.iter().rev()).enumerate() {
            prop_assert_eq!(f, b, "pair {:?} diverged", pairs[i]);
        }

        // The (length, lexicographic) order contract the deterministic
        // rotation in the runtime depends on.
        for routes in &forward {
            for w in routes.windows(2) {
                prop_assert!(
                    w[0].len() < w[1].len() || (w[0].len() == w[1].len() && w[0] <= w[1]),
                    "candidates out of (len, lex) order: {:?}",
                    routes
                );
            }
            for r in routes {
                prop_assert!(r.iter().all(|&h| alive_switch(h)));
                prop_assert!(r.windows(2).all(|w| alive_link(w[0], w[1])));
            }
        }
    }

    /// Install a population of VCs, refresh an arbitrary subset (the RM
    /// cells that survived), expire once: reserved == granted everywhere.
    #[test]
    fn lease_expiry_pass_leaves_reserved_equal_to_granted(
        refresh_mask in 0u32..(1 << 12),
        lease in 1u64..32,
    ) {
        let num_vcs = 12u32;
        let rate = 10_000.0;
        let mut sw = Switch::new(&[num_vcs as f64 * rate * 2.0]);
        for vci in 0..num_vcs {
            let admitted = sw.setup(vci, 0, rate).expect("fresh VCI");
            prop_assert!(admitted);
        }
        // RM cells arrive at `now` for the masked subset only.
        let now = 100u64;
        for vci in 0..num_vcs {
            if refresh_mask & (1 << vci) != 0 {
                sw.touch_lease(vci, now);
            }
        }
        // One sweep past the unrefreshed VCs' deadline (their last
        // refresh is the epoch) but inside the refreshed ones'.
        let sweep_at = now + lease;
        let reclaimed = sw.expire_leases(sweep_at, lease);
        let lapsed = (0..num_vcs)
            .filter(|v| refresh_mask & (1 << v) == 0)
            .count() as u64;
        prop_assert_eq!(reclaimed, lapsed);

        let mut granted_sum = 0.0;
        for vci in 0..num_vcs {
            let held = sw.vci_rate(vci).expect("entries survive expiry");
            if refresh_mask & (1 << vci) != 0 {
                prop_assert_eq!(held, rate, "refreshed VC {} lost bandwidth", vci);
            } else {
                prop_assert_eq!(held, 0.0, "lapsed VC {} kept bandwidth", vci);
            }
            granted_sum += held;
        }
        let port = sw.port(0).expect("one port");
        prop_assert!(
            (port.reserved() - granted_sum).abs() < 1e-9,
            "reserved sum {} != granted sum {}",
            port.reserved(),
            granted_sum
        );
        prop_assert!(sw.is_consistent());
    }
}

//! Soft-state reservation leases on the signaling plane's *logical* clock.
//!
//! Section III-B's RSVP observation — reservation state that expires
//! unless refreshed — as the sharded runtime needs it: use-it-or-lose-it,
//! but measured in supersteps, so that expiry is a pure function of
//! `(superstep, refresh history)` and identical at every shard count.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Per VCI, the superstep of the last RM cell that touched it;
/// [`LeaseTable::expired`] lists the VCIs whose lease has lapsed, in
/// ascending VCI order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LeaseTable {
    last_refresh: BTreeMap<u32, u64>,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that an RM cell for `vci` was processed at `now`.
    pub fn touch(&mut self, vci: u32, now: u64) {
        self.last_refresh.insert(vci, now);
    }

    /// The superstep `vci` was last refreshed at (`0` if never touched —
    /// setup time, by the runtime's convention).
    pub fn last_refresh(&self, vci: u32) -> u64 {
        self.last_refresh.get(&vci).copied().unwrap_or(0)
    }

    /// Drop `vci`'s record (teardown).
    pub fn forget(&mut self, vci: u32) {
        self.last_refresh.remove(&vci);
    }

    /// The VCIs among `routed` whose lease has lapsed at `now`: no refresh
    /// for strictly more than `lease_supersteps` supersteps. Ascending VCI
    /// order (deterministic for audits and counters).
    pub fn expired(&self, routed: &[u32], now: u64, lease_supersteps: u64) -> Vec<u32> {
        routed
            .iter()
            .copied()
            .filter(|&vci| now.saturating_sub(self.last_refresh(vci)) > lease_supersteps)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_table_expires_only_stale_vcis() {
        let mut t = LeaseTable::new();
        t.touch(1, 10);
        t.touch(2, 40);
        // VCI 3 was never touched: last refresh is setup time 0.
        let routed = [1, 2, 3];
        assert_eq!(t.expired(&routed, 45, 30), vec![1, 3]);
        assert_eq!(t.expired(&routed, 45, 50), Vec::<u32>::new());
        // A refresh rescues a lease.
        t.touch(1, 44);
        assert_eq!(t.expired(&routed, 45, 30), vec![3]);
        // Forgetting reverts to the setup-time convention.
        t.forget(2);
        assert_eq!(t.last_refresh(2), 0);
    }
}

//! Deterministic work counters for the trellis kernel.

use serde::{Deserialize, Serialize};

/// Work counters accumulated by one [`super::OfflineOptimizer`] run.
///
/// Every field is a pure function of `(config, trace)`: counters are
/// bit-identical across reruns, which makes them usable as a CI regression oracle
/// (a changed counter means a changed algorithm, with none of the noise of
/// wall-clock gating).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrellisStats {
    /// Candidate nodes the kernel evaluated: the `(survivor, rate)` pairs
    /// feasible under the buffer/delay bound that front pruning did not
    /// rule out before building them (every feasible pair in the first
    /// slot, where there is no column yet).
    pub nodes_expanded: u64,
    /// Survivors kept after Lemma 1 pruning (arena entries written).
    pub nodes_kept: u64,
    /// Evaluated candidates discarded by Lemma 1 pruning
    /// (`expanded − kept`).
    pub nodes_pruned: u64,
    /// Survivors discarded by the optional beam truncation.
    pub beam_dropped: u64,
    /// Mark-and-compact passes over the parent arena.
    pub compactions: u64,
    /// Dead arena entries reclaimed across all compactions.
    pub compacted_entries: u64,
    /// Slots whose rate was committed early because every live path
    /// shared it (truncated from the arena into the output prefix).
    pub committed_slots: u64,
    /// Largest arena length observed (live + garbage, before compaction).
    pub peak_arena: u64,
    /// Largest survivor-column length observed.
    pub peak_survivors: u64,
}

impl TrellisStats {
    /// Record a new arena high-water mark.
    pub(super) fn observe_arena(&mut self, len: usize) {
        self.peak_arena = self.peak_arena.max(len as u64);
    }

    /// Record a new survivor-column high-water mark.
    pub(super) fn observe_survivors(&mut self, len: usize) {
        self.peak_survivors = self.peak_survivors.max(len as u64);
    }
}

//! The parent-pointer arena with mark-and-compact garbage collection.
//!
//! Path reconstruction needs, for every survivor, the chain of rate
//! choices back to slot 0. The reference implementation appends one
//! `(parent, rate)` entry per survivor per slot and never frees anything,
//! so its arena is `O(T · survivors)` for a `T`-slot trace. This arena
//! bounds memory with two exact (lossless) mechanisms, triggered whenever
//! the arena doubles past its post-collection size:
//!
//! * **mark-and-compact** — entries reachable from the live survivor
//!   column are marked by climbing each survivor's parent chain and slid
//!   down over the garbage, keeping their order (a parent index is always
//!   smaller than its child's), with survivor pointers remapped;
//! * **committed-prefix truncation** — the maximal chain prefix shared by
//!   *every* live survivor is, by Lemma 1's optimality argument, a prefix
//!   of whatever path the optimizer eventually returns. Its rates are
//!   moved to an output vector and the chain is cut, so the arena holds
//!   only the part of the trellis where live paths still disagree.
//!
//! Together these keep the live arena within a constant factor of the
//! survivor set's disagreement window, independent of trace length.

use super::stats::TrellisStats;

/// Sentinel parent index marking a path root.
pub(super) const NONE: u32 = u32::MAX;

/// Compactions are not worth their pass below this arena size.
const MIN_COMPACT_LEN: usize = 16 * 1024;

/// Growth factor past the post-collection size that triggers collection.
const GROWTH_FACTOR: usize = 2;

/// `child` value of a live entry the committed prefix cannot pass.
const MANY: u32 = NONE - 1;

/// Parent chains the collector's mark climbs at once.
const CLIMBERS: usize = 8;

/// The parent-pointer arena.
#[derive(Debug, Default)]
pub(super) struct Arena {
    /// Parent index of each entry (`NONE` for roots).
    parent: Vec<u32>,
    /// Rate index chosen at each entry's slot.
    rate: Vec<u16>,
    /// Rates (in chronological order) already proven common to all live
    /// paths and truncated out of the chains.
    committed: Vec<u16>,
    /// Arena length at which the next collection triggers.
    watermark: usize,
    // Scratch buffers, reused across collections. They only grow and are
    // never cleared: an entry is live in the current collection iff its
    // `stamp` equals `epoch`, and `child` and `remap` are read only for
    // live entries, after this collection wrote them.
    epoch: u32,
    stamp: Vec<u32>,
    /// A live entry's only live child, or `MANY` (two or more, or a
    /// survivor ends on the entry itself).
    child: Vec<u32>,
    remap: Vec<u32>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            watermark: MIN_COMPACT_LEN,
            ..Self::default()
        }
    }

    /// Number of entries currently stored (live + garbage).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Rates already committed, chronological.
    pub fn committed(&self) -> &[u16] {
        &self.committed
    }

    /// Append an entry and return its index.
    pub fn push(&mut self, parent: u32, rate: u16) -> u32 {
        assert!(
            self.parent.len() < MANY as usize,
            "trellis arena exhausted; use a beam or a coarser grid"
        );
        let idx = self.parent.len() as u32;
        self.parent.push(parent);
        self.rate.push(rate);
        idx
    }

    /// Append `entries` (parent, rate) and return the first one's index;
    /// the rest follow it.
    pub fn extend(&mut self, entries: impl ExactSizeIterator<Item = (u32, u16)>) -> u32 {
        let idx = self.parent.len();
        assert!(
            idx + entries.len() < MANY as usize,
            "trellis arena exhausted; use a beam or a coarser grid"
        );
        self.parent.reserve(entries.len());
        self.rate.reserve(entries.len());
        for (parent, rate) in entries {
            self.parent.push(parent);
            self.rate.push(rate);
        }
        idx as u32
    }

    /// Walk the chain starting at `idx`, yielding rate indices from the
    /// entry itself back to its root (reverse chronological order).
    pub fn walk(&self, mut idx: u32) -> impl Iterator<Item = u16> + '_ {
        std::iter::from_fn(move || {
            if idx == NONE {
                return None;
            }
            let rate = self.rate[idx as usize];
            idx = self.parent[idx as usize];
            Some(rate)
        })
    }

    /// Collect garbage if the arena has outgrown its watermark, remapping
    /// the survivor pointers in `survivors` in place.
    pub fn maybe_collect(&mut self, survivors: &mut [u32], stats: &mut TrellisStats) {
        stats.observe_arena(self.len());
        if self.len() >= self.watermark {
            self.collect(survivors, stats);
        }
    }

    /// Unconditional mark, commit, and compact pass.
    pub fn collect(&mut self, survivors: &mut [u32], stats: &mut TrellisStats) {
        let len = self.parent.len();
        stats.compactions += 1;
        if self.stamp.len() <= len {
            self.stamp.resize(len + 1, 0);
            self.child.resize(len + 1, 0);
            self.remap.resize(len + 1, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;

        // Mark: from each survivor, climb the parent chain until it meets
        // an entry already marked — every live entry is visited once, the
        // garbage never. Climbing from a child into an unmarked parent
        // makes it that parent's only child so far; meeting a marked
        // entry gives it one more, or a survivor's reference. The marks
        // come out the same in any order of steps, so `CLIMBERS` climbs
        // run interleaved: each step waits on a load, and the climbs'
        // loads overlap.
        let mut roots: u32 = 0;
        let mut the_root: u32 = NONE;
        let mut starts = survivors.iter().copied().filter(|&a| a != NONE);
        // A climber's position and the child it arrives from (`MANY` for
        // a survivor's own entry); `NONE` for an idle climber.
        let mut climbers = [(NONE, MANY); CLIMBERS];
        for c in climbers.iter_mut() {
            c.0 = starts.next().unwrap_or(NONE);
        }
        let mut busy = climbers.iter().filter(|c| c.0 != NONE).count();
        while busy > 0 {
            for c in climbers.iter_mut() {
                let (i, child) = (c.0 as usize, c.1);
                if c.0 == NONE {
                    continue;
                }
                let stop = if self.stamp[i] == epoch {
                    self.child[i] = MANY;
                    true
                } else {
                    self.stamp[i] = epoch;
                    self.child[i] = child;
                    let p = self.parent[i];
                    if p == NONE {
                        roots += 1;
                        the_root = i as u32;
                    }
                    *c = (p, i as u32);
                    p == NONE
                };
                if stop {
                    *c = (starts.next().unwrap_or(NONE), MANY);
                    busy -= usize::from(c.0 == NONE);
                }
            }
        }

        // Commit the prefix common to all live paths: from a unique root,
        // follow single-child links that no survivor terminates on.
        if roots == 1 {
            let mut cur = the_root;
            while self.child[cur as usize] != MANY {
                self.committed.push(self.rate[cur as usize]);
                stats.committed_slots += 1;
                self.stamp[cur as usize] = 0;
                cur = self.child[cur as usize];
            }
            // The first uncommitted entry becomes the new chain root.
            self.parent[cur as usize] = NONE;
        }

        // Compact: slide live entries down, building the remap table. The
        // pass is branch-free (about half the entries are garbage, in no
        // pattern a predictor learns): a dead entry is written at `out`
        // too, then overwritten, and a root reads the spare `remap[len]`.
        let mut out = 0usize;
        for i in 0..len {
            let live = self.stamp[i] == epoch;
            let p = self.parent[i];
            let mapped = self.remap[(p as usize).min(len)];
            self.parent[out] = if p == NONE { NONE } else { mapped };
            self.rate[out] = self.rate[i];
            self.remap[i] = out as u32;
            out += usize::from(live);
        }
        stats.compacted_entries += (len - out) as u64;
        self.parent.truncate(out);
        self.rate.truncate(out);
        for a in survivors.iter_mut() {
            if *a != NONE {
                *a = self.remap[*a as usize];
            }
        }

        self.watermark = (out * GROWTH_FACTOR).max(MIN_COMPACT_LEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_follows_parents() {
        let mut a = Arena::new();
        let r = a.push(NONE, 1);
        let c1 = a.push(r, 2);
        let c2 = a.push(c1, 3);
        let rates: Vec<u16> = a.walk(c2).collect();
        assert_eq!(rates, vec![3, 2, 1]);
    }

    #[test]
    fn collect_commits_common_prefix_and_drops_garbage() {
        let mut a = Arena::new();
        let mut stats = TrellisStats::default();
        // Chain 0 -> 1 -> 2, then a fork at 2 into 3 and 4; 5 is garbage.
        let n0 = a.push(NONE, 10);
        let n1 = a.push(n0, 11);
        let n2 = a.push(n1, 12);
        let n3 = a.push(n2, 13);
        let n4 = a.push(n2, 14);
        let _garbage = a.push(n1, 99);
        let mut survivors = vec![n3, n4];
        a.collect(&mut survivors, &mut stats);
        // 10, 11 are common to both live paths; 12 is the fork point and
        // stays (as the new root).
        assert_eq!(a.committed(), &[10, 11]);
        assert_eq!(a.len(), 3);
        let w0: Vec<u16> = a.walk(survivors[0]).collect();
        let w1: Vec<u16> = a.walk(survivors[1]).collect();
        assert_eq!(w0, vec![13, 12]);
        assert_eq!(w1, vec![14, 12]);
        assert_eq!(stats.committed_slots, 2);
        assert_eq!(stats.compacted_entries, 3); // 10, 11 committed + 99 dead
    }

    #[test]
    fn collect_with_survivor_on_trunk_stops_committing() {
        let mut a = Arena::new();
        let mut stats = TrellisStats::default();
        let n0 = a.push(NONE, 1);
        let n1 = a.push(n0, 2);
        let n2 = a.push(n1, 3);
        // One survivor ends at n1: nothing past n0 can be committed.
        let mut survivors = vec![n1, n2];
        a.collect(&mut survivors, &mut stats);
        assert_eq!(a.committed(), &[1]);
        assert_eq!(a.walk(survivors[0]).collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.walk(survivors[1]).collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn collect_with_multiple_roots_commits_nothing() {
        let mut a = Arena::new();
        let mut stats = TrellisStats::default();
        let r0 = a.push(NONE, 1);
        let r1 = a.push(NONE, 2);
        let mut survivors = vec![r0, r1];
        a.collect(&mut survivors, &mut stats);
        assert!(a.committed().is_empty());
        assert_eq!(a.len(), 2);
    }
}

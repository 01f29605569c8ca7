//! The VC table: every VC routed at one switch, one entry each.
//!
//! Section III-B's fast path is "one lookup" for the VCI and "a second
//! lookup" for its port; the first is [`VcTable::find`]. Entries sit in
//! one `Vec` in ascending VCI order, so every ordered view the audits and
//! the lease sweep need is plain iteration. Beside it an open-addressed
//! index (Fibonacci hash of the VCI, linear probing, at most half full)
//! maps a VCI to its entry's position: a resolve is a multiply, a shift
//! and, nearly always, one compare that the branch predictor gets right.
//! Both are sized by the VCs actually routed here — a switch of a
//! 4096-VC run that carries 32 of them pays for 32.
//!
//! Positions move when an entry is inserted or removed, so they are good
//! for one visit only; both are call-setup / teardown work and re-link the
//! whole index, a few dozen buckets on a switch of the runtime's shape.

use serde::{Deserialize, Serialize};

/// A free index bucket.
const EMPTY: u32 = u32::MAX;

/// The superstep a lease nobody has refreshed yet dates from: set-up
/// time, by the runtime's convention.
pub(crate) const SETUP_SUPERSTEPS: u64 = 0;

/// One routed VC: where it leaves the switch, what it holds there, and
/// when an RM cell last refreshed its lease.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct VcEntry {
    pub vci: u32,
    pub port: u32,
    /// Reserved rate, bits/second; a VC holding nothing stores `+0.0`.
    pub rate: f64,
    pub lease_refreshed_at: u64,
}

impl VcEntry {
    /// `vci` routed to `port`, holding nothing, lease as at set-up.
    pub fn new(vci: u32, port: usize) -> Self {
        Self {
            vci,
            port: port as u32,
            rate: 0.0,
            lease_refreshed_at: SETUP_SUPERSTEPS,
        }
    }
}

/// The routed VCs of one switch (or of one stand-alone port).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct VcTable {
    /// Ascending by VCI.
    entries: Vec<VcEntry>,
    /// Positions into `entries`; a power-of-two length of at least twice
    /// `entries.len()`, so a probe always ends at an `EMPTY` bucket.
    index: Vec<u32>,
}

impl VcTable {
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            index: vec![EMPTY; 2],
        }
    }

    /// The entries, ascending by VCI.
    pub fn entries(&self) -> &[VcEntry] {
        &self.entries
    }

    /// The entries, ascending by VCI; the VCIs themselves must not be
    /// changed.
    pub fn entries_mut(&mut self) -> &mut [VcEntry] {
        &mut self.entries
    }

    fn bucket(&self, vci: u32) -> usize {
        let bits = self.index.len().trailing_zeros();
        (vci.wrapping_mul(0x9e37_79b9) >> (32 - bits)) as usize
    }

    /// Position of `vci`'s entry, if it is routed here.
    #[inline]
    pub fn find(&self, vci: u32) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut b = self.bucket(vci);
        loop {
            let pos = self.index[b] as usize;
            match self.entries.get(pos) {
                None => return None, // EMPTY
                Some(e) if e.vci == vci => return Some(pos),
                Some(_) => b = (b + 1) & mask,
            }
        }
    }

    /// Add `entry`, whose VCI must not have one yet, and return its
    /// position.
    pub fn insert(&mut self, entry: VcEntry) -> usize {
        debug_assert!(self.find(entry.vci).is_none(), "VCI already has an entry");
        let pos = self.entries.partition_point(|e| e.vci < entry.vci);
        self.entries.insert(pos, entry);
        self.relink();
        pos
    }

    /// Remove and return the entry at `pos`.
    pub fn remove(&mut self, pos: usize) -> VcEntry {
        let entry = self.entries.remove(pos);
        self.relink();
        entry
    }

    /// Rebuild the index from the entries, at twice their number.
    fn relink(&mut self) {
        assert!(self.entries.len() < EMPTY as usize / 2, "VC table is full");
        let buckets = (self.entries.len() * 2).next_power_of_two().max(2);
        self.index.clear();
        self.index.resize(buckets, EMPTY);
        for (pos, entry) in self.entries.iter().enumerate() {
            let mut b = self.bucket(entry.vci);
            while self.index[b] != EMPTY {
                b = (b + 1) & (buckets - 1);
            }
            self.index[b] = pos as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_what_was_inserted_through_growth_removal_and_reuse() {
        let mut t = VcTable::new();
        assert_eq!(t.find(0), None);
        // Out of order, strided like a ring switch's VCIs, across several
        // index doublings.
        let vcis: Vec<u32> = (0..200u32).map(|i| (i * 96 + i % 4) ^ 0x55).collect();
        for &v in &vcis {
            let pos = t.insert(VcEntry::new(v, 0));
            assert_eq!(t.entries()[pos].vci, v);
        }
        assert!(t.entries().windows(2).all(|w| w[0].vci < w[1].vci));
        for &v in &vcis {
            assert_eq!(t.entries()[t.find(v).expect("inserted")].vci, v);
        }
        assert_eq!(t.find(7), None);
        for &v in vcis.iter().step_by(3) {
            let pos = t.find(v).expect("inserted");
            assert_eq!(t.remove(pos).vci, v);
            assert_eq!(t.find(v), None);
        }
        for (i, &v) in vcis.iter().enumerate() {
            assert_eq!(t.find(v).is_some(), i % 3 != 0, "VCI {v}");
        }
        let pos = t.insert(VcEntry::new(vcis[0], 0));
        assert_eq!(t.find(vcis[0]), Some(pos));
    }
}

//! Struct-of-arrays survivor columns, stored as per-rate chains.
//!
//! The expansion loops touch `q` and `w` for every candidate but `gen`/
//! `arena` only for the few that survive their bound checks, so each field
//! is its own vector and the hot scans stay dense in cache. Columns are
//! double-buffered by the kernel and every vector is reused across slots —
//! the steady state performs no allocation.
//!
//! ## Layout
//!
//! A [`Column`] stores its survivors grouped by rate: rate `r`'s **chain**
//! is `start[r]..end[r]` of the node vectors, ascending in `q` and strictly
//! descending in `w`. (The sweep keeps a survivor at rate `r` only below
//! `r`'s running weight minimum, in ascending `q` or bucket order, so every
//! column it emits has this shape, and so does any subset of one.) The
//! chains are laid out at their exact lengths, so the storage's first
//! [`Column::len`] entries are the survivors. Beside the chains, the
//! column lists its **front** (see [`super::front`]) as chain positions in
//! `(q, gen)` order.
//! Target rate `r`'s candidate stream is then its own chain merged with the
//! front, each cut by its own `partition_point` — no whole-column order is
//! ever materialised.
//!
//! ## Tie order
//!
//! The `gen` vector remembers each survivor's rank in *reference order* —
//! the order the retained [`super::reference`] implementation would have
//! stored it (its sweep-emission order, or its weight-sorted order after a
//! beam truncation). All tie-breaks quote `gen`, never the storage index,
//! so the kernel's float-tie decisions are bit-identical to the
//! reference's stable sorts.

use super::arena::NONE;

/// Survivors in one flat list, struct of arrays: the staging area of the
/// exact-mode sweep, the first slot and a beam truncation.
#[derive(Debug, Default)]
pub(super) struct Nodes {
    /// Buffer occupancy at the end of the slot, bits.
    pub q: Vec<f64>,
    /// Weight: cost of the best path reaching this node.
    pub w: Vec<f64>,
    /// Rate index into the grid.
    pub rate: Vec<u16>,
    /// Index into the parent arena.
    pub arena: Vec<u32>,
    /// Rank in reference order (see the module docs).
    pub gen: Vec<u32>,
}

impl Nodes {
    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Drop all survivors, keeping the allocations.
    pub fn clear(&mut self) {
        self.q.clear();
        self.w.clear();
        self.rate.clear();
        self.arena.clear();
        self.gen.clear();
    }

    /// Append a survivor; `gen` is its reference-order rank.
    pub fn push(&mut self, q: f64, w: f64, rate: u16, arena: u32, gen: u32) {
        self.q.push(q);
        self.w.push(w);
        self.rate.push(rate);
        self.arena.push(arena);
        self.gen.push(gen);
    }

    /// Grow every vector to at least `n` entries.
    fn reserve_len(&mut self, n: usize) {
        if self.q.len() < n {
            self.q.resize(n, 0.0);
            self.w.resize(n, 0.0);
            self.rate.resize(n, 0);
            self.arena.resize(n, NONE);
            self.gen.resize(n, 0);
        }
    }

    /// Reorder by the permutation `perm` (new index `i` takes the survivor
    /// previously at `perm[i]`), using `scratch` to avoid allocation.
    ///
    /// # Panics
    /// Panics if `perm` is longer than the list.
    pub fn apply_permutation(&mut self, perm: &[u32], scratch: &mut Nodes) {
        scratch.clear();
        for &p in perm {
            let p = p as usize;
            scratch.push(
                self.q[p],
                self.w[p],
                self.rate[p],
                self.arena[p],
                self.gen[p],
            );
        }
        std::mem::swap(self, scratch);
    }

    /// Sort by `(q, gen)` ascending — the column order [`Column::fill`]
    /// takes. `perm` and `scratch` are reused scratch buffers.
    pub fn sort_by_q(&mut self, perm: &mut Vec<u32>, scratch: &mut Nodes) {
        perm.clear();
        perm.extend(0..self.len() as u32);
        let q = &self.q;
        let gen = &self.gen;
        perm.sort_unstable_by(|&a, &b| {
            q[a as usize]
                .total_cmp(&q[b as usize])
                .then(gen[a as usize].cmp(&gen[b as usize]))
        });
        self.apply_permutation(perm, scratch);
    }
}

/// One survivor column as per-rate chains plus its front (module docs).
#[derive(Debug, Default)]
pub(super) struct Column {
    /// Chain storage, rate by rate; entries past [`Column::len`] are
    /// stale.
    pub nodes: Nodes,
    /// Rate `r`'s chain starts at `start[r]`; `start[m]` is the number of
    /// survivors.
    pub start: Vec<u32>,
    /// Rate `r`'s chain is filled up to `end[r]`, which reaches
    /// `start[r + 1]` once the column is complete.
    pub end: Vec<u32>,
    /// Chain positions of the front's members, in `(q, gen)` order.
    pub front: Vec<u32>,
}

impl Column {
    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.start.last().map_or(0, |&n| n as usize)
    }

    /// Rate `r`'s chain, as storage positions.
    #[inline]
    pub fn chain(&self, r: usize) -> std::ops::Range<usize> {
        self.start[r] as usize..self.end[r] as usize
    }

    /// Lay out empty chains of the given lengths (`lens[r]` survivors at
    /// rate `r`) for a sweep to fill through [`Column::keep`].
    pub fn begin(&mut self, lens: impl Iterator<Item = u32>) {
        self.end.clear();
        self.end.extend(lens);
        self.lay_out();
    }

    /// [`Column::begin`] with the lengths already in `end`.
    fn lay_out(&mut self) {
        self.start.clear();
        self.front.clear();
        let mut acc = 0u32;
        self.start.push(0);
        for e in self.end.iter_mut() {
            (*e, acc) = (acc, acc + *e);
            self.start.push(acc);
        }
        self.nodes.reserve_len(acc as usize);
    }

    /// Append a survivor to its rate's chain (which must stay q-ascending
    /// and w-descending) and return its storage position.
    #[inline]
    pub fn keep(&mut self, q: f64, w: f64, rate: u16, arena: u32, gen: u32) -> u32 {
        let pos = self.end[rate as usize];
        debug_assert!(pos < self.start[rate as usize + 1], "chain overflow");
        debug_assert!(
            pos == self.start[rate as usize] || {
                let last = pos as usize - 1;
                self.nodes.q[last] < q && self.nodes.w[last] > w
            },
            "chain {rate} must stay q-ascending and w-descending"
        );
        self.end[rate as usize] = pos + 1;
        let p = pos as usize;
        self.nodes.q[p] = q;
        self.nodes.w[p] = w;
        self.nodes.rate[p] = rate;
        self.nodes.arena[p] = arena;
        self.nodes.gen[p] = gen;
        pos
    }

    /// Every survivor's `arena` entry.
    pub fn arenas_mut(&mut self) -> &mut [u32] {
        let n = self.len();
        &mut self.nodes.arena[..n]
    }

    /// Rebuild the column from `staged` survivors over a grid of `m`
    /// rates. `staged` must be in `(q, gen)` order: the chains are its
    /// stable scatter by rate, and the front is its running `(w, gen)`
    /// minimum.
    pub fn fill(&mut self, staged: &Nodes, m: usize) {
        let n = staged.len();
        // Chain lengths: the survivor count of each rate.
        self.end.clear();
        self.end.resize(m, 0);
        for &r in &staged.rate {
            self.end[r as usize] += 1;
        }
        self.lay_out();
        let mut front_w = f64::INFINITY;
        let mut front_gen = u32::MAX;
        for i in 0..n {
            let (q, w, gen) = (staged.q[i], staged.w[i], staged.gen[i]);
            debug_assert!(
                i == 0
                    || staged.q[i - 1]
                        .total_cmp(&q)
                        .then(staged.gen[i - 1].cmp(&gen))
                        .is_lt(),
                "staged survivors must be in (q, gen) order"
            );
            let pos = self.keep(q, w, staged.rate[i], staged.arena[i], gen);
            if w.total_cmp(&front_w).then(gen.cmp(&front_gen)).is_lt() {
                self.front.push(pos);
                front_w = w;
                front_gen = gen;
            } else {
                // The column lemma the pruning proof needs (`front.rs`):
                // the earlier survivor that dominates this one is also
                // earlier in reference order.
                debug_assert!(front_gen < gen, "column lemma violated at survivor {i}");
            }
        }
        debug_assert_eq!(self.end, self.start[1..], "every chain is full");
    }

    /// Copy every survivor to `out`, chain by chain.
    pub fn flatten_into(&self, out: &mut Nodes) {
        let n = self.len();
        out.clear();
        out.q.extend_from_slice(&self.nodes.q[..n]);
        out.w.extend_from_slice(&self.nodes.w[..n]);
        out.rate.extend_from_slice(&self.nodes.rate[..n]);
        out.arena.extend_from_slice(&self.nodes.arena[..n]);
        out.gen.extend_from_slice(&self.nodes.gen[..n]);
    }
}

//! Struct-of-arrays survivor columns.
//!
//! One trellis column is four parallel vectors instead of a `Vec<Node>`:
//! the expansion loop touches `q` for every candidate but `w`/`rate`/
//! `arena` only for the few that survive its bound checks, so splitting
//! the fields keeps the hot scan dense in cache. Columns are double-
//! buffered by the kernel and every vector is reused across slots — the
//! steady state performs no allocation.
//!
//! ## Ordering invariant
//!
//! Between slots a column is sorted by `q` (ascending, `total_cmp`), which
//! is what lets a fixed target rate generate an already-`q`-sorted
//! candidate stream. The `gen` vector remembers each survivor's rank in
//! *reference order* — the order the retained [`super::reference`]
//! implementation would have stored it (its sweep-emission order, or its
//! weight-sorted order after a beam truncation). All tie-breaks quote
//! `gen`, never the storage index, so the kernel's float-tie decisions are
//! bit-identical to the reference's stable sorts.

/// One survivor column in struct-of-arrays layout.
#[derive(Debug, Default)]
pub(super) struct Column {
    /// Buffer occupancy at the end of the slot, bits. Sorted ascending.
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

impl Column {
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

    /// Reorder the column by the permutation `perm` (new index `i` takes
    /// the survivor previously at `perm[i]`), using `scratch` columns to
    /// avoid allocation.
    ///
    /// # Panics
    /// Panics if `perm` is longer than the column.
    pub fn apply_permutation(&mut self, perm: &[u32], scratch: &mut Column) {
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

    /// Restore the ordering invariant after a beam truncation, which
    /// leaves the column in weight order: sort by `(q, gen)` ascending.
    /// `perm` and `scratch` are reused scratch buffers.
    pub fn sort_by_q(&mut self, perm: &mut Vec<u32>, scratch: &mut Column) {
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

    /// Restore the ordering invariant after a sweep: sort by `(q, gen)`
    /// ascending, by insertion.
    ///
    /// A sweep emits buckets in ascending order, and `bucket(q)` is
    /// monotone, so survivors of different buckets are already in strict
    /// q order; only within a bucket (at most one survivor per rate) are
    /// they in `(w, gen)` order. Insertion never moves a survivor past a
    /// strictly smaller q, so it restores one bucket run at a time, and
    /// an exact-mode column (one run of already-sorted survivors) costs a
    /// single pass. The `(q, gen)` key is unique, so the result equals
    /// [`Column::sort_by_q`]'s.
    pub fn restore_q_order(&mut self) {
        let before = |(q, gen): (f64, u32), (pq, pg): (f64, u32)| {
            q.total_cmp(&pq).then(gen.cmp(&pg)).is_lt()
        };
        for i in 1..self.len() {
            let key = (self.q[i], self.gen[i]);
            if !before(key, (self.q[i - 1], self.gen[i - 1])) {
                continue;
            }
            // Shift the larger keys up one by one: runs are short, so
            // plain moves beat a `rotate_right` (a memmove) per vector.
            let (w, rate, arena) = (self.w[i], self.rate[i], self.arena[i]);
            let mut j = i;
            while j > 0 && before(key, (self.q[j - 1], self.gen[j - 1])) {
                self.q[j] = self.q[j - 1];
                self.w[j] = self.w[j - 1];
                self.rate[j] = self.rate[j - 1];
                self.arena[j] = self.arena[j - 1];
                self.gen[j] = self.gen[j - 1];
                j -= 1;
            }
            (self.q[j], self.gen[j]) = key;
            self.w[j] = w;
            self.rate[j] = rate;
            self.arena[j] = arena;
        }
    }
}

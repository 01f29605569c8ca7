//! Front pruning: the per-rate candidate streams both expansion modes
//! read.
//!
//! A survivor that some earlier survivor of its column dominates can
//! never win a rate change, so it is expanded only to its own rate. In
//! column order — ascending `(q, gen)` — survivor `s` is on the column's
//! **front** `G` unless some earlier survivor `j` has
//! `(w_j, gen_j) < (w_s, gen_s)` in lexicographic order (a running
//! minimum). The column stores `G` beside its per-rate chains
//! ([`super::soa`]); the sweep that emits a column finds it as it goes.
//! Target rate `r`'s candidate stream is then rate `r`'s chain merged, in
//! `q` order, with `G`'s members at other rates (those at rate `r` are in
//! the chain already). Both lists are q-sorted and feasibility is monotone
//! in `q`, so each is cut at the slot's buffer bound by its own
//! `partition_point` ([`Cuts`]); the stream holds exactly the column's
//! feasible own-rate and front survivors, in `q` order. Survivors of equal
//! `q` may come in either order: both modes consume a run of equal `q` as
//! a set (exact mode sorts each equal-q group; in quantized mode equal `q`
//! is one bucket, and a bucket's representative is its `(w, gen)`
//! minimum).
//!
//! ## Why the output is bit-identical
//!
//! Take `s` off the front and `j` its witness: earlier in the column,
//! with `(w_j, gen_j) < (w_s, gen_s)`. Fix a target `r ≠ rate(s)`.
//!
//! * `q_j ≤ q_s`, and `q ↦ max(q + x − svc, 0)` is monotone, so
//!   `q_j' ≤ q_s'`: `j`'s candidate is feasible whenever `s`'s is, and its
//!   bucket is no later.
//! * `s` pays α and `j` pays 0 or α (α ≥ 0, which `CostModel::new`
//!   enforces), so `w_j ≤ w_s` gives `w_j' ≤ w_s'` (float addition is
//!   monotone).
//! * If rounding turns `w_j < w_s` into `w_j' == w_s'`, the tie goes to
//!   `gen`, and `j` wins it by the **column lemma**: if `j` is earlier and
//!   `w_j < w_s`, then `gen_j < gen_s`. The lemma holds because `gen` is
//!   emission order — q order in exact mode; bucket order, then `w` order,
//!   in quantized mode; weight order after a beam truncation — and the
//!   code that finds the front `debug_assert!`s it.
//!
//! So `j`'s candidate to `r` precedes `s`'s in the reference's
//! `(q | bucket, w, gen, rate)` order. Once the sweep has seen it, kept
//! or not, `per_rate_min[r] ≤ w_j'` or `global_min ≤ w_j' − α` (a
//! bucket-dedup skip implies the former: the cell's kept candidate came
//! earlier at no larger `w`), and both minima only tighten, so `s`'s
//! candidate would be rejected. Rejected candidates never change sweep
//! state, so dropping every such candidate from the streams leaves the
//! sweep's kept sequence — and with it the schedule, the cost and every
//! counter but the number of candidates evaluated — unchanged.

use super::kernel::SlotCtx;
use super::soa::Column;

/// Each rate's feasibility cuts: the end of the feasible prefix of its
/// chain and of the front. Buffers are reused across slots.
#[derive(Debug, Default)]
pub(super) struct Cuts {
    /// Rate `r`'s chain is feasible up to storage position `own_end[r]`.
    pub own_end: Vec<u32>,
    /// `front[..front[r]]` is feasible for rate `r`.
    pub front: Vec<u32>,
}

impl Cuts {
    /// Cut every rate's stream of `col` at the slot's buffer bound, with
    /// the reference's feasibility expression; return whether any
    /// candidate is feasible. The predicate is monotone in `q`, so each
    /// cut is a `partition_point`, and the column's first survivor in
    /// `(q, gen)` order — the front's first member — is feasible for some
    /// rate iff any survivor is.
    pub fn compute(&mut self, ctx: &SlotCtx<'_>, col: &Column) -> bool {
        self.own_end.clear();
        self.front.clear();
        let q = &col.nodes.q;
        let mut any = false;
        for (mi, &svc) in ctx.svc.iter().enumerate() {
            let feasible = |q: f64| (q + ctx.x - svc).max(0.0) <= ctx.b_t;
            let chain = col.chain(mi);
            let own = q[chain.clone()].partition_point(|&q| feasible(q));
            self.own_end.push((chain.start + own) as u32);
            let front = col.front.partition_point(|&p| feasible(q[p as usize]));
            self.front.push(front as u32);
            any |= front > 0;
        }
        any
    }
}

/// A read position in one target rate's stream (see [`Cursor::next`]).
#[derive(Debug)]
pub(super) struct Cursor {
    /// Next storage position in the rate's chain.
    own: u32,
    /// End of the chain's feasible prefix.
    own_end: u32,
    /// Next index into the column's front.
    front: u32,
    /// End of the front's feasible prefix.
    front_end: u32,
    /// The target rate.
    rate: u16,
}

impl Cursor {
    /// Start reading rate `mi`'s stream of `col`, cut at `cuts`.
    pub fn new(col: &Column, cuts: &Cuts, mi: usize) -> Self {
        Self {
            own: col.start[mi],
            own_end: cuts.own_end[mi],
            front: 0,
            front_end: cuts.front[mi],
            rate: mi as u16,
        }
    }

    /// The storage position of the stream's next survivor — its rate's
    /// chain merged in `q` order with the front's other-rate members — or
    /// `None` at the cut.
    #[inline]
    pub fn next(&mut self, col: &Column) -> Option<usize> {
        let nodes = &col.nodes;
        // A front member at the cursor's own rate is in its chain.
        while self.front < self.front_end
            && nodes.rate[col.front[self.front as usize] as usize] == self.rate
        {
            self.front += 1;
        }
        let f = (self.front < self.front_end).then(|| col.front[self.front as usize] as usize);
        let o = (self.own < self.own_end).then_some(self.own as usize);
        match (o, f) {
            (Some(o), Some(f)) if nodes.q[f] < nodes.q[o] => {
                self.front += 1;
                Some(f)
            }
            (Some(o), _) => {
                self.own += 1;
                Some(o)
            }
            (None, Some(f)) => {
                self.front += 1;
                Some(f)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trellis::soa::Nodes;

    /// A column from `(q, w, rate, gen)` rows in `(q, gen)` order.
    fn column(rows: &[(f64, f64, u16, u32)], m: usize) -> Column {
        let mut staged = Nodes::default();
        for (i, &(q, w, rate, gen)) in rows.iter().enumerate() {
            staged.push(q, w, rate, i as u32, gen);
        }
        let mut col = Column::default();
        col.fill(&staged, m);
        col
    }

    /// Rate `mi`'s stream, as the `arena` entries (the row numbers) of
    /// its survivors in stream order, cut before the first `q ≥ q_max`.
    fn stream(col: &Column, mi: usize, q_max: f64) -> Vec<u32> {
        let q = &col.nodes.q;
        let m = col.end.len();
        let cuts = Cuts {
            own_end: (0..m)
                .map(|r| {
                    let chain = col.chain(r);
                    (chain.start + q[chain].partition_point(|&q| q < q_max)) as u32
                })
                .collect(),
            front: vec![col.front.partition_point(|&p| q[p as usize] < q_max) as u32; m],
        };
        let mut c = Cursor::new(col, &cuts, mi);
        std::iter::from_fn(|| c.next(col))
            .map(|p| col.nodes.arena[p])
            .collect()
    }

    fn front_rows(col: &Column) -> Vec<u32> {
        col.front
            .iter()
            .map(|&p| col.nodes.arena[p as usize])
            .collect()
    }

    #[test]
    fn front_is_the_running_w_gen_minimum() {
        // (q, w, rate, gen), q-sorted, gen in emission order.
        let col = column(
            &[
                (0.0, 9.0, 0, 0),
                (1.0, 7.0, 1, 1),
                (2.0, 8.0, 0, 2), // dominated by survivor 1
                (3.0, 7.0, 2, 3), // equal w, later gen: dominated by 1
                (4.0, 2.0, 1, 4),
                (5.0, 5.0, 2, 5), // dominated by survivor 4
            ],
            3,
        );
        assert_eq!(front_rows(&col), vec![0, 1, 4]);
        // Rate 0: own {0, 2} ∪ front {0, 1, 4}.
        assert_eq!(stream(&col, 0, 6.0), vec![0, 1, 2, 4]);
        // Rate 1: own {1, 4} is a subset of the front.
        assert_eq!(stream(&col, 1, 6.0), vec![0, 1, 4]);
        // Rate 2: own {3, 5} ∪ front, cut at the feasibility prefix.
        assert_eq!(stream(&col, 2, 6.0), vec![0, 1, 3, 4, 5]);
        assert_eq!(stream(&col, 2, 4.0), vec![0, 1, 3]);
        assert_eq!(stream(&col, 2, 0.0), Vec::<u32>::new());
    }

    #[test]
    fn equal_w_pair_with_gen_inverting_q_order_stays_on_the_front() {
        // Quantized and beam columns can emit the larger-q member of an
        // equal-w pair first. A later survivor with the same w but a
        // smaller gen is *not* dominated: its candidates precede the
        // earlier survivor's in the sweep's (w, gen) tie order.
        let col = column(
            &[(10.0, 5.0, 0, 1), (11.0, 5.0, 1, 0), (12.0, 5.0, 2, 2)],
            3,
        );
        assert_eq!(front_rows(&col), vec![0, 1]);
        assert_eq!(stream(&col, 2, 13.0), vec![0, 1, 2]);
        assert_eq!(stream(&col, 0, 13.0), vec![0, 1]);
    }
}

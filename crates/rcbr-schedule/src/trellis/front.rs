//! Front pruning: the per-rate candidate streams both expansion modes
//! read.
//!
//! A survivor that some earlier survivor of its column dominates can
//! never win a rate change, so it is expanded only to its own rate. Per
//! slot, one pass over the q-sorted column finds the column's **front**
//! `G`: survivor `s` is on `G` unless some earlier survivor `j` has
//! `(w_j, gen_j) < (w_s, gen_s)` in lexicographic order (a running
//! minimum). Target rate `r`'s candidate stream is then the survivors at
//! rate `r` merged, in column order, with `G`'s members, cut at the
//! feasibility prefix `cutoffs[r]`. Both streams are subsequences of the
//! column, so the merged stream is still q-sorted and everything the
//! expansion modules rely on (q-sorted candidates, contiguous bucket
//! segments, the decreasing-envelope filter) holds on it unchanged.
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
//!   in quantized mode; weight order after a beam truncation — and
//!   [`Streams::build`] `debug_assert!`s it.
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

use super::soa::Column;

/// The column's front and its survivors grouped by rate (CSR). Built
/// once per slot by [`Streams::build`]; every buffer is reused.
#[derive(Debug, Default)]
pub(super) struct Streams {
    /// Column indices of the front's members, ascending.
    front: Vec<u32>,
    /// `by_rate[starts[r]..starts[r + 1]]`: the column indices of the
    /// survivors at rate `r`, ascending.
    by_rate: Vec<u32>,
    starts: Vec<u32>,
}

/// A read position in one target rate's stream (see [`Streams::next`]).
#[derive(Debug)]
pub(super) struct Cursor {
    /// Next position in `front`.
    front: u32,
    /// Next position in `by_rate`.
    own: u32,
    /// End of the rate's `by_rate` group.
    own_end: u32,
    /// The rate's feasibility cutoff: column indices `< cut` only.
    cut: u32,
}

impl Streams {
    /// Index the q-sorted column `cur` over a grid of `m` rates.
    pub fn build(&mut self, cur: &Column, m: usize) {
        let n = cur.len();
        // The front: strict prefix minima of (w, gen) in column order.
        self.front.clear();
        let mut min_w = f64::INFINITY;
        let mut min_gen = u32::MAX;
        for i in 0..n {
            let (w, gen) = (cur.w[i], cur.gen[i]);
            if w.total_cmp(&min_w).then(gen.cmp(&min_gen)).is_lt() {
                self.front.push(i as u32);
                min_w = w;
                min_gen = gen;
            } else {
                // The column lemma the pruning proof needs (module docs):
                // the earlier survivor that dominates `i` is also earlier
                // in reference order.
                debug_assert!(min_gen < gen, "column lemma violated at survivor {i}");
            }
        }
        // Survivors grouped by rate: count, exclusive prefix sums, scatter.
        self.starts.clear();
        self.starts.resize(m + 1, 0);
        for &r in &cur.rate {
            self.starts[r as usize + 1] += 1;
        }
        for r in 0..m {
            self.starts[r + 1] += self.starts[r];
        }
        self.by_rate.clear();
        self.by_rate.resize(n, 0);
        // `starts[r]` doubles as rate r's fill position, then is restored.
        for (i, &r) in cur.rate.iter().enumerate() {
            let slot = &mut self.starts[r as usize];
            self.by_rate[*slot as usize] = i as u32;
            *slot += 1;
        }
        for r in (1..=m).rev() {
            self.starts[r] = self.starts[r - 1];
        }
        self.starts[0] = 0;
    }

    /// Start reading rate `mi`'s stream, cut at column index `cut`.
    pub fn cursor(&self, mi: usize, cut: usize) -> Cursor {
        Cursor {
            front: 0,
            own: self.starts[mi],
            own_end: self.starts[mi + 1],
            cut: cut as u32,
        }
    }

    /// The next column index of the cursor's stream — its rate's own
    /// survivors merged with the front, ascending, each index once — or
    /// `None` at the cut.
    #[inline]
    pub fn next(&self, c: &mut Cursor) -> Option<usize> {
        let f = self
            .front
            .get(c.front as usize)
            .copied()
            .unwrap_or(u32::MAX);
        let o = if c.own < c.own_end {
            self.by_rate[c.own as usize]
        } else {
            u32::MAX
        };
        let i = f.min(o);
        if i >= c.cut {
            return None;
        }
        // A front member at the cursor's own rate is in both lists.
        c.front += u32::from(f == i);
        c.own += u32::from(o == i);
        Some(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(rows: &[(f64, f64, u16, u32)]) -> Column {
        let mut col = Column::default();
        for (i, &(q, w, rate, gen)) in rows.iter().enumerate() {
            col.push(q, w, rate, i as u32, gen);
        }
        col
    }

    fn stream(s: &Streams, mi: usize, cut: usize) -> Vec<usize> {
        let mut c = s.cursor(mi, cut);
        std::iter::from_fn(|| s.next(&mut c)).collect()
    }

    #[test]
    fn front_is_the_running_w_gen_minimum() {
        // (q, w, rate, gen), q-sorted, gen in emission order.
        let col = column(&[
            (0.0, 9.0, 0, 0),
            (1.0, 7.0, 1, 1),
            (2.0, 8.0, 0, 2), // dominated by survivor 1
            (3.0, 7.0, 2, 3), // equal w, later gen: dominated by 1
            (4.0, 2.0, 1, 4),
            (5.0, 5.0, 2, 5), // dominated by survivor 4
        ]);
        let mut s = Streams::default();
        s.build(&col, 3);
        assert_eq!(s.front, vec![0, 1, 4]);
        // Rate 0: own {0, 2} ∪ front {0, 1, 4}.
        assert_eq!(stream(&s, 0, 6), vec![0, 1, 2, 4]);
        // Rate 1: own {1, 4} is a subset of the front.
        assert_eq!(stream(&s, 1, 6), vec![0, 1, 4]);
        // Rate 2: own {3, 5} ∪ front, cut at the feasibility prefix.
        assert_eq!(stream(&s, 2, 6), vec![0, 1, 3, 4, 5]);
        assert_eq!(stream(&s, 2, 4), vec![0, 1, 3]);
        assert_eq!(stream(&s, 2, 0), Vec::<usize>::new());
    }

    #[test]
    fn equal_w_pair_with_gen_inverting_q_order_stays_on_the_front() {
        // Quantized and beam columns can emit the larger-q member of an
        // equal-w pair first. A later survivor with the same w but a
        // smaller gen is *not* dominated: its candidates precede the
        // earlier survivor's in the sweep's (w, gen) tie order.
        let col = column(&[(10.0, 5.0, 0, 1), (11.0, 5.0, 1, 0), (12.0, 5.0, 2, 2)]);
        let mut s = Streams::default();
        s.build(&col, 3);
        assert_eq!(s.front, vec![0, 1]);
        assert_eq!(stream(&s, 2, 3), vec![0, 1, 2]);
        assert_eq!(stream(&s, 0, 3), vec![0, 1]);
    }
}

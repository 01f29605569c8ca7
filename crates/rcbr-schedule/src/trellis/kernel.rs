//! The data-oriented trellis kernel: slot loop, Lemma 1 sweep, beam,
//! arena bookkeeping, and final path reconstruction.
//!
//! The kernel is bit-compatible with [`super::reference`]: it evaluates
//! the *same floating-point expressions* for queue evolution, weights,
//! and bounds, and reproduces the reference's stable-sort tie order via
//! each survivor's `gen` rank (see [`super::soa`]). Equivalence is
//! enforced by proptests in `tests/trellis_equivalence.rs`.

use rcbr_traffic::FrameTrace;

use super::arena::{Arena, NONE};
use super::front::Streams;
use super::soa::Column;
use super::stats::TrellisStats;
use super::{exact, quantized, TrellisConfig, TrellisError};
use crate::schedule::Schedule;

/// One candidate node, exact mode: a `(survivor, target rate)` pair that
/// passed the buffer bound.
#[derive(Debug, Clone, Copy)]
pub(super) struct Cand {
    /// Buffer occupancy after the slot.
    pub q: f64,
    /// Path weight.
    pub w: f64,
    /// Reference-order rank of the source survivor (tie-break key).
    pub gsi: u32,
    /// Target rate index.
    pub mi: u16,
    /// Arena index of the source survivor (`NONE` in the first slot).
    pub parent: u32,
}

/// One candidate representative, quantized mode: the cheapest candidate
/// of a `(target rate, bucket)` cell.
#[derive(Debug, Clone, Copy)]
pub(super) struct Rep {
    /// Quantization bucket of `q`.
    pub bucket: u64,
    /// Exact buffer occupancy of the chosen candidate.
    pub q: f64,
    /// Path weight of the chosen candidate.
    pub w: f64,
    /// Reference-order rank of the chosen source survivor.
    pub gsi: u32,
    /// Target rate index.
    pub mi: u16,
    /// Arena index of the chosen source survivor.
    pub parent: u32,
}

/// Per-slot constants shared by the expansion modules.
#[derive(Debug, Clone, Copy)]
pub(super) struct SlotCtx<'a> {
    /// Arrivals this slot, bits.
    pub x: f64,
    /// Buffer bound this slot, bits.
    pub b_t: f64,
    /// Per-rate service volume per slot (`rate · τ`), bits.
    pub svc: &'a [f64],
    /// Per-rate bandwidth charge per slot (`β · rate · τ`).
    pub slot_cost: &'a [f64],
    /// Renegotiation charge.
    pub alpha: f64,
}

/// The Lemma 1 sweep: consumes candidates in reference order and keeps
/// the non-dominated ones, writing survivors and arena entries.
pub(super) struct Sweep<'a> {
    per_rate_min: &'a mut [f64],
    per_rate_bucket: &'a mut [u64],
    global_min: f64,
    next: &'a mut Column,
    arena: &'a mut Arena,
    alpha: f64,
    quantize: bool,
    kept: u64,
}

impl<'a> Sweep<'a> {
    /// Start a slot: reset the frontier minima and the output column.
    pub fn begin(
        per_rate_min: &'a mut [f64],
        per_rate_bucket: &'a mut [u64],
        next: &'a mut Column,
        arena: &'a mut Arena,
        alpha: f64,
        quantize: bool,
    ) -> Self {
        per_rate_min.fill(f64::INFINITY);
        per_rate_bucket.fill(u64::MAX);
        next.clear();
        Self {
            per_rate_min,
            per_rate_bucket,
            global_min: f64::INFINITY,
            next,
            arena,
            alpha,
            quantize,
            kept: 0,
        }
    }

    /// Offer one exact-mode candidate; candidates must arrive sorted by
    /// `(q, w, gsi, mi)` — the reference's stable-sort order.
    pub fn offer(&mut self, c: &Cand) {
        let r = c.mi as usize;
        if c.w >= self.per_rate_min[r] || c.w - self.alpha >= self.global_min {
            return;
        }
        self.keep(c.q, c.w, c.mi, c.parent);
    }

    /// Offer one quantized-mode representative; reps must arrive sorted
    /// by `(bucket, w, gsi, mi)`.
    pub fn offer_rep(&mut self, rep: &Rep) {
        let r = rep.mi as usize;
        if rep.w >= self.per_rate_min[r] || rep.w - self.alpha >= self.global_min {
            return;
        }
        if self.quantize {
            // One survivor per (rate, bucket): the first (cheapest) wins.
            if self.per_rate_bucket[r] == rep.bucket {
                return;
            }
            self.per_rate_bucket[r] = rep.bucket;
        }
        self.keep(rep.q, rep.w, rep.mi, rep.parent);
    }

    /// Offer bucket-grouped reps (see `quantized::expand`): buckets in
    /// ascending order, each bucket filtered against the current frontier
    /// minima *before* ordering. A rep failing the skip check at bucket
    /// entry can never be kept — both minima only tighten as the bucket's
    /// cheaper reps are processed — so dropping it early is lossless, and
    /// the survivors (almost always zero or one) are offered through
    /// [`Sweep::offer_rep`] in the reference's `(w, gsi, mi)` order,
    /// which is unique within a bucket (one rep per rate). The result is
    /// bit-identical to sweeping the fully sorted rep list.
    pub fn offer_buckets(&mut self, reps: &[Rep], ends: &[u32], pick: &mut Vec<u32>) {
        let mut start = 0usize;
        for &end in ends {
            let end = end as usize;
            if end == start {
                continue;
            }
            let bucket = &reps[start..end];
            start = end;
            pick.clear();
            for (i, rep) in bucket.iter().enumerate() {
                if rep.w < self.per_rate_min[rep.mi as usize]
                    && rep.w - self.alpha < self.global_min
                {
                    pick.push(i as u32);
                }
            }
            match pick.len() {
                0 => {}
                1 => self.offer_rep(&bucket[pick[0] as usize]),
                _ => {
                    pick.sort_unstable_by(|&a, &b| {
                        let (a, b) = (&bucket[a as usize], &bucket[b as usize]);
                        a.w.total_cmp(&b.w)
                            .then(a.gsi.cmp(&b.gsi))
                            .then(a.mi.cmp(&b.mi))
                    });
                    for &i in pick.iter() {
                        self.offer_rep(&bucket[i as usize]);
                    }
                }
            }
        }
    }

    fn keep(&mut self, q: f64, w: f64, mi: u16, parent: u32) {
        self.per_rate_min[mi as usize] = w;
        self.global_min = self.global_min.min(w);
        let arena_idx = self.arena.push(parent, mi);
        let gen = self.next.len() as u32;
        self.next.push(q, w, mi, arena_idx, gen);
        self.kept += 1;
    }

    /// Survivors kept this slot.
    pub fn kept(&self) -> u64 {
        self.kept
    }
}

/// Reusable buffers for the whole run.
#[derive(Default)]
struct Scratch {
    cur: Column,
    next: Column,
    col_scratch: Column,
    perm: Vec<u32>,
    beam_order: Vec<u32>,
    per_rate_min: Vec<f64>,
    per_rate_bucket: Vec<u64>,
    cutoffs: Vec<usize>,
    streams: Streams,
    exact: exact::Scratch,
    quant: quantized::Scratch,
    reps: Vec<Rep>,
    pick: Vec<u32>,
}

/// Run the optimizer.
pub(super) fn run(
    cfg: &TrellisConfig,
    trace: &FrameTrace,
) -> Result<(Schedule, f64, TrellisStats), TrellisError> {
    let tau = trace.frame_interval();
    let m = cfg.grid.len();
    let svc: Vec<f64> = cfg.grid.levels().iter().map(|&r| r * tau).collect();
    let slot_cost: Vec<f64> = cfg
        .grid
        .levels()
        .iter()
        .map(|&r| cfg.cost.beta * r * tau)
        .collect();
    let alpha = cfg.cost.alpha;
    let t_len = trace.len();
    let quantize = cfg.q_resolution.is_some();

    let mut stats = TrellisStats::default();
    let mut arena = Arena::new();
    let mut s = Scratch::default();
    s.per_rate_min.resize(m, f64::INFINITY);
    s.per_rate_bucket.resize(m, u64::MAX);
    s.cutoffs.resize(m, 0);

    // Per-slot buffer bound: min(B, arrivals in the trailing delay
    // window) — see eq. (5)'s reduction in the module docs.
    let mut rolling = 0.0; // arrivals in the last D slots (window ending at t)

    for t in 0..t_len {
        let x = trace.bits(t);
        // Maintain the rolling delay window: the bound at slot t is
        // A_t − A_{t−D} = x_{t−D+1} + … + x_t, exactly D trailing slots.
        if let Some(d) = cfg.delay_slots {
            rolling += x;
            if t >= d {
                rolling -= trace.bits(t - d);
            }
        }
        let b_t = if cfg.delay_slots.is_some() {
            cfg.buffer.min(rolling)
        } else {
            cfg.buffer
        };
        let ctx = SlotCtx {
            x,
            b_t,
            svc: &svc,
            slot_cost: &slot_cost,
            alpha,
        };

        // Candidate expansion + Lemma 1 sweep. The expansion modules feed
        // the sweep in the reference's (q|bucket, w, gen, rate) order. The
        // verdict counts every feasible candidate, as the reference does;
        // front pruning (`front.rs`) then evaluates only those that can
        // still be kept.
        let feasible = if t == 0 {
            first_slot_candidates(&ctx, quantize, cfg, &mut s.reps)
        } else {
            count_feasible(&ctx, &s.cur, &mut s.cutoffs)
        };
        if feasible == 0 {
            return Err(TrellisError::Infeasible { slot: t });
        }

        let mut sweep = Sweep::begin(
            &mut s.per_rate_min,
            &mut s.per_rate_bucket,
            &mut s.next,
            &mut arena,
            alpha,
            quantize,
        );
        let evaluated = if t == 0 {
            // `first_slot_candidates` left the column's candidates in
            // `s.reps`; order and sweep them like any other slot — by
            // bucket when quantized, by exact q otherwise.
            if quantize {
                quantized::sort_reps(&mut s.reps);
                for rep in s.reps.iter() {
                    sweep.offer_rep(rep);
                }
            } else {
                s.reps.sort_unstable_by(|a, b| {
                    a.q.total_cmp(&b.q)
                        .then(a.w.total_cmp(&b.w))
                        .then(a.gsi.cmp(&b.gsi))
                        .then(a.mi.cmp(&b.mi))
                });
                for rep in s.reps.iter() {
                    sweep.offer(&Cand {
                        q: rep.q,
                        w: rep.w,
                        gsi: rep.gsi,
                        mi: rep.mi,
                        parent: rep.parent,
                    });
                }
            }
            feasible
        } else {
            s.streams.build(&s.cur, m);
            if quantize {
                let res = cfg.q_resolution.expect("quantize implies resolution");
                let evaluated = quantized::expand(
                    &ctx,
                    &s.cur,
                    &s.streams,
                    &s.cutoffs,
                    res,
                    &mut s.reps,
                    &mut s.quant,
                );
                if let Some(ends) = s.quant.bucket_ends() {
                    sweep.offer_buckets(&s.reps, ends, &mut s.pick);
                } else {
                    for rep in s.reps.iter() {
                        sweep.offer_rep(rep);
                    }
                }
                evaluated
            } else {
                exact::expand(
                    &ctx,
                    &s.cur,
                    &s.streams,
                    &s.cutoffs,
                    &mut s.exact,
                    &mut sweep,
                )
            }
        };
        stats.nodes_expanded += evaluated;
        stats.nodes_kept += sweep.kept();
        stats.nodes_pruned += evaluated - sweep.kept();

        // Optional beam: keep the lowest-weight survivors, in the
        // reference's weight-sorted order. Then restore the q-sorted
        // column invariant: a truncated column is in weight order and
        // takes the comparison sort; every other sweep emits in q order
        // across buckets, so only each bucket's run needs restoring
        // (exact sweeps are already sorted).
        match cfg.max_survivors {
            Some(width) if s.next.len() > width => {
                stats.beam_dropped += (s.next.len() - width) as u64;
                beam_truncate(&mut s.next, width, &mut s.beam_order, &mut s.col_scratch);
                s.next.sort_by_q(&mut s.perm, &mut s.col_scratch);
            }
            _ => s.next.restore_q_order(),
        }
        std::mem::swap(&mut s.cur, &mut s.next);
        stats.observe_survivors(s.cur.len());
        arena.maybe_collect(&mut s.cur.arena, &mut stats);
    }

    // Best terminal node (restricted to drained nodes when required; the
    // Lemma 1 pruning preserves the best drained path because a
    // dominating node has no larger backlog, hence drains wherever the
    // dominated one does). Ties on weight resolve to the smallest `gen` —
    // the first minimum in reference iteration order.
    let mut best: Option<usize> = None;
    for i in 0..s.cur.len() {
        if cfg.drain_at_end && s.cur.q[i] > 1e-9 {
            continue;
        }
        best = match best {
            None => Some(i),
            Some(b) => {
                let better = match s.cur.w[i].total_cmp(&s.cur.w[b]) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => s.cur.gen[i] < s.cur.gen[b],
                    std::cmp::Ordering::Greater => false,
                };
                Some(if better { i } else { b })
            }
        };
    }
    let best = best.ok_or(TrellisError::Infeasible { slot: t_len })?;

    // Reconstruct: the committed common prefix, then the arena chain.
    let mut rates: Vec<f64> = Vec::with_capacity(t_len);
    rates.extend(
        arena
            .committed()
            .iter()
            .map(|&ri| cfg.grid.level(ri as usize)),
    );
    let chain_start = rates.len();
    rates.extend(
        arena
            .walk(s.cur.arena[best])
            .map(|ri| cfg.grid.level(ri as usize)),
    );
    rates[chain_start..].reverse();
    debug_assert_eq!(rates.len(), t_len, "arena walk must span the trace");
    let cost = s.cur.w[best];
    Ok((Schedule::from_rates(tau, &rates), cost, stats))
}

/// Per-rate feasible-prefix cutoffs: stream `mi`'s candidates are the
/// survivors whose post-slot occupancy meets the bound. The predicate is
/// evaluated with the reference's exact expression, and it is monotone in
/// `q`, so the feasible set is a prefix of the q-sorted column.
fn count_feasible(ctx: &SlotCtx<'_>, cur: &Column, cutoffs: &mut [usize]) -> u64 {
    let mut total = 0u64;
    for (mi, cut) in cutoffs.iter_mut().enumerate() {
        let svc = ctx.svc[mi];
        *cut = cur
            .q
            .partition_point(|&q| (q + ctx.x - svc).max(0.0) <= ctx.b_t);
        total += *cut as u64;
    }
    total
}

/// Build the first column's candidates (the initial rate choice is free
/// of α) as reps, in the reference's generation order (`mi` ascending).
fn first_slot_candidates(
    ctx: &SlotCtx<'_>,
    quantize: bool,
    cfg: &TrellisConfig,
    reps: &mut Vec<Rep>,
) -> u64 {
    reps.clear();
    for mi in 0..ctx.svc.len() {
        let q = (ctx.x - ctx.svc[mi]).max(0.0);
        if q > ctx.b_t {
            continue;
        }
        let bucket = if quantize {
            quantized::bucket(q, cfg.q_resolution.expect("quantize implies resolution"))
        } else {
            0
        };
        reps.push(Rep {
            bucket,
            q,
            w: ctx.slot_cost[mi],
            gsi: 0,
            mi: mi as u16,
            parent: NONE,
        });
    }
    reps.len() as u64
}

/// Beam truncation in reference semantics: stable-sort survivors by
/// weight (ties keep `gen` order), truncate, and re-rank `gen` to the
/// surviving order.
fn beam_truncate(col: &mut Column, width: usize, order: &mut Vec<u32>, scratch: &mut Column) {
    order.clear();
    order.extend(0..col.len() as u32);
    let w = &col.w;
    let gen = &col.gen;
    order.sort_unstable_by(|&a, &b| {
        w[a as usize]
            .total_cmp(&w[b as usize])
            .then(gen[a as usize].cmp(&gen[b as usize]))
    });
    order.truncate(width);
    col.apply_permutation(order, scratch);
    for (i, g) in col.gen.iter_mut().enumerate() {
        *g = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mode_reps_are_sorted_on_first_slot() {
        // The first slot goes through the rep path even in exact mode;
        // bucket is 0 for all, so ordering degenerates to (q is ignored —
        // bucket 0) (w, gsi, mi). With distinct rates, w = β·r·τ is
        // strictly increasing in mi, matching generation order.
        let grid = crate::grid::RateGrid::new(vec![0.0, 50.0, 100.0]);
        let cfg = TrellisConfig::new(grid, crate::cost::CostModel::new(1.0, 1.0), 100.0);
        let svc: Vec<f64> = cfg.grid.levels().to_vec();
        let slot_cost: Vec<f64> = cfg.grid.levels().to_vec();
        let ctx = SlotCtx {
            x: 60.0,
            b_t: 100.0,
            svc: &svc,
            slot_cost: &slot_cost,
            alpha: 1.0,
        };
        let mut reps = Vec::new();
        let n = first_slot_candidates(&ctx, false, &cfg, &mut reps);
        assert_eq!(n, 3);
        assert_eq!(reps[0].mi, 0);
        assert!((reps[0].q - 60.0).abs() < 1e-12);
    }
}

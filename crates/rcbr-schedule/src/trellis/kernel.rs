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
use super::front::Cuts;
use super::soa::{Column, Nodes};
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

/// The Lemma 1 sweep of exact mode and the first slot: consumes
/// candidates in reference order and keeps the non-dominated ones,
/// staging survivors in emission order and writing arena entries.
/// (Quantized slots sweep their representatives in `quantized.rs`.)
pub(super) struct Sweep<'a> {
    per_rate_min: &'a mut [f64],
    global_min: f64,
    stage: &'a mut Nodes,
    arena: &'a mut Arena,
    alpha: f64,
}

impl<'a> Sweep<'a> {
    /// Start a slot: reset the frontier minima and the staging list.
    pub fn begin(
        per_rate_min: &'a mut [f64],
        stage: &'a mut Nodes,
        arena: &'a mut Arena,
        alpha: f64,
    ) -> Self {
        per_rate_min.fill(f64::INFINITY);
        stage.clear();
        Self {
            per_rate_min,
            global_min: f64::INFINITY,
            stage,
            arena,
            alpha,
        }
    }

    /// Offer one candidate; candidates must arrive in the reference's
    /// stable-sort order, `(q | bucket, w, gsi, mi)`. (The reference's
    /// bucket-dedup check cannot fire here: a quantized column reaches this
    /// sweep only in the first slot, one candidate per rate.)
    pub fn offer(&mut self, c: &Cand) {
        let r = c.mi as usize;
        if c.w >= self.per_rate_min[r] || c.w - self.alpha >= self.global_min {
            return;
        }
        self.per_rate_min[r] = c.w;
        self.global_min = self.global_min.min(c.w);
        let arena_idx = self.arena.push(c.parent, c.mi);
        let gen = self.stage.len() as u32;
        self.stage.push(c.q, c.w, c.mi, arena_idx, gen);
    }
}

/// Reusable buffers for the whole run.
#[derive(Default)]
struct Scratch {
    cur: Column,
    next: Column,
    /// Survivors in emission order, before [`Column::fill`] lays them out.
    stage: Nodes,
    stage_scratch: Nodes,
    perm: Vec<u32>,
    beam_order: Vec<u32>,
    per_rate_min: Vec<f64>,
    cuts: Cuts,
    exact: exact::Scratch,
    quant: quantized::Scratch,
    cands: Vec<Cand>,
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

    let mut stats = TrellisStats::default();
    let mut arena = Arena::new();
    let mut s = Scratch::default();
    s.per_rate_min.resize(m, f64::INFINITY);

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

        // Candidate expansion + Lemma 1 sweep, in the reference's
        // (q|bucket, w, gen, rate) order. Quantized slots write the next
        // column's chains directly; the first slot and exact mode stage
        // their survivors in emission order. The verdict counts every
        // feasible candidate, as the reference does; front pruning
        // (`front.rs`) then evaluates only those that can still be kept.
        let (evaluated, kept, staged) = if t == 0 {
            let feasible = first_slot_candidates(&ctx, cfg.q_resolution, &mut s.cands);
            if feasible == 0 {
                return Err(TrellisError::Infeasible { slot: t });
            }
            let mut sweep = Sweep::begin(&mut s.per_rate_min, &mut s.stage, &mut arena, alpha);
            for c in s.cands.iter() {
                sweep.offer(c);
            }
            // A quantized first slot emits in bucket order: restore the
            // (q, gen) order `Column::fill` takes (M survivors at most).
            s.stage.sort_by_q(&mut s.perm, &mut s.stage_scratch);
            (feasible, s.stage.len() as u64, true)
        } else {
            if !s.cuts.compute(&ctx, &s.cur) {
                return Err(TrellisError::Infeasible { slot: t });
            }
            if let Some(res) = cfg.q_resolution {
                let (evaluated, kept) = quantized::expand(
                    &ctx,
                    &s.cur,
                    &s.cuts,
                    res,
                    &mut s.quant,
                    &mut s.next,
                    &mut arena,
                );
                (evaluated, kept, false)
            } else {
                let mut sweep = Sweep::begin(&mut s.per_rate_min, &mut s.stage, &mut arena, alpha);
                let evaluated = exact::expand(&ctx, &s.cur, &s.cuts, &mut s.exact, &mut sweep);
                (evaluated, s.stage.len() as u64, true)
            }
        };
        stats.nodes_expanded += evaluated;
        stats.nodes_kept += kept;
        stats.nodes_pruned += evaluated - kept;

        // Optional beam: keep the lowest-weight survivors, in the
        // reference's weight-sorted order, then lay the (q, gen)-sorted
        // remainder out as chains. Staged survivors are already in
        // (q, gen) order.
        match cfg.max_survivors {
            Some(width) if kept as usize > width => {
                stats.beam_dropped += kept - width as u64;
                if !staged {
                    s.next.flatten_into(&mut s.stage);
                }
                beam_truncate(&mut s.stage, width, &mut s.beam_order, &mut s.stage_scratch);
                s.stage.sort_by_q(&mut s.perm, &mut s.stage_scratch);
                s.next.fill(&s.stage, m);
            }
            _ if staged => s.next.fill(&s.stage, m),
            _ => {}
        }
        std::mem::swap(&mut s.cur, &mut s.next);
        stats.observe_survivors(s.cur.len());
        arena.maybe_collect(s.cur.arenas_mut(), &mut stats);
    }

    // Best terminal node (restricted to drained nodes when required; the
    // Lemma 1 pruning preserves the best drained path because a
    // dominating node has no larger backlog, hence drains wherever the
    // dominated one does). Ties on weight resolve to the smallest `gen` —
    // the first minimum in reference iteration order.
    let nodes = &s.cur.nodes;
    let mut best: Option<usize> = None;
    for i in 0..s.cur.len() {
        if cfg.drain_at_end && nodes.q[i] > 1e-9 {
            continue;
        }
        best = match best {
            None => Some(i),
            Some(b) => {
                let better = nodes.w[i]
                    .total_cmp(&nodes.w[b])
                    .then(nodes.gen[i].cmp(&nodes.gen[b]))
                    .is_lt();
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
            .walk(nodes.arena[best])
            .map(|ri| cfg.grid.level(ri as usize)),
    );
    rates[chain_start..].reverse();
    debug_assert_eq!(rates.len(), t_len, "arena walk must span the trace");
    let cost = nodes.w[best];
    Ok((Schedule::from_rates(tau, &rates), cost, stats))
}

/// Build the first column's candidates (the initial rate choice is free
/// of α), sorted in the reference's `(q | bucket, w, rate)` order;
/// return how many there are.
fn first_slot_candidates(
    ctx: &SlotCtx<'_>,
    q_resolution: Option<f64>,
    cands: &mut Vec<Cand>,
) -> u64 {
    cands.clear();
    for mi in 0..ctx.svc.len() {
        let q = (ctx.x - ctx.svc[mi]).max(0.0);
        if q > ctx.b_t {
            continue;
        }
        cands.push(Cand {
            q,
            w: ctx.slot_cost[mi],
            gsi: 0,
            mi: mi as u16,
            parent: NONE,
        });
    }
    cands.sort_unstable_by(|a, b| {
        match q_resolution {
            Some(res) => quantized::bucket(a.q, res).cmp(&quantized::bucket(b.q, res)),
            None => a.q.total_cmp(&b.q),
        }
        .then(a.w.total_cmp(&b.w))
        .then(a.mi.cmp(&b.mi))
    });
    cands.len() as u64
}

/// Beam truncation in reference semantics: stable-sort survivors by
/// weight (ties keep `gen` order), truncate, and re-rank `gen` to the
/// surviving order.
fn beam_truncate(col: &mut Nodes, width: usize, order: &mut Vec<u32>, scratch: &mut Nodes) {
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
    fn first_slot_candidates_come_in_reference_order() {
        // Exact mode orders by q: the fastest rate drains the most.
        let grid = crate::grid::RateGrid::new(vec![0.0, 50.0, 100.0]);
        let svc: Vec<f64> = grid.levels().to_vec();
        let slot_cost: Vec<f64> = grid.levels().to_vec();
        let ctx = SlotCtx {
            x: 60.0,
            b_t: 100.0,
            svc: &svc,
            slot_cost: &slot_cost,
            alpha: 1.0,
        };
        let mut cands = Vec::new();
        assert_eq!(first_slot_candidates(&ctx, None, &mut cands), 3);
        let order: Vec<u16> = cands.iter().map(|c| c.mi).collect();
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(cands[0].q, 0.0);
        // Quantized with one bucket above zero: rates 0 and 1 share it,
        // so weight orders them; the drained rate 2 has bucket 0.
        first_slot_candidates(&ctx, Some(1000.0), &mut cands);
        let order: Vec<u16> = cands.iter().map(|c| c.mi).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }
}

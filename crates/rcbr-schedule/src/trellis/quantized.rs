//! Quantized-mode expansion and sweep: per-`(rate, bucket)` reduction.
//!
//! With a quantized buffer axis the reference keeps at most one survivor
//! per `(target rate, bucket)` cell — the first in its global
//! `(bucket, w, generation)` order that passes the weight checks. Skipped
//! candidates never mutate the sweep state, so offering *only* each
//! cell's first-in-order candidate (its **representative**) is lossless:
//!
//! * if the representative is kept, every other same-cell candidate would
//!   have been skipped by the bucket-dedup check anyway;
//! * if the representative fails a weight check, every other same-cell
//!   candidate has `w` no smaller and faces minima no looser (the per-rate
//!   and global minima only tighten), so it fails the same check.
//!
//! Representatives are found in one pass per rate stream (see
//! [`super::front`]): the rate's own chain merged with the column's front,
//! in `q` order. `bucket(q)` is monotone in `q`, so each cell is a
//! contiguous segment of the stream and a running `(w, gen)`-minimum
//! suffices; a decreasing-envelope filter drops every representative the
//! sweep would reject on its rate's own minimum (see [`stream_reps`]).
//!
//! ## The sweep, one decision per representative
//!
//! The reference sweeps its sorted candidates against three pieces of
//! state: `per_rate_min`, `per_rate_bucket` and `global_min`. Two lemmas
//! reduce that to one comparison per representative, in any order.
//!
//! **L1. The per-rate checks never reject a representative.** The walk of
//! rate `r`'s stream emits representatives in bucket order, one per
//! bucket, and only below the weight of the last one it emitted. So rate
//! `r`'s representatives have strictly increasing buckets and strictly
//! decreasing `w` (the bucket pass `debug_assert!`s it). Only they carry
//! rate `r`, so when one is offered, `per_rate_min[r]` is the `w` of an
//! earlier one (or ∞), strictly larger, and `per_rate_bucket[r]` is an
//! earlier bucket (or none), strictly smaller: neither check fires.
//!
//! **L2. `global_min` is the running minimum of every `w` offered, kept
//! or not.** A kept candidate lowers it to `min(global_min, w)`. A
//! rejected one (by L1, rejected on the global check) has
//! `fl(w − α) ≥ global_min`, and `fl(w − α) ≤ w` because α ≥ 0 and
//! rounding is monotone, so `min(global_min, w) = global_min` as well.
//!
//! Within one bucket the reference offers the representatives in
//! `(w, gen, rate)` order. Let `g` be `global_min` on entry to the bucket
//! and `w*` the `w` of the first representative in that order. By L1 and
//! L2 the first is kept iff `w* − α < g`, and every other — whose
//! predecessors in the bucket all have `w ≥ w*` — is kept iff
//! `w − α < min(g, w*)`; after the bucket, `global_min = min(g, w*)`. So
//! the bucket pass decides each representative in O(1), independently of
//! the others, and orders only the **kept** ones by `(w, gen, rate)`: that
//! order is their emission order, which `gen` records. The bucket pass
//! then writes them straight to their rate chains (a rate's kept
//! representatives come in bucket order, hence in q order) and finds the
//! next column's front bucket by bucket: a kept representative can join
//! it only below the front's running `(w, gen)` minimum on entry to the
//! bucket (its `gen` is larger than every earlier one's), and those few
//! are ordered by `(q, gen)` to extend the running minimum.
//!
//! Buckets are visited in ascending order through a counting scatter of
//! the representatives' indices — bounded by `bucket(b_t)`, since every
//! feasible `q'` is at most the slot's buffer bound — or, for degenerate
//! resolutions, a comparison sort. The per-slot cost is `O(n + M·|G|)`
//! stream walking for a front `G` plus `O(reps + buckets)` ordering,
//! replacing the reference's `O(n·M·log(n·M))` sort of every candidate.

use std::cmp::Ordering;

use super::arena::Arena;
use super::front::Cuts;
use super::kernel::SlotCtx;
use super::soa::Column;

/// Above this bucket count the counting scatter's footprint stops paying
/// for itself (degenerate resolutions); fall back to a comparison sort.
const COUNTING_SORT_LIMIT: u64 = 1 << 22;

/// One candidate representative: the cheapest candidate of a
/// `(target rate, bucket)` cell. Its `q'` is not stored: the bucket pass
/// recomputes it, with the same expression, for the representatives it
/// keeps.
#[derive(Debug, Clone, Copy, Default)]
struct Rep {
    /// Path weight of the chosen candidate.
    w: f64,
    /// Quantization bucket of `q'`.
    bucket: u64,
    /// Reference-order rank of the chosen source survivor.
    gen: u32,
    /// Storage position of the chosen source survivor in the column.
    src: u32,
    /// Target rate index.
    mi: u16,
}

/// The column's front, copied out of the chains once per slot: every
/// rate's walk reads it.
#[derive(Debug, Default)]
struct Front {
    q: Vec<f64>,
    w: Vec<f64>,
    gen: Vec<u32>,
    /// Storage position in the column.
    pos: Vec<u32>,
}

impl Front {
    fn load(&mut self, col: &Column) {
        self.q.clear();
        self.w.clear();
        self.gen.clear();
        self.pos.clear();
        for &p in &col.front {
            self.q.push(col.nodes.q[p as usize]);
            self.w.push(col.nodes.w[p as usize]);
            self.gen.push(col.nodes.gen[p as usize]);
            self.pos.push(p);
        }
    }
}

/// Reusable per-slot buffers.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    front: Front,
    /// Each rate's front members that are in its chain too, and within
    /// its cut: its stream's candidates the walk visits twice.
    dups: Vec<u32>,
    /// The representatives, rate by rate.
    reps: Vec<Rep>,
    /// Kept representatives per rate: the next column's chain lengths.
    lens: Vec<u32>,
    /// Representatives per bucket, counted as the walks emit them; then
    /// each bucket's offset in `grouped`.
    counts: Vec<u32>,
    /// The representatives in ascending bucket order.
    grouped: Vec<Rep>,
    /// One bucket's kept representatives' sort keys (see [`sort_key`]).
    keys: Vec<u128>,
    /// The kept representatives in reference order.
    kept: Vec<Rep>,
    /// One bucket's candidates for the next column's front.
    joins: Vec<u32>,
}

/// The reference's bucket function, verbatim: bucket 0 is reserved for an
/// exactly-empty buffer so quantization can never merge away the drained
/// state that `drain_at_end` selects on.
#[inline]
pub(super) fn bucket(q: f64, res: f64) -> u64 {
    if q == 0.0 {
        0
    } else {
        1 + (q / res) as u64
    }
}

/// Expand column `cur` by one slot into `next`, pushing the kept
/// survivors' arena entries; return the number of candidates evaluated
/// and the number kept.
pub(super) fn expand(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    cuts: &Cuts,
    res: f64,
    s: &mut Scratch,
    next: &mut Column,
    arena: &mut Arena,
) -> (u64, u64) {
    let m = ctx.svc.len();
    s.front.load(cur);
    // A front member within its own rate's cut is in that rate's stream
    // twice (see `stream_reps`).
    s.dups.clear();
    s.dups.resize(m, 0);
    for (k, &p) in cur.front.iter().enumerate() {
        let r = cur.nodes.rate[p as usize] as usize;
        s.dups[r] += u32::from((k as u32) < cuts.front[r]);
    }
    // Every feasible `q'` is at most the slot's buffer bound and `bucket`
    // is monotone, so `bucket(b_t)` bounds every representative's bucket.
    let max_bucket = bucket(ctx.b_t, res);
    s.counts.clear();
    if max_bucket < COUNTING_SORT_LIMIT {
        s.counts.resize(max_bucket as usize + 1, 0);
    }
    s.reps.clear();
    let mut evaluated = 0u64;
    for mi in 0..m {
        let first = s.reps.len();
        let own = cur.start[mi] as usize..cuts.own_end[mi] as usize;
        let front_cut = cuts.front[mi] as usize;
        evaluated += (own.len() + front_cut) as u64 - u64::from(s.dups[mi]);
        let out = Out {
            reps: &mut s.reps,
            counts: &mut s.counts,
        };
        stream_reps(ctx, cur, &s.front, own, front_cut, mi, res, out);
        debug_assert!(
            s.reps[first..]
                .windows(2)
                .all(|p| p[0].bucket < p[1].bucket && p[0].w > p[1].w),
            "L1: rate {mi}'s representatives must have rising buckets and falling weights"
        );
    }
    group_by_bucket(&s.reps, &mut s.counts, &mut s.grouped);
    decide(ctx.alpha, &s.grouped, &mut s.keys, &mut s.kept);
    s.lens.clear();
    s.lens.resize(m, 0);
    for r in &s.kept {
        s.lens[r.mi as usize] += 1;
    }
    next.begin(s.lens.iter().copied());
    emit(ctx, cur, &s.kept, next, arena, &mut s.joins);
    debug_assert_eq!(next.end, next.start[1..], "every chain is full");
    (evaluated, s.kept.len() as u64)
}

/// Where a walk writes its representatives: appended to `reps`, each
/// also counted in its bucket's `counts` entry (unless `counts` is empty).
struct Out<'a> {
    reps: &'a mut Vec<Rep>,
    counts: &'a mut [u32],
}

impl Out<'_> {
    #[inline]
    fn push(&mut self, rep: Rep) {
        self.reps.push(rep);
        if let Some(count) = self.counts.get_mut(rep.bucket as usize) {
            *count += 1;
        }
    }
}

/// Copy `reps` to `grouped` in ascending bucket order (any order within a
/// bucket): a counting scatter over the walks' `counts`, or, when `counts`
/// is empty (too many buckets), a sort.
fn group_by_bucket(reps: &[Rep], counts: &mut [u32], grouped: &mut Vec<Rep>) {
    grouped.clear();
    if counts.is_empty() {
        grouped.extend_from_slice(reps);
        grouped.sort_unstable_by_key(|r| r.bucket);
        return;
    }
    // Exclusive prefix sums: counts[b] becomes bucket b's start offset.
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        (*c, acc) = (acc, acc + *c);
    }
    grouped.resize(reps.len(), Rep::default());
    for r in reps {
        let slot = &mut counts[r.bucket as usize];
        grouped[*slot as usize] = *r;
        *slot += 1;
    }
}

/// A representative's place in the reference's within-bucket order
/// `(w, gen, rate)`, packed so that integer order is that order: the
/// weight's bits mapped to `total_cmp` order, the source's `gen`, the
/// rate, and in the low 16 bits `local`, the representative's index in
/// its bucket group. A group holds at most one representative per rate,
/// and the grid has at most `u16::MAX` rates, so `local` fits and only
/// breaks no tie.
#[inline]
fn sort_key(w: f64, gen: u32, mi: u16, local: usize) -> u128 {
    u128::from(ord_bits(w)) << 64 | u128::from(gen) << 32 | u128::from(mi) << 16 | local as u128
}

/// `w`'s bits mapped so that integer order is `f64::total_cmp` order.
#[inline]
fn ord_bits(w: f64) -> u64 {
    let bits = w.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The sweep over bucket-grouped representatives (module docs, L1 and
/// L2): decide each, and list the kept ones in `kept` in reference order.
/// `keys` is scratch.
#[inline(never)]
fn decide(alpha: f64, grouped: &[Rep], keys: &mut Vec<u128>, kept: &mut Vec<Rep>) {
    kept.clear();
    let mut global_min = f64::INFINITY;
    let mut rest = grouped;
    while let Some(first) = rest.first() {
        let len = rest
            .iter()
            .position(|r| r.bucket != first.bucket)
            .unwrap_or(rest.len());
        let (group, tail) = rest.split_at(len);
        rest = tail;
        debug_assert!(len <= 1 << 16, "one representative per rate");

        // The bucket's first representative in reference order, `star`,
        // faces `g`; every other one faces `min(g, w*)` (L2).
        let g = global_min;
        if let [r] = group {
            if r.w - alpha < g {
                kept.push(*r);
            }
            global_min = g.min(r.w);
            continue;
        }
        keys.clear();
        keys.extend(
            group
                .iter()
                .enumerate()
                .map(|(l, r)| sort_key(r.w, r.gen, r.mi, l)),
        );
        let star = keys.iter().min().map_or(0, |&k| k as u16 as usize);
        global_min = g.min(group[star].w);
        // Keep the kept keys, in place and without a branch.
        let mut n_kept = 0;
        for (l, r) in group.iter().enumerate() {
            let limit = if l == star { g } else { global_min };
            keys[n_kept] = keys[l];
            n_kept += usize::from(r.w - alpha < limit);
        }
        keys.truncate(n_kept);
        keys.sort_unstable();
        kept.extend(keys.iter().map(|&k| group[k as u16 as usize]));
    }
}

/// Write the `kept` representatives — in reference order, so the `k`-th
/// takes `gen = k` — to `next`'s chains and their entries to the arena,
/// and find `next`'s front.
#[inline(never)]
fn emit(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    kept: &[Rep],
    next: &mut Column,
    arena: &mut Arena,
    joins: &mut Vec<u32>,
) {
    // The front's running `(w, gen)` minimum, and its `w` on entry to the
    // current bucket: a survivor of the bucket can join the front only
    // below it (its `gen` is larger than every earlier survivor's).
    let (mut front_w, mut front_gen) = (f64::INFINITY, u32::MAX);
    let mut entry_w = f64::INFINITY;
    let mut bucket = u64::MAX;
    joins.clear();
    let first = arena.extend(kept.iter().map(|r| (cur.nodes.arena[r.src as usize], r.mi)));
    for (gen, r) in kept.iter().enumerate() {
        if r.bucket != bucket {
            extend_front(next, joins, &mut front_w, &mut front_gen);
            (bucket, entry_w) = (r.bucket, front_w);
        }
        let q = (cur.nodes.q[r.src as usize] + ctx.x - ctx.svc[r.mi as usize]).max(0.0);
        let pos = next.keep(q, r.w, r.mi, first + gen as u32, gen as u32);
        if r.w.total_cmp(&entry_w).is_lt() {
            joins.push(pos);
        } else {
            // Column lemma (`front.rs`): every earlier survivor has a
            // smaller gen.
            debug_assert!(front_gen < gen as u32, "column lemma violated");
        }
    }
    extend_front(next, joins, &mut front_w, &mut front_gen);
}

/// Extend `next`'s front with one bucket's candidates `joins`: in
/// `(q, gen)` order, those below the running `(w, gen)` minimum.
fn extend_front(next: &mut Column, joins: &mut Vec<u32>, front_w: &mut f64, front_gen: &mut u32) {
    let nodes = &next.nodes;
    if joins.len() > 1 {
        joins.sort_unstable_by(|&a, &b| {
            nodes.q[a as usize]
                .total_cmp(&nodes.q[b as usize])
                .then(nodes.gen[a as usize].cmp(&nodes.gen[b as usize]))
        });
    }
    for &p in joins.iter() {
        let (w, g) = (nodes.w[p as usize], nodes.gen[p as usize]);
        if w.total_cmp(front_w).then(g.cmp(front_gen)).is_lt() {
            next.front.push(p);
            (*front_w, *front_gen) = (w, g);
        } else {
            debug_assert!(*front_gen < g, "column lemma violated");
        }
    }
    joins.clear();
}

/// Walk rate `mi`'s stream up to its feasibility cuts and write the
/// representative of each bucket segment — the candidate minimizing
/// `(w, gen)` — to `out`. Uses the reference's exact float expressions
/// for `q'` and `w'`.
///
/// The stream is the rate's chain merged in q order with the whole front
/// (`front.rs`): a front member at the rate itself is visited twice, as
/// its chain entry and, right after it, as a front entry charged α, which
/// can never beat the chain entry in the bucket they share.
///
/// Two lossless prunes keep the walk cheap:
///
/// * **Decreasing-envelope filter.** A rep whose `w` is ≥ any earlier
///   same-stream rep's `w` can never be kept by the sweep: if the earlier
///   rep was kept it set `per_rate_min[rate]` at or below that `w`; if it
///   was skipped, the check that skipped it only tightens by the time the
///   later rep arrives (both minima are non-increasing). Skipped reps
///   never mutate sweep state, so dropping them here is invisible — the
///   emitted reps are the strictly-decreasing-`w` envelope (L1).
/// * **Deferred bucket computation.** A candidate with `w ≥ min_emitted`
///   can neither be emitted nor tie a future rep (every future emission
///   is strictly below `min_emitted`), so the comparatively expensive
///   `q'`/bucket computation — a division per candidate — is skipped for
///   such candidates on the cheap `w`-only test.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn stream_reps(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    front: &Front,
    own: std::ops::Range<usize>,
    front_cut: usize,
    mi: usize,
    res: f64,
    mut out: Out<'_>,
) {
    let (x, alpha) = (ctx.x, ctx.alpha);
    let (svc, c) = (ctx.svc[mi], ctx.slot_cost[mi]);
    let nodes = &cur.nodes;
    let own_q = &nodes.q[own.clone()];
    let own_w = &nodes.w[own.clone()][..own_q.len()];
    let own_gen = &nodes.gen[own.clone()][..own_q.len()];
    let front_q = &front.q[..front_cut];
    let front_w = &front.w[..front_q.len()];
    let front_gen = &front.gen[..front_q.len()];
    let front_pos = &front.pos[..front_q.len()];
    let rep = |w, bucket, gen, src| Rep {
        w,
        bucket,
        gen,
        src,
        mi: mi as u16,
    };

    // The first segment is the drained one: every candidate whose `q'`
    // clamps to 0 is in bucket 0. Clamping is monotone in `q`, so on each
    // list that segment is a prefix, and each list's `w` does not rise
    // along it (the chain's falls strictly, the front's does not rise),
    // so its minimum is the prefix's last entry or one of equal `w` just
    // before.
    let drained = |q: f64| (q + x - svc).max(0.0) == 0.0;
    let mut i = own_q.partition_point(|&q| drained(q));
    let mut j = front_q.partition_point(|&q| drained(q));
    let own_min = prefix_min(0..i, |k| {
        (own_w[k] + c + 0.0, own_gen[k], (own.start + k) as u32)
    });
    let front_min = prefix_min(0..j, |k| {
        (front_w[k] + c + alpha, front_gen[k], front_pos[k])
    });
    let drained_min = match (own_min, front_min) {
        (Some(a), Some(b)) => Some(if b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).is_lt() {
            b
        } else {
            a
        }),
        (a, b) => a.or(b),
    };

    // The held rep: the open bucket segment's minimum so far.
    let mut min_emitted = f64::INFINITY;
    let (mut have, mut held_w, mut held_b, mut held_gen, mut held_src) =
        (false, f64::INFINITY, 0u64, 0u32, 0u32);
    if let Some((w, gen, src)) = drained_min {
        (have, held_w, held_gen, held_src) = (true, w, gen, src);
    }
    loop {
        let (q_src, w, gen, src) =
            if j < front_q.len() && (i == own_q.len() || front_q[j] < own_q[i]) {
                j += 1;
                let k = j - 1;
                (
                    front_q[k],
                    front_w[k] + c + alpha,
                    front_gen[k],
                    front_pos[k],
                )
            } else if i < own_q.len() {
                i += 1;
                let k = i - 1;
                (
                    own_q[k],
                    own_w[k] + c + 0.0,
                    own_gen[k],
                    (own.start + k) as u32,
                )
            } else {
                break;
            };
        if w >= min_emitted {
            continue;
        }
        let b = bucket((q_src + x - svc).max(0.0), res);
        if have && held_b == b {
            if w.total_cmp(&held_w).then(gen.cmp(&held_gen)).is_lt() {
                (held_w, held_gen, held_src) = (w, gen, src);
            }
            continue;
        }
        if have {
            // held_w < min_emitted by construction (see above).
            min_emitted = held_w;
            out.push(rep(held_w, held_b, held_gen, held_src));
        }
        // Re-check against the just-tightened envelope; buckets are
        // monotone in the walk, so a failed adoption can be picked up by
        // a later same-bucket candidate only with a strictly smaller w,
        // which makes it the correct rep.
        have = w < min_emitted;
        (held_w, held_b, held_gen, held_src) = (w, b, gen, src);
    }
    if have {
        out.push(rep(held_w, held_b, held_gen, held_src));
    }
}

/// The `(w, gen)` minimum of the candidates `cand(k)` for `k` in `range`,
/// given that `w` does not rise along it: the last candidate, or one of
/// equal `w` before it with a smaller `gen`.
fn prefix_min(
    range: std::ops::Range<usize>,
    cand: impl Fn(usize) -> (f64, u32, u32),
) -> Option<(f64, u32, u32)> {
    let mut best = cand(range.clone().last()?);
    for k in range.rev().skip(1) {
        let c = cand(k);
        match c.0.total_cmp(&best.0) {
            Ordering::Greater => break,
            Ordering::Equal if c.1 < best.1 => best = c,
            Ordering::Equal => {}
            Ordering::Less => debug_assert!(false, "w must not rise along a drained prefix"),
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(w: f64, bucket: u64, gen: u32, mi: u16) -> Rep {
        Rep {
            w,
            bucket,
            gen,
            src: 0,
            mi,
        }
    }

    #[test]
    fn prefix_min_breaks_equal_weights_by_gen() {
        // (w, gen) along a drained prefix: w does not rise.
        let cands = [(9.0, 0, 0), (4.0, 7, 1), (4.0, 3, 2), (4.0, 5, 3)];
        let best = prefix_min(0..cands.len(), |k| cands[k]);
        assert_eq!(best, Some((4.0, 3, 2)));
        assert_eq!(prefix_min(0..1, |k| cands[k]), Some((9.0, 0, 0)));
        assert_eq!(prefix_min(0..0, |k| cands[k]), None);
    }

    #[test]
    fn the_first_rep_of_a_bucket_faces_the_global_minimum_alone() {
        // α = 0: the first in (w, gen, rate) order is kept below g; every
        // other one must also beat w*, which an equal w cannot.
        let grouped = [
            rep(5.0, 1, 2, 0),
            rep(5.0, 1, 1, 3),
            rep(4.0, 2, 0, 1),
            rep(3.0, 2, 0, 2),
        ];
        let (mut keys, mut kept) = (Vec::new(), Vec::new());
        decide(0.0, &grouped, &mut keys, &mut kept);
        let got: Vec<(u64, u16)> = kept.iter().map(|r| (r.bucket, r.mi)).collect();
        assert_eq!(got, vec![(1, 3), (2, 2)]);
        // α = 2: in bucket 1 the other rep keeps too (5 − 2 < 5), after
        // the first by gen; bucket 2 enters with g = 5 and keeps its first
        // (3 − 2 < 5) and its other (4 − 2 < min(5, 3)).
        decide(2.0, &grouped, &mut keys, &mut kept);
        let got: Vec<(u64, u16)> = kept.iter().map(|r| (r.bucket, r.mi)).collect();
        assert_eq!(got, vec![(1, 3), (1, 0), (2, 2), (2, 1)]);
    }
}

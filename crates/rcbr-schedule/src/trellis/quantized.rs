//! Quantized-mode candidate expansion: per-`(rate, bucket)` reduction.
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
//! Representatives are found in one pass per rate stream. Each stream is
//! the front-pruned subsequence of the column that [`Streams`] yields
//! (see [`super::front`]): the rate's own survivors plus the column's
//! front, in column order. It is q-sorted, `bucket(q)` is monotone in
//! `q`, so each cell is a contiguous segment of it and a running
//! `(w, gen)`-minimum suffices. The reps are then *grouped* (not sorted)
//! by a counting scatter on the bucket index — bounded by `bucket(b_t)`
//! since every feasible `q'` is at most the slot's buffer bound. The
//! sweep consumes the groups in ascending bucket order and orders each
//! bucket's reps only after filtering them against the live frontier
//! minima, which leaves almost nothing to sort (see
//! `Sweep::offer_buckets`). The per-slot cost is `O(n + M·|G|)` stream
//! walking for a front `G` plus `O(reps + buckets)` ordering, replacing
//! the reference's `O(n·M·log(n·M))` sort of every candidate.

use std::cmp::Ordering;

use super::front::Streams;
use super::kernel::{Rep, SlotCtx};
use super::soa::Column;

/// Above this bucket count the counting-sort footprint stops paying for
/// itself (degenerate resolutions); fall back to the comparison sort.
const COUNTING_SORT_LIMIT: u64 = 1 << 22;

/// Reusable counting-sort buffers.
#[derive(Default)]
pub(super) struct Scratch {
    counts: Vec<u32>,
    buf: Vec<Rep>,
    /// Whether the last [`expand`] left its reps bucket-grouped rather
    /// than fully sorted.
    grouped: bool,
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

/// Order reps by `(bucket, w, generation)` — the reference's stable
/// `(bucket, w)` sort with its generation tie order `(gsi, mi)` made
/// explicit. The key is unique per rep (one rep per `(rate, bucket)`
/// cell), so `sort_unstable` is deterministic regardless of input order.
pub(super) fn sort_reps(reps: &mut [Rep]) {
    reps.sort_unstable_by(|a, b| {
        a.bucket
            .cmp(&b.bucket)
            .then(a.w.total_cmp(&b.w))
            .then(a.gsi.cmp(&b.gsi))
            .then(a.mi.cmp(&b.mi))
    });
}

impl Scratch {
    /// Per-bucket end offsets into the rep list after a grouping
    /// [`expand`] (ascending bucket order; empty buckets have
    /// `end == start`), or `None` if the last expand fell back to the
    /// full sort.
    pub(super) fn bucket_ends(&self) -> Option<&[u32]> {
        self.grouped.then_some(&self.counts)
    }
}

/// Counting scatter by bucket index: groups the reps into ascending
/// bucket order in `O(reps + buckets)`, leaving each bucket's reps in
/// arbitrary order. The sweep orders *within* a bucket itself — after
/// filtering against the frontier minima, which leaves almost nothing to
/// sort — so no global comparison sort is needed at all.
fn bucket_group(reps: &mut Vec<Rep>, max_bucket: u64, s: &mut Scratch) {
    s.counts.clear();
    s.counts.resize(max_bucket as usize + 1, 0);
    if reps.is_empty() {
        return;
    }
    for r in reps.iter() {
        s.counts[r.bucket as usize] += 1;
    }
    // Exclusive prefix sums: counts[b] becomes bucket b's start offset.
    let mut acc = 0u32;
    for c in s.counts.iter_mut() {
        let n = *c;
        *c = acc;
        acc += n;
    }
    s.buf.clear();
    s.buf.resize(reps.len(), reps[0]);
    for r in reps.iter() {
        let slot = &mut s.counts[r.bucket as usize];
        s.buf[*slot as usize] = *r;
        *slot += 1;
    }
    std::mem::swap(reps, &mut s.buf);
    // After the scatter, counts[b] is bucket b's end offset.
}

/// Expand one slot into `reps`, ready for the sweep, and return the
/// number of candidates evaluated. The reps are bucket-grouped (consume
/// with the sweep's `offer_buckets` and [`Scratch::bucket_ends`]) or,
/// when `bucket_ends` is `None`, fully sorted in `(bucket, w, gen)` order
/// (consume with plain `offer_rep` in sequence).
pub(super) fn expand(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    streams: &Streams,
    cutoffs: &[usize],
    res: f64,
    reps: &mut Vec<Rep>,
    scratch: &mut Scratch,
) -> u64 {
    reps.clear();
    let mut evaluated = 0u64;
    for (mi, &cut) in cutoffs.iter().enumerate() {
        evaluated += stream_reps(ctx, cur, streams, mi as u16, cut, res, reps);
    }
    // Every feasible q' satisfies q' <= b_t, and bucket() is monotone, so
    // bucket(b_t) bounds every rep's bucket.
    let max_bucket = bucket(ctx.b_t, res);
    scratch.grouped = max_bucket < COUNTING_SORT_LIMIT;
    if scratch.grouped {
        bucket_group(reps, max_bucket, scratch);
    } else {
        sort_reps(reps);
    }
    evaluated
}

/// Walk one rate stream up to its feasibility cut and emit the
/// representative of each bucket segment: the candidate minimizing
/// `(w, gen)`. Uses the reference's exact float expressions for `q'` and
/// `w'`. Returns the number of candidates walked.
///
/// Two lossless prunes keep the walk cheap:
///
/// * **Decreasing-envelope filter.** A rep whose `w` is ≥ any earlier
///   same-stream rep's `w` can never be kept by the sweep: if the earlier
///   rep was kept it set `per_rate_min[rate]` at or below that `w`; if it
///   was skipped, the check that skipped it only tightens by the time the
///   later rep arrives (both minima are non-increasing). Skipped reps
///   never mutate sweep state, so dropping them here is invisible — the
///   emitted reps are the strictly-decreasing-`w` envelope.
/// * **Deferred bucket computation.** A candidate with `w ≥ min_emitted`
///   can neither be emitted nor tie a future rep (every future emission
///   is strictly below `min_emitted`), so the comparatively expensive
///   `q'`/bucket computation — a division per candidate — is skipped for
///   the vast majority of candidates on the cheap `w`-only test.
fn stream_reps(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    streams: &Streams,
    mi: u16,
    cut: usize,
    res: f64,
    out: &mut Vec<Rep>,
) -> u64 {
    let svc = ctx.svc[mi as usize];
    let c = ctx.slot_cost[mi as usize];
    let mut min_emitted = f64::INFINITY;
    let mut best: Option<Rep> = None;
    let mut cursor = streams.cursor(mi as usize, cut);
    let mut walked = 0u64;
    while let Some(i) = streams.next(&mut cursor) {
        walked += 1;
        let w = cur.w[i] + c + if mi == cur.rate[i] { 0.0 } else { ctx.alpha };
        if w >= min_emitted {
            continue;
        }
        let q = (cur.q[i] + ctx.x - svc).max(0.0);
        let b = bucket(q, res);
        match &mut best {
            Some(rep) if rep.bucket == b => {
                let better = match w.total_cmp(&rep.w) {
                    Ordering::Less => true,
                    Ordering::Equal => cur.gen[i] < rep.gsi,
                    Ordering::Greater => false,
                };
                if better {
                    *rep = Rep {
                        bucket: b,
                        q,
                        w,
                        gsi: cur.gen[i],
                        mi,
                        parent: cur.arena[i],
                    };
                }
            }
            _ => {
                if let Some(rep) = best.take() {
                    // rep.w < min_emitted by construction (see above).
                    min_emitted = rep.w;
                    out.push(rep);
                }
                // Re-check against the just-tightened envelope; buckets
                // are monotone in the walk, so a failed adoption can be
                // picked up by a later same-bucket candidate only with a
                // strictly smaller w, which makes it the correct rep.
                if w < min_emitted {
                    best = Some(Rep {
                        bucket: b,
                        q,
                        w,
                        gsi: cur.gen[i],
                        mi,
                        parent: cur.arena[i],
                    });
                }
            }
        }
    }
    if let Some(rep) = best {
        out.push(rep);
    }
    walked
}

//! Exact-mode candidate expansion: the `M`-way frontier merge.
//!
//! For a fixed target rate `mi`, mapping a q-sorted run of survivors
//! through `q' = max(q + x − s_mi, 0)` yields a q-sorted candidate
//! stream (the map is monotone, clamping included). Each rate's stream
//! is the front-pruned subsequence of the column that [`Streams`] yields
//! (see [`super::front`]): its own survivors plus the column's front. The
//! global `(q, w, gen, rate)` candidate order the reference obtains with
//! a full `O(n·M·log(n·M))` sort is therefore an `M`-way merge of `M`
//! sorted streams — `O(c·log M)` for the `c ≤ n + M·|G|` candidates the
//! streams hold — plus a tiny sort of each *exactly-equal-q* group to
//! restore the reference's `(w, gen, rate)` tie order (groups are almost
//! always singletons; the clamped `q = 0` run is the one recurring
//! exception).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::front::{Cursor, Streams};
use super::kernel::{Cand, SlotCtx, Sweep};
use super::soa::Column;

/// One stream head in the merge heap: the next candidate of target rate
/// `mi`, drawn from survivor index `si`.
#[derive(Debug, Clone, Copy)]
struct Head {
    q: f64,
    mi: u16,
    si: u32,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the smallest q.
        // `mi` tie-break is only for determinism; equal-q heads end up in
        // the same group and are re-ordered there.
        other
            .q
            .total_cmp(&self.q)
            .then_with(|| other.mi.cmp(&self.mi))
    }
}

/// Reusable merge buffers.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    heap: BinaryHeap<Head>,
    group: Vec<Cand>,
    /// Each rate's read position in its stream.
    cursors: Vec<Cursor>,
}

/// Candidate for stream `mi` at survivor `si`, with the reference's exact
/// float expressions.
#[inline]
fn make_cand(ctx: &SlotCtx<'_>, cur: &Column, si: u32, mi: u16) -> Cand {
    let i = si as usize;
    let q = (cur.q[i] + ctx.x - ctx.svc[mi as usize]).max(0.0);
    let w = cur.w[i] + ctx.slot_cost[mi as usize] + if mi == cur.rate[i] { 0.0 } else { ctx.alpha };
    Cand {
        q,
        w,
        gsi: cur.gen[i],
        mi,
        parent: cur.arena[i],
    }
}

/// Expand one slot and drive the sweep: all streams share one heap;
/// candidates flow straight from the merge into the sweep with no
/// materialization. Returns the number of candidates evaluated.
pub(super) fn expand(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    streams: &Streams,
    cutoffs: &[usize],
    s: &mut Scratch,
    sweep: &mut Sweep<'_>,
) -> u64 {
    s.heap.clear();
    s.cursors.clear();
    for (mi, &cut) in cutoffs.iter().enumerate() {
        let mut cursor = streams.cursor(mi, cut);
        push_next(ctx, cur, streams, &mut s.heap, mi as u16, &mut cursor);
        s.cursors.push(cursor);
    }
    let mut evaluated = 0u64;
    while let Some(top) = s.heap.pop() {
        // Collect the exactly-equal-q group (bit equality via total_cmp,
        // matching the reference sort's key comparison).
        s.group.clear();
        advance(ctx, cur, streams, s, top);
        while let Some(&next) = s.heap.peek() {
            if next.q.total_cmp(&top.q) != Ordering::Equal {
                break;
            }
            let next = s.heap.pop().expect("peeked");
            advance(ctx, cur, streams, s, next);
        }
        evaluated += s.group.len() as u64;
        flush_group(&mut s.group, sweep);
    }
    evaluated
}

/// Emit `head`'s candidate into the group and push its stream's
/// successor.
#[inline]
fn advance(ctx: &SlotCtx<'_>, cur: &Column, streams: &Streams, s: &mut Scratch, head: Head) {
    s.group.push(make_cand(ctx, cur, head.si, head.mi));
    let cursor = &mut s.cursors[head.mi as usize];
    push_next(ctx, cur, streams, &mut s.heap, head.mi, cursor);
}

/// Push stream `mi`'s next head, if it has one before its cut.
#[inline]
fn push_next(
    ctx: &SlotCtx<'_>,
    cur: &Column,
    streams: &Streams,
    heap: &mut BinaryHeap<Head>,
    mi: u16,
    cursor: &mut Cursor,
) {
    if let Some(si) = streams.next(cursor) {
        let q = (cur.q[si] + ctx.x - ctx.svc[mi as usize]).max(0.0);
        heap.push(Head {
            q,
            mi,
            si: si as u32,
        });
    }
}

/// Order an equal-q group by the reference tie keys and sweep it.
#[inline]
fn flush_group(group: &mut [Cand], sweep: &mut Sweep<'_>) {
    if group.len() > 1 {
        group.sort_unstable_by(|a, b| {
            a.w.total_cmp(&b.w)
                .then(a.gsi.cmp(&b.gsi))
                .then(a.mi.cmp(&b.mi))
        });
    }
    for c in group.iter() {
        sweep.offer(c);
    }
}

//! The sharded driver: N `ShardState`s, one per worker thread, over
//! `mpsc` channels and a `Barrier`. The protocol itself — every sweep,
//! sort and hop advance — is the kernel's (`kernel.rs`), shared with
//! [`run_sequential`](crate::run_sequential).
//!
//! ## Execution model: bulk-synchronous supersteps
//!
//! Switch `h` lives on shard `h % num_shards`; VC `v`'s load generator on
//! shard `v % num_shards`. Each **round**:
//!
//! 1. **Round top** (pipeline quiescent) — every shard sweeps its
//!    switches' leases and admission windows, delivers last round's
//!    verdicts to its VCs' retry state machines and publishes their
//!    believed rates (phase A), then emits their due control traffic
//!    (a reroute walk, at most one retry), steps the Settled ones through
//!    `slots_per_round` traffic slots, `LANES` VCs abreast, and emits the
//!    queued teardowns (phase B, in those three parts). Emitted attempts
//!    are handed to the first hop's shard. On audit rounds every shard
//!    then audits its own switches against the published beliefs.
//! 2. **Drain** — supersteps run until no job is in flight. Each advances
//!    the global logical clock by one; a shard drains its inbox, releases
//!    due fault-delayed cells, retries stall-held cells, applies due
//!    crash-restart wipes, sorts the batch, advances every job one hop,
//!    and hands follow-up jobs to the next hop's shard.
//!
//! ## Why the outcome is shard-count invariant — even under faults
//!
//! A job injected in round `r` reaches hop `k` at a superstep that
//! depends only on the logical clock and the fault plane's pure decisions
//! — *independent of the partition*. Delays are keyed to release
//! supersteps, crashes and stalls to superstep windows, duplicates to
//! `(seq, hop, salt)`; none of them can observe which thread owns a
//! switch. So the set of jobs meeting at a switch in a given superstep is
//! fixed, and the kernel's sort fixes their order. Every switch therefore
//! processes exactly the same cell sequence at any shard count, the
//! single-shard sequential driver included, fault plane and all.
//!
//! Two barriers per superstep separate draining from processing, so a
//! channel is never written while its owner drains it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Barrier;

use crate::config::RuntimeConfig;
use crate::core::Job;
use crate::kernel::{assemble_report, ShardState, Shared};
use crate::report::{RunReport, WallTimer};

/// Whether some shard's set-up failed. Safe only after the post-set-up
/// barrier: every worker stored its verdict before waiting on it, and
/// nobody writes afterwards.
fn snapshot_setup_failed(flag: &AtomicBool) -> bool {
    flag.load(Ordering::SeqCst)
}

/// Run the sharded engine to completion and report.
///
/// # Panics
/// Panics if the initial admission does not fit `port_capacity`.
pub fn run(cfg: &RuntimeConfig) -> RunReport {
    let started = WallTimer::start();
    let sh = Shared::new(cfg);
    let barrier = Barrier::new(cfg.num_shards);
    let setup_failed = AtomicBool::new(false);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..cfg.num_shards).map(|_| mpsc::channel()).unzip();

    let results: Option<Vec<ShardState<'_>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                let (sh, barrier, setup_failed, txs) = (&sh, &barrier, &setup_failed, txs.clone());
                scope.spawn(move || worker(sh, shard, rx, txs, barrier, setup_failed))
            })
            .collect();
        // Drop the main thread's senders so workers hold the only handles.
        drop(txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let results = results.expect("initial admission must fit; raise port_capacity");
    let wall = started.elapsed_seconds();
    assemble_report(&sh, results, wall)
}

/// Step shard `shard` of `txs.len()` through the run. The shard is built
/// here, inside its thread, so the workers split the per-VC trace
/// generation. `None` when any shard's set-up failed.
fn worker<'a>(
    sh: &'a Shared<'a>,
    shard: usize,
    rx: Receiver<Vec<Job>>,
    txs: Vec<Sender<Vec<Job>>>,
    barrier: &Barrier,
    setup_failed: &AtomicBool,
) -> Option<ShardState<'a>> {
    let cfg = sh.cfg;
    let state = ShardState::new(sh, shard, txs.len());
    if state.is_none() {
        setup_failed.store(true, Ordering::SeqCst);
    }
    // A worker that panicked here would leave the others waiting on the
    // barrier forever; instead all of them learn of the failure and
    // return, and `run` raises it once.
    barrier.wait();
    if snapshot_setup_failed(setup_failed) {
        return None;
    }
    let mut state = state?;
    let mut jobs: Vec<Job> = Vec::new();
    // Received batches, emptied: the next sends go out in these, so the
    // steady state allocates no batch. One superstep sends at most one
    // batch per shard, so that many are worth keeping.
    let mut spare: Vec<Vec<Job>> = Vec::new();
    for round in 0..cfg.max_rounds {
        state.round_top(round);
        send_batches(state.outbox(), &txs, &mut spare);
        barrier.wait(); // all injections delivered, all beliefs published
        state.audit_if_due(round);
        // The loop yields the completed-request total as of quiescence,
        // snapshotted at a point all shards agree on.
        let completed = loop {
            while let Ok(mut batch) = rx.try_recv() {
                jobs.append(&mut batch);
                if spare.len() < txs.len() {
                    spare.push(batch);
                }
            }
            let drain = state.open_superstep(&mut jobs);
            barrier.wait(); // all inboxes drained
            if drain.quiescent {
                break drain.completed;
            }
            state.advance_superstep(&mut jobs);
            send_batches(state.outbox(), &txs, &mut spare);
            barrier.wait(); // all follow-up sends delivered
        };
        if completed >= cfg.target_requests {
            break;
        }
    }
    Some(state)
}

fn send_batches(out: &mut [Vec<Job>], txs: &[Sender<Vec<Job>>], spare: &mut Vec<Vec<Job>>) {
    for (batch, tx) in out.iter_mut().zip(txs) {
        if !batch.is_empty() {
            let empty = spare.pop().unwrap_or_default();
            tx.send(std::mem::replace(batch, empty))
                .expect("receiver alive");
        }
    }
}

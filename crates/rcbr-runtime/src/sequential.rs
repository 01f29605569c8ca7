//! The single-threaded driver: one `ShardState` owning every switch and
//! VC (whatever `cfg.num_shards` says), stepped on the calling thread.
//!
//! The hand-off is a `Vec` swap — the shard's outbox comes back as its
//! next inbox — and there is nothing to wait for, so no barrier. Jobs at
//! different switches never interact within a superstep, so sorting the
//! whole wave yields the per-switch cell order any partition produces:
//! this is the reference the concurrency and chaos tests compare
//! [`run`](crate::run) against.

use crate::config::RuntimeConfig;
use crate::core::Job;
use crate::kernel::{assemble_report, ShardState, Shared};
use crate::report::{RunReport, WallTimer};

/// Run the workload single-threaded and report.
///
/// # Panics
/// Panics if the initial admission does not fit `port_capacity`.
pub fn run_sequential(cfg: &RuntimeConfig) -> RunReport {
    let started = WallTimer::start();
    let sh = Shared::new(cfg);
    let mut state =
        ShardState::new(&sh, 0, 1).expect("initial admission must fit; raise port_capacity");
    let mut wave: Vec<Job> = Vec::new();
    for round in 0..cfg.max_rounds {
        state.round_top(round);
        state.audit_if_due(round);
        let completed = loop {
            std::mem::swap(&mut wave, &mut state.outbox()[0]);
            let drain = state.open_superstep(&mut wave);
            if drain.quiescent {
                break drain.completed;
            }
            state.advance_superstep(&mut wave);
        };
        if completed >= cfg.target_requests {
            break;
        }
    }
    let wall = started.elapsed_seconds();
    assemble_report(&sh, vec![state], wall)
}

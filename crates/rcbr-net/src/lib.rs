#![warn(missing_docs)]
// A worker that panics strands its siblings at the barrier: shipped code
// panics only through an `expect` or `assert!` that names its invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # rcbr-net — the ATM-style network substrate (Section III)
//!
//! RCBR's whole point is that it needs almost nothing from switches:
//! traffic entering the network is CBR, so "internal buffers can be small
//! and packet scheduling need only be FIFO", and renegotiation signaling is
//! two table lookups per hop. This crate models exactly that machinery:
//!
//! * [`rm`] — resource-management cells reused for lightweight
//!   renegotiation signaling (Section III-B): the ER field carries the
//!   *difference* between old and new rates so the fast path needs no
//!   per-VCI state, with periodic absolute-rate resync cells repairing the
//!   parameter drift that delta-encoding suffers when RM cells are lost.
//!   Cells have a real wire encoding (exercised by the `bytes` crate).
//! * [`port`] — an output port: capacity, aggregate reservation, the
//!   two-lookup admission check (`utilization + delta <= capacity`), and
//!   slow-path per-VCI accounting for resync.
//! * [`switch`] — a switch: VCI table plus ports; processes RM cells by
//!   port lookup + reservation check, denying by clearing the ER field.
//! * [`path`] — multi-hop renegotiation: every hop is a possible point of
//!   failure (Section III-C); a denial at hop `k` rolls back reservations
//!   made at hops `1..k`. Per-hop latency accumulates into the
//!   request/confirm round-trip time.
//! * [`signaling`] — bounded per-switch signaling queues: a per-superstep
//!   service budget for renegotiation cells with deterministic,
//!   priority-monotone shedding by the pure `(class, seq, salt)` order,
//!   plus the overload-pressure window piggybacked on RM responses.
//! * [`fault`] — the deterministic fault plane: seeded, stateless
//!   per-traversal decisions (drop / delay / duplicate / bit-corrupt),
//!   scheduled switch crashes that wipe soft reservation state, and
//!   bounded shard stalls — all replayable, so drift and its repair by
//!   resync can be asserted bit-exactly.

pub mod fault;
pub mod path;
pub mod port;
pub mod rm;
pub mod salt;
pub mod signaling;
pub mod switch;
mod table;
pub mod topology;

pub use fault::{
    ActiveFaults, CrashSpec, FaultAction, FaultConfig, FaultPlane, KillSpec, LinkDownSpec,
    StallSpec, FAULT_BP_SCALE,
};
pub use path::{Path, RenegotiationOutcome};
pub use port::{OutputPort, PortLoad, VcSlot};
pub use rm::{RateField, RmCell, RM_CELL_BYTES};
pub use salt::{SALT_GHOST, SALT_PRIMARY, SALT_TEARDOWN_BASE};
pub use signaling::{select_shed, PriorityClass, ShedKey, SignalingQueue};
pub use switch::{Switch, SwitchError};
pub use topology::{Link, Topology};

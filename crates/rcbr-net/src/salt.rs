//! The fault-plane salt registry.
//!
//! A job's `salt` is part of its fault-plane identity: the plane decides
//! every cell's fate as a stateless hash of `(seed, seq, hop, salt,
//! lane)`, and the runtime's kernel sorts each superstep's batch on
//! `(seq, salt, origin)`. Two traffic families that ever share a `(seq,
//! salt)` pair therefore share fault coin flips *and* a processing-order
//! tie — which is exactly how a past regression broke shard
//! bit-identity: teardown walks briefly reused the salt space of slot
//! traffic, so a teardown cell and a data cell could collide on the same
//! fault key and the collision resolved differently per shard count.
//!
//! Disjoint families do not make `(seq, salt)` a total order, though:
//! one family collides with itself. A primary duplicated at two
//! different hops leaves two [`SALT_GHOST`] cells of one `seq`, and they
//! can meet at one switch in one superstep. They differ in their spawn
//! hop, `origin` — hence in how far a denial unwinds — which is why
//! `origin` closes the sort key.
//!
//! Every salt in the system is declared here, in one module, so the
//! disjointness argument is auditable at a glance (and mechanized by
//! rcbr-lint's `salt-registry` rule: a bare integer literal assigned to
//! a salt anywhere else is a lint error).
//!
//! The concrete values are wire-visible state: they feed the fault hash,
//! so renumbering them reshuffles every committed baseline. Treat them
//! as frozen.

/// The salt of an original cell: the first (and usually only) traversal
/// of a signaling attempt, and the salt slot traffic is emitted with.
/// Only `SALT_PRIMARY` cells are eligible for fault-plane duplication,
/// and only they deliver verdicts back to the source — ghosts are
/// network artifacts, invisible to the load generator.
pub const SALT_PRIMARY: u8 = 0;

/// The salt a duplicate ghost re-traverses with. Distinct from
/// [`SALT_PRIMARY`] so the ghost draws fresh fault coin flips at every
/// hop (and cannot itself duplicate, which would be unbounded).
pub const SALT_GHOST: u8 = 1;

/// First teardown-walk salt; the `i`-th teardown walk a VC emits in one
/// round uses `SALT_TEARDOWN_BASE + i`. Starts at 3, leaving salt 2 as
/// a historical gap: the values are frozen (see the module docs), and
/// teardown salts must stay disjoint from [`SALT_PRIMARY`] and
/// [`SALT_GHOST`] so reliable teardown control traffic never shares a
/// fault key or a processing-order tie with the slot traffic it cleans
/// up after.
pub const SALT_TEARDOWN_BASE: u8 = 3;

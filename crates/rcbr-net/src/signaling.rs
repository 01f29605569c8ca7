//! Bounded per-switch signaling queues with deterministic priority
//! shedding — the control plane's overload protection.
//!
//! RCBR's signaling is cheap *because renegotiation is rare*; a flash
//! crowd briefly breaks that assumption and piles RM cells onto a hop.
//! The [`SignalingQueue`] bounds how many renegotiation cells a switch's
//! signaling processor serves per superstep. The overflow is not dropped
//! by arrival order — arrival order is an artifact of how switches are
//! partitioned into shards — but by the pure total order
//! `(priority_class, seq, salt)` over the *whole set* of cells meeting at
//! the switch in that superstep. Since that set is partition-invariant
//! (see the engine's superstep model), so is the shed decision, and the
//! counters stay bit-identical at every shard count.
//!
//! Serving a prefix of the `(class, seq, salt)`-sorted set makes shedding
//! priority-monotone within a superstep by construction: every served key
//! orders at or before every shed key, so a Gold cell can only be shed
//! once no Silver or BestEffort cell is being served at that hop.
//!
//! An overloaded queue also raises a *pressure* signal for a configured
//! hold window; the engine piggybacks it on RM-cell responses (the wire
//! flags byte) so sources — BestEffort ones especially — can stop
//! renegotiating until the storm passes.

use std::cmp::Ordering;

/// The service class a VC's signaling cells carry. Assigned statically by
/// the load generator (a pure function of the VCI and the configured
/// class mix), never by arrival order, so every shard agrees on it.
///
/// `Ord` is the shed order: `Gold` sorts first and is served first,
/// `BestEffort` sorts last and is shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityClass {
    /// Served first; shed only after every lower class at the hop.
    Gold,
    /// Intermediate class.
    Silver,
    /// Shed first; the brownout degradation tier applies to this class.
    BestEffort,
}

/// By [`rank`](PriorityClass::rank), i.e. declaration order. Both orders
/// are written out because a derived `PartialOrd` compares through
/// `partial_cmp`, which `clippy.toml` bans, and clippy rejects a derived
/// `Ord` beside a hand-written `PartialOrd`.
impl Ord for PriorityClass {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl PartialOrd for PriorityClass {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PriorityClass {
    /// Numeric rank: 0 = Gold, 1 = Silver, 2 = BestEffort.
    pub fn rank(self) -> u8 {
        match self {
            PriorityClass::Gold => 0,
            PriorityClass::Silver => 1,
            PriorityClass::BestEffort => 2,
        }
    }

    /// Static class assignment from a percentage mix: VCIs with
    /// `vci % 100 < gold_pct` are Gold, the next `silver_pct` percent
    /// Silver, the rest BestEffort. Pure in `(vci, mix)` — no RNG stream
    /// is consumed, so adding classes perturbs no existing draw.
    pub fn from_mix(vci: u32, gold_pct: u32, silver_pct: u32) -> Self {
        debug_assert!(gold_pct + silver_pct <= 100, "class mix exceeds 100%");
        let bucket = vci % 100;
        if bucket < gold_pct {
            PriorityClass::Gold
        } else if bucket < gold_pct + silver_pct {
            PriorityClass::Silver
        } else {
            PriorityClass::BestEffort
        }
    }
}

/// The identity of one shed-eligible cell meeting a switch in one
/// superstep. Its `Ord` — class first, then `(seq, salt)` — is the one
/// true shed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedKey {
    /// The owning VC's service class.
    pub class: PriorityClass,
    /// The cell's global sequence number.
    pub seq: u64,
    /// The cell's fault-plane salt (tiebreak for same-seq ghosts).
    pub salt: u8,
}

/// Field by field, as a derive would; written out for the reason given at
/// [`PriorityClass`]'s.
impl Ord for ShedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.class, self.seq, self.salt).cmp(&(other.class, other.seq, other.salt))
    }
}

impl PartialOrd for ShedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pure shed selection: given the full meeting set of shed-eligible cells
/// at one switch in one superstep, return the keys to shed, sorted by
/// `(seq, salt)`. A `budget` of 0 means unbounded (the legacy behavior):
/// nothing is ever shed.
///
/// The input order of `keys` is irrelevant — the set is sorted by the
/// `(class, seq, salt)` total order and the first `budget` keys are
/// served — which is exactly what makes the decision independent of how
/// the engine happened to enumerate the cells. The answer comes back in
/// `keys`' own allocation, so a caller that hands the same buffer in
/// every superstep allocates nothing.
pub fn select_shed(budget: u64, mut keys: Vec<ShedKey>) -> Vec<ShedKey> {
    if budget == 0 || keys.len() as u64 <= budget {
        keys.clear();
        return keys;
    }
    keys.sort_unstable();
    keys.drain(..budget as usize);
    keys.sort_unstable_by_key(|k| (k.seq, k.salt));
    keys
}

/// Per-switch signaling-queue state: the per-superstep service budget and
/// the pressure window the last overload opened. Lives beside the switch
/// it guards (one per switch, owned by that switch's shard), and evolves
/// as a pure function of the partition-invariant meeting sets — so every
/// shard count reproduces the same pressure history.
#[derive(Debug, Clone)]
pub struct SignalingQueue {
    /// Shed-eligible cells served per superstep; 0 = unbounded.
    budget: u64,
    /// First superstep at which the last overload's pressure has cleared.
    pressure_clear_at: u64,
}

impl SignalingQueue {
    /// A queue serving at most `budget` renegotiation cells per superstep
    /// (0 = unbounded), starting with no pressure advertised.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            pressure_clear_at: 0,
        }
    }

    /// Rank this superstep's meeting set, shed the overflow, and — if
    /// anything was shed — advertise pressure for the next
    /// `pressure_hold_supersteps` supersteps. Returns the shed keys,
    /// sorted by `(seq, salt)`.
    pub fn admit_superstep(
        &mut self,
        keys: Vec<ShedKey>,
        superstep: u64,
        pressure_hold_supersteps: u64,
    ) -> Vec<ShedKey> {
        let shed = select_shed(self.budget, keys);
        if !shed.is_empty() {
            self.pressure_clear_at = self
                .pressure_clear_at
                .max(superstep + pressure_hold_supersteps);
        }
        shed
    }

    /// Whether the switch is advertising overload pressure at `superstep`.
    pub fn under_pressure(&self, superstep: u64) -> bool {
        superstep < self.pressure_clear_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_budget_is_unbounded() {
        let keys: Vec<ShedKey> = (0..1000)
            .map(|i| ShedKey {
                class: PriorityClass::BestEffort,
                seq: i,
                salt: 0,
            })
            .collect();
        assert!(select_shed(0, keys).is_empty());
    }

    #[test]
    fn class_mix_covers_the_vci_space() {
        // 25/25/50 mix: buckets 0..25 Gold, 25..50 Silver, 50..100 BE.
        assert_eq!(PriorityClass::from_mix(0, 25, 25), PriorityClass::Gold);
        assert_eq!(PriorityClass::from_mix(24, 25, 25), PriorityClass::Gold);
        assert_eq!(PriorityClass::from_mix(25, 25, 25), PriorityClass::Silver);
        assert_eq!(PriorityClass::from_mix(49, 25, 25), PriorityClass::Silver);
        assert_eq!(
            PriorityClass::from_mix(50, 25, 25),
            PriorityClass::BestEffort
        );
        assert_eq!(
            PriorityClass::from_mix(199, 25, 25),
            PriorityClass::BestEffort
        );
        // Degenerate mixes.
        assert_eq!(PriorityClass::from_mix(99, 100, 0), PriorityClass::Gold);
        assert_eq!(PriorityClass::from_mix(0, 0, 0), PriorityClass::BestEffort);
    }

    #[test]
    fn pressure_holds_then_clears() {
        let mut q = SignalingQueue::new(1);
        let keys = vec![
            ShedKey {
                class: PriorityClass::Gold,
                seq: 1,
                salt: 0,
            },
            ShedKey {
                class: PriorityClass::Silver,
                seq: 2,
                salt: 0,
            },
        ];
        assert!(!q.under_pressure(10));
        let shed = q.admit_superstep(keys, 10, 4);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].class, PriorityClass::Silver);
        assert!(q.under_pressure(10));
        assert!(q.under_pressure(13));
        assert!(!q.under_pressure(14));
        // A non-overloaded superstep does not extend the window.
        let none = q.admit_superstep(Vec::new(), 12, 4);
        assert!(none.is_empty());
        assert!(!q.under_pressure(14));
    }

    /// A deterministic meeting set: unique `(seq, salt)` pairs with
    /// classes spread across all three tiers.
    fn meeting_set(n: usize, class_stride: u64) -> Vec<ShedKey> {
        (0..n as u64)
            .map(|i| ShedKey {
                class: match (i / class_stride.max(1)) % 3 {
                    0 => PriorityClass::Gold,
                    1 => PriorityClass::Silver,
                    _ => PriorityClass::BestEffort,
                },
                seq: i * 7 + 3,
                salt: (i % 2) as u8,
            })
            .collect()
    }

    proptest! {
        /// Shedding is a pure function of the key *set*: any enumeration
        /// order of the meeting set (here: reversed and rotated) sheds
        /// exactly the same cells.
        #[test]
        fn selection_is_iteration_order_independent(
            n in 0usize..64,
            stride in 1u64..8,
            budget in 0u64..70,
            rot in 0usize..64,
        ) {
            let keys = meeting_set(n, stride);
            let baseline = select_shed(budget, keys.clone());

            let mut reversed = keys.clone();
            reversed.reverse();
            prop_assert_eq!(&select_shed(budget, reversed), &baseline);

            let mut rotated = keys;
            if !rotated.is_empty() {
                let r = rot % rotated.len();
                rotated.rotate_left(r);
            }
            prop_assert_eq!(&select_shed(budget, rotated), &baseline);
        }

        /// Priority monotonicity: no cell is shed while a cell of a
        /// *lower* class is served at the same hop in the same superstep
        /// — and the shed count is exactly the overflow.
        #[test]
        fn selection_is_priority_monotone(
            n in 0usize..64,
            stride in 1u64..8,
            budget in 1u64..70,
        ) {
            let keys = meeting_set(n, stride);
            // The hand-written `PartialOrd` agrees with `Ord`, read through
            // the operators (naming `partial_cmp` here trips clippy.toml).
            for (a, b) in keys.iter().zip(keys.iter().rev()) {
                let ord = a.cmp(b);
                prop_assert_eq!((a < b, a <= b, a >= b), (ord.is_lt(), ord.is_le(), ord.is_ge()));
            }
            let shed = select_shed(budget, keys.clone());
            let expected = (keys.len() as u64).saturating_sub(budget);
            prop_assert_eq!(shed.len() as u64, expected);

            let is_shed = |k: &ShedKey| shed.contains(k);
            for served in keys.iter().filter(|k| !is_shed(k)) {
                for dropped in &shed {
                    prop_assert!(
                        dropped.class.rank() >= served.class.rank(),
                        "shed {dropped:?} outranks served {served:?}"
                    );
                }
            }
        }
    }
}

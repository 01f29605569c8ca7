//! The deterministic fault plane.
//!
//! Footnote 2 of the paper: delta-encoded ER fields suffer "parameter
//! drift in case of RM cell loss", repaired by periodic absolute-rate
//! resync. A credible evaluation of that repair loop needs a richer — and
//! *replayable* — failure model than a coin flip per cell. [`FaultPlane`]
//! is that model: a stateless, seeded decision function over the identity
//! of each cell-hop traversal, plus a schedule of switch crashes and
//! shard stalls.
//!
//! ## Why stateless hashing instead of an RNG stream
//!
//! The sharded runtime's headline invariant is that counters are
//! bit-identical at any shard count. A stateful RNG would have to be
//! consumed in a globally agreed order — exactly the coordination the
//! engine avoids. Instead every decision is a pure hash of
//! `(seed, seq, hop, salt, lane)`: any shard (or the sequential replay)
//! asks about the same traversal and gets the same answer, in any order,
//! any number of times.
//!
//! ## Fault taxonomy
//!
//! * **Drop** — the cell vanishes mid-path; upstream hops keep the
//!   half-applied delta (drift), the source times out.
//! * **Delay** — the cell is held at the hop for `1..=max_delay`
//!   supersteps, then processed normally (reordering against later cells).
//! * **Duplicate** — a ghost copy of the cell re-traverses the path from
//!   the current hop one superstep later, double-applying its effect
//!   (over-reservation drift that resync repairs).
//! * **Corrupt** — 1–2 bits of the 16-byte wire image are flipped; the
//!   RM-cell checksum detects this and the cell is discarded (equivalent
//!   to a drop, but counted separately).
//! * **Crash** — a switch goes down for a window of supersteps, killing
//!   every cell that arrives, and loses its *soft* reservation state on
//!   restart (the VCI routing table is hard state); recovery must come
//!   from absolute-rate resync cells.
//! * **Stall** — a group of switches stops processing for a bounded
//!   window; cells destined to them are held by their owners until the
//!   window passes (pure latency, no loss).

use serde::{Deserialize, Serialize};

/// Basis-point denominator: probabilities are expressed in 1/10000ths.
pub const FAULT_BP_SCALE: u32 = 10_000;

/// The fate of one cell-hop traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Process the cell normally.
    Deliver,
    /// The cell vanishes.
    Drop,
    /// Hold the cell for this many supersteps, then process it.
    Delay(u64),
    /// Process the cell *and* spawn a ghost copy one superstep later.
    Duplicate,
    /// Flip bits in the wire image; the checksum catches it and the cell
    /// is discarded.
    Corrupt,
}

/// One scheduled switch crash: down for `[at_superstep, at_superstep +
/// down_supersteps)`, soft state wiped at restart.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Global index of the switch that crashes.
    pub switch: usize,
    /// First superstep of the outage.
    pub at_superstep: u64,
    /// Outage length in supersteps (>= 1).
    pub down_supersteps: u64,
}

/// One scheduled link outage: the undirected link `a <-> b` is down for
/// `[at_superstep, at_superstep + down_supersteps)`. Cells crossing the
/// link inside the window die without a verdict. Several windows may name
/// the same link (a flapping link is a sequence of outages).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDownSpec {
    /// One endpoint switch of the link.
    pub a: usize,
    /// The other endpoint switch.
    pub b: usize,
    /// First superstep of the outage.
    pub at_superstep: u64,
    /// Outage length in supersteps (>= 1).
    pub down_supersteps: u64,
}

/// One permanent switch kill: from `at_superstep` on, the switch is gone
/// for good — unlike a [`CrashSpec`] it never restarts, so its VCs must
/// reroute around it (or degrade if no alternate path survives).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KillSpec {
    /// Global index of the switch that dies.
    pub switch: usize,
    /// First superstep of the permanent outage.
    pub at_superstep: u64,
}

/// One scheduled stall: switches whose global index satisfies
/// `switch % groups == group` stop processing for the window. Keyed by a
/// *virtual* group rather than a physical shard id so the same spec means
/// the same thing at every shard count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StallSpec {
    /// Number of virtual groups the switch population is divided into.
    pub groups: usize,
    /// The stalled group (`< groups`).
    pub group: usize,
    /// First superstep of the stall.
    pub at_superstep: u64,
    /// Stall length in supersteps (>= 1).
    pub supersteps: u64,
}

/// The complete, serializable description of a fault scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the per-traversal decision hash (independent of the
    /// workload seed, so the same traffic can be replayed under different
    /// fault patterns).
    pub seed: u64,
    /// Per-traversal drop probability, basis points (1/10000).
    pub drop_bp: u32,
    /// Per-traversal delay probability, basis points.
    pub delay_bp: u32,
    /// Maximum delay in supersteps (each delay draws `1..=max_delay`).
    pub max_delay: u64,
    /// Per-traversal duplication probability, basis points.
    pub dup_bp: u32,
    /// Per-traversal bit-corruption probability, basis points.
    pub corrupt_bp: u32,
    /// Scheduled switch crashes (at most one per switch).
    pub crashes: Vec<CrashSpec>,
    /// Scheduled link outages (several windows per link = flapping).
    pub link_downs: Vec<LinkDownSpec>,
    /// Permanent switch kills (at most one per switch; a killed switch
    /// must not also have a transient crash scheduled).
    pub kills: Vec<KillSpec>,
    /// Optional scheduled stall.
    pub stall: Option<StallSpec>,
}

impl FaultConfig {
    /// No faults at all.
    pub fn transparent() -> Self {
        Self {
            seed: 0,
            drop_bp: 0,
            delay_bp: 0,
            max_delay: 1,
            dup_bp: 0,
            corrupt_bp: 0,
            crashes: Vec::new(),
            link_downs: Vec::new(),
            kills: Vec::new(),
            stall: None,
        }
    }

    /// Drops only, at `drop_probability ∈ [0, 1]` (rounded to basis
    /// points) — the old `FaultInjector` shape.
    ///
    /// # Panics
    /// Panics unless `drop_probability ∈ [0, 1]`.
    pub fn drop_only(drop_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0, 1]"
        );
        Self {
            seed,
            drop_bp: (drop_probability * FAULT_BP_SCALE as f64).round() as u32,
            ..Self::transparent()
        }
    }

    /// Whether no fault can ever fire.
    pub fn is_transparent(&self) -> bool {
        self.drop_bp == 0
            && self.delay_bp == 0
            && self.dup_bp == 0
            && self.corrupt_bp == 0
            && self.crashes.is_empty()
            && self.link_downs.is_empty()
            && self.kills.is_empty()
            && self.stall.is_none()
    }

    /// Panic on an inconsistent configuration.
    pub fn validate(&self) {
        assert!(
            self.drop_bp + self.delay_bp + self.dup_bp + self.corrupt_bp <= FAULT_BP_SCALE,
            "fault probabilities exceed 100%"
        );
        assert!(self.max_delay >= 1, "max_delay must be >= 1");
        for (i, c) in self.crashes.iter().enumerate() {
            assert!(
                c.down_supersteps >= 1,
                "crash outage must last >= 1 superstep"
            );
            assert!(c.at_superstep >= 1, "crashes start at superstep >= 1");
            assert!(
                !self.crashes[..i].iter().any(|o| o.switch == c.switch),
                "at most one crash per switch"
            );
        }
        for l in &self.link_downs {
            assert!(l.a != l.b, "a link joins two distinct switches");
            assert!(
                l.down_supersteps >= 1,
                "link outage must last >= 1 superstep"
            );
            assert!(l.at_superstep >= 1, "link outages start at superstep >= 1");
        }
        for (i, k) in self.kills.iter().enumerate() {
            assert!(k.at_superstep >= 1, "kills start at superstep >= 1");
            assert!(
                !self.kills[..i].iter().any(|o| o.switch == k.switch),
                "at most one kill per switch"
            );
            assert!(
                !self.crashes.iter().any(|c| c.switch == k.switch),
                "a killed switch cannot also have a transient crash"
            );
        }
        if let Some(s) = &self.stall {
            assert!(s.groups >= 1 && s.group < s.groups, "bad stall group");
            assert!(s.supersteps >= 1, "stall must last >= 1 superstep");
        }
    }
}

/// The scheduled outages in force at one superstep: what
/// [`FaultPlane::switch_down`], [`FaultPlane::switch_killed`],
/// [`FaultPlane::link_down`] and [`FaultPlane::restart_superstep`] answer
/// for that superstep, worked out once ([`FaultPlane::active_at`])
/// instead of once per cell or per route. A pure function of the
/// configuration and the clock, so every shard holds the same lists;
/// with nothing scheduled a query tests an empty one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveFaults {
    down: Vec<usize>,
    killed: Vec<usize>,
    links: Vec<(usize, usize)>,
    restarted: Vec<usize>,
}

impl ActiveFaults {
    /// [`FaultPlane::switch_down`] at this superstep.
    pub fn switch_down(&self, switch: usize) -> bool {
        self.down.contains(&switch)
    }

    /// [`FaultPlane::switch_killed`] at this superstep.
    pub fn switch_killed(&self, switch: usize) -> bool {
        self.killed.contains(&switch)
    }

    /// Whether no switch is killed and no link is down: no route can
    /// have died, so a liveness check need not walk one.
    pub fn routes_intact(&self) -> bool {
        self.killed.is_empty() && self.links.is_empty()
    }

    /// [`FaultPlane::link_down`] at this superstep.
    pub fn link_down(&self, a: usize, b: usize) -> bool {
        self.links.contains(&(a, b)) || self.links.contains(&(b, a))
    }

    /// The switches whose crash window has ended by this superstep —
    /// [`FaultPlane::restart_superstep`] is at or before it — in
    /// configuration order.
    pub fn restarted(&self) -> &[usize] {
        &self.restarted
    }
}

/// Whether `superstep` is inside the window `[at, at + len)`.
fn within(superstep: u64, at: u64, len: u64) -> bool {
    superstep >= at && superstep < at + len
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded, stateless fault decision plane.
///
/// Cheap to share by reference across threads (decisions are pure
/// functions), and `transparent()` short-circuits to `Deliver` so the
/// fault-free fast path costs one branch.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    cfg: FaultConfig,
    transparent: bool,
}

impl FaultPlane {
    /// Build the plane for `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (see
    /// [`FaultConfig::validate`]).
    pub fn new(cfg: FaultConfig) -> Self {
        cfg.validate();
        let transparent = cfg.is_transparent();
        Self { cfg, transparent }
    }

    /// A plane that never injects anything.
    pub fn transparent() -> Self {
        Self::new(FaultConfig::transparent())
    }

    fn hash(&self, seq: u64, hop: usize, salt: u8, lane: u64) -> u64 {
        mix(self.cfg.seed.wrapping_add(0x9e37_79b9_7f4a_7c15)
            ^ mix(seq ^ ((hop as u64) << 48) ^ ((salt as u64) << 40) ^ lane))
    }

    /// The fate of forward cell `seq` (with duplicate-`salt`) at `hop`.
    ///
    /// Pure in its arguments: every shard count and the sequential replay
    /// agree on every traversal's fate.
    pub fn decide(&self, seq: u64, hop: usize, salt: u8) -> FaultAction {
        if self.transparent {
            return FaultAction::Deliver;
        }
        let h = self.hash(seq, hop, salt, 0);
        let r = (h % FAULT_BP_SCALE as u64) as u32;
        let c = &self.cfg;
        if r < c.drop_bp {
            FaultAction::Drop
        } else if r < c.drop_bp + c.corrupt_bp {
            FaultAction::Corrupt
        } else if r < c.drop_bp + c.corrupt_bp + c.delay_bp {
            FaultAction::Delay(1 + (h >> 32) % c.max_delay)
        } else if r < c.drop_bp + c.corrupt_bp + c.delay_bp + c.dup_bp
            && salt == crate::SALT_PRIMARY
        {
            // Ghosts never spawn further ghosts: at most one copy per cell.
            FaultAction::Duplicate
        } else {
            FaultAction::Deliver
        }
    }

    /// The fate of a rollback cell. Rollback cells only suffer drops
    /// (leaving upstream reservations stranded — drift): delaying or
    /// duplicating an *undo* would let it unwind state twice.
    pub fn decide_rollback(&self, seq: u64, hop: usize, salt: u8) -> FaultAction {
        if self.transparent {
            return FaultAction::Deliver;
        }
        let h = self.hash(seq, hop, salt, 1);
        if (h % FAULT_BP_SCALE as u64) < self.cfg.drop_bp as u64 {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    }

    /// Refill `active` with the outages in force at `superstep`: each
    /// scheduled switch and link, asked the point queries below.
    pub fn active_at(&self, superstep: u64, active: &mut ActiveFaults) {
        let c = &self.cfg;
        let crashed = c.crashes.iter().map(|x| x.switch);
        let killed = c.kills.iter().map(|k| k.switch);
        active.down.clear();
        active.down.extend(
            killed
                .clone()
                .chain(crashed.clone())
                .filter(|&s| self.switch_down(s, superstep)),
        );
        active.killed.clear();
        active
            .killed
            .extend(killed.filter(|&s| self.switch_killed(s, superstep)));
        let links = c.link_downs.iter().map(|l| (l.a, l.b));
        active.links.clear();
        active
            .links
            .extend(links.filter(|&(a, b)| self.link_down(a, b, superstep)));
        let restarted = |&s: &usize| self.restart_superstep(s).is_some_and(|at| superstep >= at);
        active.restarted.clear();
        active.restarted.extend(crashed.filter(restarted));
    }

    /// Whether `switch` is down — transiently crashed *or* permanently
    /// killed — at `superstep`.
    pub fn switch_down(&self, switch: usize, superstep: u64) -> bool {
        self.switch_killed(switch, superstep)
            || self
                .cfg
                .crashes
                .iter()
                .any(|c| c.switch == switch && within(superstep, c.at_superstep, c.down_supersteps))
    }

    /// Whether `switch` is permanently killed at `superstep`. Kills never
    /// end: recovery must come from rerouting, not from waiting.
    pub fn switch_killed(&self, switch: usize, superstep: u64) -> bool {
        self.cfg
            .kills
            .iter()
            .any(|k| k.switch == switch && superstep >= k.at_superstep)
    }

    /// Whether the undirected link `a <-> b` is inside a scheduled outage
    /// window at `superstep`.
    pub fn link_down(&self, a: usize, b: usize, superstep: u64) -> bool {
        self.cfg.link_downs.iter().any(|l| {
            ((l.a == a && l.b == b) || (l.a == b && l.b == a))
                && within(superstep, l.at_superstep, l.down_supersteps)
        })
    }

    /// The superstep at which `switch` restarts (and its soft state must
    /// be wiped), if it is scheduled to crash. Permanently killed switches
    /// never restart, so they report `None`.
    pub fn restart_superstep(&self, switch: usize) -> Option<u64> {
        self.cfg
            .crashes
            .iter()
            .find(|c| c.switch == switch)
            .map(|c| c.at_superstep + c.down_supersteps)
    }

    /// Whether `switch` is stalled (holding, not processing) at
    /// `superstep`.
    pub fn stalled(&self, switch: usize, superstep: u64) -> bool {
        match &self.cfg.stall {
            Some(s) => {
                switch % s.groups == s.group && within(superstep, s.at_superstep, s.supersteps)
            }
            None => false,
        }
    }

    /// Flip 1–2 distinct bits of `wire`, deterministically in
    /// `(seed, seq, hop)`. The RM-cell checksum detects any such flip.
    ///
    /// # Panics
    /// Panics on an empty buffer.
    pub fn corrupt_wire(&self, wire: &mut [u8], seq: u64, hop: usize) {
        assert!(!wire.is_empty(), "cannot corrupt an empty buffer");
        let bits = wire.len() as u64 * 8;
        let h = self.hash(seq, hop, 0, 2);
        let first = h % bits;
        wire[(first / 8) as usize] ^= 1 << (first % 8);
        if h & (1 << 63) != 0 && bits > 1 {
            // A second, guaranteed-distinct bit.
            let second = (first + 1 + (h >> 32) % (bits - 1)) % bits;
            wire[(second / 8) as usize] ^= 1 << (second % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::RmCell;
    use crate::switch::Switch;

    fn lossy(drop_bp: u32) -> FaultPlane {
        FaultPlane::new(FaultConfig {
            seed: 9,
            drop_bp,
            ..FaultConfig::transparent()
        })
    }

    #[test]
    fn transparent_never_faults() {
        let p = FaultPlane::transparent();
        for seq in 0..1000 {
            assert_eq!(p.decide(seq, 0, 0), FaultAction::Deliver);
            assert_eq!(p.decide_rollback(seq, 2, 0), FaultAction::Deliver);
            assert!(!p.switch_down(3, seq));
            assert!(!p.stalled(3, seq));
        }
        assert!(p.transparent);
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = lossy(2_500);
        let b = lossy(2_500);
        let other = FaultPlane::new(FaultConfig {
            seed: 10,
            drop_bp: 2_500,
            ..FaultConfig::transparent()
        });
        let mut diverged = false;
        for seq in 0..2_000u64 {
            for hop in 0..4 {
                assert_eq!(a.decide(seq, hop, 0), b.decide(seq, hop, 0));
                if a.decide(seq, hop, 0) != other.decide(seq, hop, 0) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds must change the pattern");
    }

    #[test]
    fn drop_rate_is_respected() {
        let p = lossy(2_500); // 25%
        let drops = (0..20_000u64)
            .filter(|&seq| p.decide(seq, 0, 0) == FaultAction::Drop)
            .count();
        let frac = drops as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn all_actions_fire_and_delay_is_bounded() {
        let p = FaultPlane::new(FaultConfig {
            seed: 3,
            drop_bp: 1_000,
            delay_bp: 1_000,
            max_delay: 4,
            dup_bp: 1_000,
            corrupt_bp: 1_000,
            ..FaultConfig::transparent()
        });
        let mut seen = [false; 5];
        for seq in 0..10_000u64 {
            match p.decide(seq, seq as usize % 4, 0) {
                FaultAction::Deliver => seen[0] = true,
                FaultAction::Drop => seen[1] = true,
                FaultAction::Delay(d) => {
                    assert!((1..=4).contains(&d), "delay {d} out of range");
                    seen[2] = true;
                }
                FaultAction::Duplicate => seen[3] = true,
                FaultAction::Corrupt => seen[4] = true,
            }
        }
        assert_eq!(seen, [true; 5], "every action must be reachable");
        // Ghost copies never duplicate again.
        for seq in 0..10_000u64 {
            assert_ne!(p.decide(seq, 1, 1), FaultAction::Duplicate);
        }
    }

    #[test]
    fn crash_and_stall_windows() {
        let p = FaultPlane::new(FaultConfig {
            seed: 0,
            crashes: vec![CrashSpec {
                switch: 2,
                at_superstep: 10,
                down_supersteps: 5,
            }],
            stall: Some(StallSpec {
                groups: 3,
                group: 1,
                at_superstep: 20,
                supersteps: 4,
            }),
            ..FaultConfig::transparent()
        });
        assert!(!p.switch_down(2, 9));
        assert!(p.switch_down(2, 10));
        assert!(p.switch_down(2, 14));
        assert!(!p.switch_down(2, 15));
        assert!(!p.switch_down(3, 12));
        assert_eq!(p.restart_superstep(2), Some(15));
        assert_eq!(p.restart_superstep(0), None);
        // Group 1 of 3: switches 1, 4, 7, ...
        assert!(p.stalled(4, 21));
        assert!(!p.stalled(4, 24));
        assert!(!p.stalled(3, 21));
    }

    /// `active_at` is the point queries, asked once per superstep: over a
    /// schedule with a kill, two crashes and a flapping link, and a reused
    /// buffer, the two agree on every switch, every link (either way
    /// round) and every restart at every superstep.
    #[test]
    fn active_faults_answer_as_the_point_queries_do() {
        let flap = |at_superstep| LinkDownSpec {
            a: 4,
            b: 3,
            at_superstep,
            down_supersteps: 6,
        };
        let p = FaultPlane::new(FaultConfig {
            kills: vec![KillSpec {
                switch: 1,
                at_superstep: 17,
            }],
            crashes: [(2, 5, 9), (5, 20, 1)]
                .map(|(switch, at_superstep, down_supersteps)| CrashSpec {
                    switch,
                    at_superstep,
                    down_supersteps,
                })
                .to_vec(),
            link_downs: vec![
                flap(3),
                flap(8),
                LinkDownSpec {
                    a: 0,
                    b: 5,
                    ..flap(12)
                },
            ],
            ..FaultConfig::transparent()
        });
        let mut active = ActiveFaults::default();
        for t in 0..40 {
            p.active_at(t, &mut active);
            for a in 0..6 {
                assert_eq!(
                    active.switch_down(a),
                    p.switch_down(a, t),
                    "switch {a} at {t}"
                );
                assert_eq!(active.switch_killed(a), p.switch_killed(a, t), "{a} at {t}");
                let restarted = p.restart_superstep(a).is_some_and(|at| t >= at);
                assert_eq!(active.restarted().contains(&a), restarted, "{a} at {t}");
                for b in 0..6 {
                    assert_eq!(
                        active.link_down(a, b),
                        p.link_down(a, b, t),
                        "{a}-{b} at {t}"
                    );
                }
            }
        }
        p.active_at(40, &mut active);
        assert_eq!(active.restarted(), [2, 5], "configuration order, each once");
    }

    /// The same agreement over `chaos_reroute`'s schedule — 96 switches,
    /// two kills, two crashes and sixteen link windows — at every
    /// superstep to 3000, on every switch and every ring and chord link.
    /// Inside a crash window the crashed switch is down but not killed,
    /// which is why route liveness (asking `switch_killed`) rides a crash
    /// out instead of rerouting around it.
    #[test]
    fn active_faults_answer_for_the_chaos_reroute_schedule() {
        let n = 96;
        let p = FaultPlane::new(FaultConfig {
            kills: [(3, 200), (49, 900)]
                .map(|(switch, at_superstep)| KillSpec {
                    switch,
                    at_superstep,
                })
                .to_vec(),
            crashes: [(32, 600), (64, 1500)]
                .map(|(switch, at_superstep)| CrashSpec {
                    switch,
                    at_superstep,
                    down_supersteps: 80,
                })
                .to_vec(),
            link_downs: (0..8u64)
                .flat_map(|k| {
                    let s = (5 + 11 * k as usize) % n;
                    [300 + 250 * k, 2500 + 250 * k].map(|at_superstep| LinkDownSpec {
                        a: s,
                        b: (s + 1) % n,
                        at_superstep,
                        down_supersteps: 120,
                    })
                })
                .collect(),
            ..FaultConfig::transparent()
        });
        let ring = (0..n).map(|i| (i, (i + 1) % n));
        let chords = (0..n - 2).step_by(4).map(|i| (i, i + 2));
        let links: Vec<(usize, usize)> = ring.chain(chords).collect();
        let mut active = ActiveFaults::default();
        let (mut crashed_not_killed, mut cut) = (0, 0);
        for t in 0..=3000 {
            p.active_at(t, &mut active);
            for s in 0..n {
                assert_eq!(active.switch_killed(s), p.switch_killed(s, t), "{s} at {t}");
                assert_eq!(active.switch_down(s), p.switch_down(s, t), "{s} at {t}");
                crashed_not_killed +=
                    usize::from(active.switch_down(s) && !active.switch_killed(s));
            }
            for &(a, b) in &links {
                for (x, y) in [(a, b), (b, a)] {
                    assert_eq!(
                        active.link_down(x, y),
                        p.link_down(x, y, t),
                        "{x}-{y} at {t}"
                    );
                }
                cut += usize::from(active.link_down(a, b));
            }
            assert_eq!(
                active.routes_intact(),
                (0..n).all(|s| !p.switch_killed(s, t))
                    && links.iter().all(|&(a, b)| !p.link_down(a, b, t)),
                "at {t}"
            );
        }
        assert_eq!(crashed_not_killed, 2 * 80, "both crash windows, whole");
        // The first eight windows whole; of the second eight, those at
        // 2500 and 2750 whole and the one at 3000 for its first superstep.
        assert_eq!(cut, 10 * 120 + 1);
        p.active_at(640, &mut active);
        assert!(active.switch_down(32) && !active.switch_killed(32));
        assert!(active.switch_killed(3) && !active.switch_killed(49));
    }

    #[test]
    fn kills_are_permanent_and_never_restart() {
        let p = FaultPlane::new(FaultConfig {
            kills: vec![KillSpec {
                switch: 3,
                at_superstep: 50,
            }],
            ..FaultConfig::transparent()
        });
        assert!(!p.switch_down(3, 49));
        assert!(!p.switch_killed(3, 49));
        assert!(p.switch_down(3, 50));
        assert!(p.switch_killed(3, 50));
        assert!(p.switch_down(3, 1_000_000), "kills never end");
        assert_eq!(
            p.restart_superstep(3),
            None,
            "killed switches never restart"
        );
        assert!(!p.switch_killed(2, 60));
        assert!(!p.transparent);
    }

    #[test]
    fn link_windows_are_undirected_and_can_flap() {
        let p = FaultPlane::new(FaultConfig {
            link_downs: vec![
                LinkDownSpec {
                    a: 1,
                    b: 2,
                    at_superstep: 10,
                    down_supersteps: 5,
                },
                LinkDownSpec {
                    a: 2,
                    b: 1,
                    at_superstep: 30,
                    down_supersteps: 4,
                },
            ],
            ..FaultConfig::transparent()
        });
        assert!(!p.link_down(1, 2, 9));
        assert!(p.link_down(1, 2, 10));
        assert!(p.link_down(2, 1, 14), "links are undirected");
        assert!(!p.link_down(1, 2, 15), "first window ends");
        assert!(p.link_down(1, 2, 31), "second flap window");
        assert!(!p.link_down(1, 2, 34));
        assert!(!p.link_down(1, 3, 12), "other links unaffected");
        assert!(!p.transparent);
    }

    #[test]
    #[should_panic(expected = "cannot also have a transient crash")]
    fn kill_plus_crash_on_one_switch_rejected() {
        FaultPlane::new(FaultConfig {
            crashes: vec![CrashSpec {
                switch: 1,
                at_superstep: 5,
                down_supersteps: 2,
            }],
            kills: vec![KillSpec {
                switch: 1,
                at_superstep: 50,
            }],
            ..FaultConfig::transparent()
        });
    }

    #[test]
    fn corruption_is_always_detected_by_the_checksum() {
        let p = lossy(1);
        for seq in 0..500u64 {
            for hop in 0..4 {
                let cell = RmCell::delta(seq as u32, 12_345.0 + seq as f64);
                let mut wire = cell.encode();
                p.corrupt_wire(&mut wire, seq, hop);
                assert_ne!(wire, cell.encode(), "corruption must change the bytes");
                assert!(
                    RmCell::decode(&wire).is_none(),
                    "checksum must catch 1-2 flipped bits (seq {seq} hop {hop})"
                );
            }
        }
    }

    #[test]
    fn drift_and_resync_scenario() {
        // A source sends +delta cells through a lossy plane; the switch's
        // view drifts below the source's, then a resync repairs it exactly.
        let mut sw = Switch::new(&[1_000_000.0]);
        sw.setup(1, 0, 100_000.0).unwrap();
        let plane = lossy(5_000); // 50%
        let mut source_view = 100_000.0;
        let mut dropped = 0;
        for seq in 0..20u64 {
            let delta = 10_000.0;
            source_view += delta; // source assumes success optimistically
            if plane.decide(seq, 0, 0) == FaultAction::Deliver {
                sw.process_rm(RmCell::delta(1, delta)).unwrap();
            } else {
                dropped += 1;
            }
        }
        let switch_view = sw.vci_rate(1).unwrap();
        assert!(dropped > 0, "seed should drop something");
        assert!(
            switch_view < source_view,
            "drift expected: switch {switch_view} vs source {source_view}"
        );
        // Resync with the true rate repairs the drift.
        sw.process_rm(RmCell::resync(1, source_view)).unwrap();
        assert_eq!(sw.vci_rate(1), Some(source_view));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        FaultConfig::drop_only(1.5, 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overfull_buckets_rejected() {
        FaultPlane::new(FaultConfig {
            drop_bp: 6_000,
            corrupt_bp: 6_000,
            ..FaultConfig::transparent()
        });
    }
}

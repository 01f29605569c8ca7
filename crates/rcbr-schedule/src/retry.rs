//! Retry policy for signaling requests: timeouts, bounded retries with
//! deterministic exponential backoff + seeded jitter, and exhaustion.
//!
//! A dropped or corrupted RM cell never produces a verdict, so the source
//! must time the request out and retry. Retries are bounded: after the
//! budget is exhausted the source degrades gracefully — it keeps its last
//! granted rate (the paper's "the source can keep whatever bandwidth it
//! already has") and stops renegotiating upward for that request. Backoff
//! is deterministic in `(seed, vci, attempt)` so the sharded runtime and
//! the sequential replay schedule retries identically.

use serde::{Deserialize, Serialize};

/// splitmix64 finalizer (the same mixer the fault plane uses).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Timeout / retry / backoff parameters for one VC's signaling requests.
///
/// All durations are in *supersteps* — the signaling plane's logical
/// clock — so behavior is independent of wall time and shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// A request with no verdict after this many supersteps has timed out
    /// (its cell was dropped, corrupted, or killed by a crash).
    pub timeout_supersteps: u64,
    /// Retries allowed after the initial attempt; attempt `retry_budget +
    /// 1` failing exhausts the request.
    pub retry_budget: u32,
    /// Base backoff before the first retry, supersteps (doubles per
    /// failure, capped to avoid overflow).
    pub backoff_base: u64,
    /// Maximum seeded jitter added to each backoff, supersteps.
    pub backoff_jitter: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl RetryPolicy {
    /// Whether a request injected at `injected_at` has timed out at `now`.
    pub fn timed_out(&self, injected_at: u64, now: u64) -> bool {
        now.saturating_sub(injected_at) >= self.timeout_supersteps
    }

    /// Whether `failures` failed attempts exhaust the request (initial
    /// attempt + `retry_budget` retries have all failed).
    pub fn exhausted(&self, failures: u32) -> bool {
        failures > self.retry_budget
    }

    /// Backoff before the retry after the `failures`-th failure
    /// (`failures >= 1`), supersteps: `base * 2^(failures-1)` (exponent
    /// capped at 16) plus jitter in `0..=backoff_jitter` hashed from
    /// `(seed, vci, failures)`.
    pub fn backoff(&self, vci: u32, failures: u32) -> u64 {
        assert!(failures >= 1, "backoff is only defined after a failure");
        self.widen(0, vci, failures)
    }

    /// Backoff before retrying a request the network *shed* (an over-budget
    /// signaling queue refused the cell), supersteps. Same exponential
    /// widening and jitter bounds as [`backoff`](Self::backoff), but drawn
    /// from a decorrelated jitter stream: a shed is the network asking the
    /// whole population for patience, so shed retries must not land on the
    /// same supersteps as failure retries — that would re-synchronize the
    /// very storm the shedding is dissipating.
    pub fn shed_backoff(&self, vci: u32, sheds: u32) -> u64 {
        assert!(sheds >= 1, "shed backoff is only defined after a shed");
        self.widen(0x5348_4544, vci, sheds) // "SHED"
    }

    /// `base * 2^(n-1)` (exponent capped at 16) plus jitter hashed from
    /// `(seed ^ stream, vci, n)`; `n >= 1`.
    fn widen(&self, stream: u64, vci: u32, n: u32) -> u64 {
        let exp = (n - 1).min(16);
        let base = self.backoff_base.saturating_mul(1u64 << exp);
        let jitter = if self.backoff_jitter == 0 {
            0
        } else {
            mix(self.seed ^ stream ^ ((vci as u64) << 32) ^ n as u64) % (self.backoff_jitter + 1)
        };
        base + jitter
    }
}

/// Stateful failure accounting for a long-lived recovery process (e.g.
/// rerouting a VC around a dead switch), layered over the stateless
/// [`RetryPolicy`]. Unlike a per-request failure count, the budget is an
/// *account*: consecutive failures draw it down, and any successful
/// renegotiation refills it in full — a source that just proved the
/// control plane works again deserves a fresh budget for the next
/// failure, not the tail end of the previous one.
///
/// Sheds draw a second, separate account of this type: a shed is the
/// network asking for patience, not a verdict on the request, so sheds
/// must never draw down the failure budget that decides degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryBudget {
    budget: u32,
    failures: u32,
}

impl RetryBudget {
    /// A full budget allowing `budget` retries after the initial attempt.
    pub fn new(budget: u32) -> Self {
        Self {
            budget,
            failures: 0,
        }
    }

    /// Record a failed attempt; returns the consecutive-failure count.
    pub fn on_failure(&mut self) -> u32 {
        self.failures += 1;
        self.failures
    }

    /// A renegotiation succeeded: reset the consecutive-failure count,
    /// restoring the full budget for the next failure episode.
    pub fn on_success(&mut self) {
        self.failures = 0;
    }

    /// Consecutive failures since the last success.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Whether the consecutive failures exhaust the budget (initial
    /// attempt + `budget` retries all failed).
    pub fn exhausted(&self) -> bool {
        self.failures > self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            timeout_supersteps: 8,
            retry_budget: 3,
            backoff_base: 4,
            backoff_jitter: 3,
            seed: 42,
        }
    }

    #[test]
    fn timeout_threshold() {
        let p = policy();
        assert!(!p.timed_out(100, 107));
        assert!(p.timed_out(100, 108));
        assert!(p.timed_out(100, 500));
    }

    #[test]
    fn exhaustion_counts_the_budget() {
        let p = policy();
        assert!(!p.exhausted(1));
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = policy();
        for failures in 1..=6u32 {
            let a = p.backoff(7, failures);
            let b = p.backoff(7, failures);
            assert_eq!(a, b, "same inputs must give the same backoff");
            let base = p.backoff_base * (1 << (failures - 1));
            assert!(
                (base..=base + p.backoff_jitter).contains(&a),
                "backoff {a} outside [{base}, {}]",
                base + p.backoff_jitter
            );
        }
    }

    #[test]
    fn jitter_varies_by_vci_and_is_bounded() {
        let p = policy();
        let spread: std::collections::BTreeSet<u64> =
            (0..64u32).map(|vci| p.backoff(vci, 1)).collect();
        assert!(spread.len() > 1, "jitter must actually spread retries");
        assert!(spread
            .iter()
            .all(|&b| { b >= p.backoff_base && b <= p.backoff_base + p.backoff_jitter }));
    }

    #[test]
    fn huge_failure_counts_do_not_overflow() {
        let p = policy();
        let b = p.backoff(0, u32::MAX);
        assert!(b >= p.backoff_base * (1 << 16));
    }

    #[test]
    fn shed_backoff_widens_and_decorrelates_from_failure_backoff() {
        let p = policy();
        for sheds in 1..=6u32 {
            let a = p.shed_backoff(7, sheds);
            assert_eq!(a, p.shed_backoff(7, sheds), "must be deterministic");
            let base = p.backoff_base * (1 << (sheds - 1));
            assert!(
                (base..=base + p.backoff_jitter).contains(&a),
                "shed backoff {a} outside [{base}, {}]",
                base + p.backoff_jitter
            );
        }
        // The two jitter streams must actually differ somewhere, or shed
        // retries re-synchronize with failure retries.
        assert!(
            (0..64u32).any(|vci| p.shed_backoff(vci, 1) != p.backoff(vci, 1)),
            "shed jitter stream must be decorrelated from failure jitter"
        );
    }

    #[test]
    fn sheds_do_not_touch_the_denial_budget() {
        // A request that is shed (then eventually succeeds) must leave the
        // failure budget exactly where it was — sheds have their own
        // account.
        let mut denials = RetryBudget::new(2);
        let mut sheds = RetryBudget::new(2);
        denials.on_failure();
        let failures_before = denials.failures();
        assert_eq!(sheds.on_failure(), 1);
        assert_eq!(sheds.on_failure(), 2);
        assert!(!sheds.exhausted());
        assert_eq!(
            denials.failures(),
            failures_before,
            "sheds must not consume the denial budget"
        );
        // Shed-then-success refills the shed account; the denial account
        // is refilled by the same success, as before.
        sheds.on_success();
        denials.on_success();
        assert_eq!(sheds.failures(), 0);
        assert_eq!(denials.failures(), 0);
        // And the shed account exhausts independently.
        let mut s = RetryBudget::new(1);
        s.on_failure();
        assert!(!s.exhausted());
        s.on_failure();
        assert!(s.exhausted(), "2 consecutive sheds exceed cap 1");
    }

    #[test]
    fn both_backoff_streams_are_pinned() {
        // `RuntimeConfig::balanced`'s policy (seed 7 ^ "RTRY"); each row is
        // `n = 1..=4`. A change to either stream constant or to the order
        // of the hashed inputs moves these.
        let p = RetryPolicy {
            timeout_supersteps: 32,
            retry_budget: 3,
            backoff_base: 4,
            backoff_jitter: 3,
            seed: 7 ^ 0x5254_5259,
        };
        let pins: [(u32, [u64; 4], [u64; 4]); 3] = [
            (0, [6, 10, 19, 33], [4, 11, 16, 33]),
            (1, [6, 9, 19, 32], [7, 10, 19, 32]),
            (97, [7, 10, 18, 34], [6, 9, 19, 33]),
        ];
        for (vci, backoff, shed) in pins {
            for n in 1..=4u32 {
                let i = n as usize - 1;
                assert_eq!(p.backoff(vci, n), backoff[i], "backoff({vci}, {n})");
                assert_eq!(p.shed_backoff(vci, n), shed[i], "shed_backoff({vci}, {n})");
            }
        }
    }

    #[test]
    fn budget_refills_after_a_successful_renegotiation() {
        let mut b = RetryBudget::new(2);
        assert!(!b.exhausted());
        assert_eq!(b.on_failure(), 1);
        assert_eq!(b.on_failure(), 2);
        assert!(!b.exhausted(), "the budget allows exactly 2 retries");
        // A success mid-episode resets the account in full.
        b.on_success();
        assert_eq!(b.failures(), 0);
        assert_eq!(b.on_failure(), 1, "post-success failures start fresh");
        assert!(!b.exhausted());
        b.on_failure();
        b.on_failure();
        assert!(b.exhausted(), "3 consecutive failures exceed budget 2");
    }
}

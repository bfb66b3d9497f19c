//! Deterministic fault injection: plans, injectors, and retry backoff.
//!
//! A [`FaultPlan`] is a pure description of everything that is allowed to
//! go wrong in a run — node crash/recovery windows, message drop/delay/
//! corruption probabilities, disk error rates — plus the recovery knobs
//! (failure-detection delay, per-peer request timeout, bounded retries).
//! A [`FaultInjector`] turns the plan's probabilities into a reproducible
//! decision stream: the same plan yields the same injected-fault sequence
//! on every run, which keeps faulty simulations byte-identical across
//! repetitions and lets two engines (simulator and live cluster) share
//! one fault vocabulary.
//!
//! The injector deliberately carries its own tiny RNG (splitmix64) so the
//! crate stays dependency-free and the decision stream can never be
//! perturbed by unrelated draws elsewhere in a model. Probabilities of
//! exactly zero never advance the RNG, so a [`FaultPlan::none`] plan is
//! inert: code paths that consult it behave identically to code that was
//! never wired for faults at all.

/// One node's crash (and optional recovery) window.
///
/// Triggers are expressed in *completed requests across the whole
/// cluster*, which both engines count identically; this keeps the plan
/// meaningful at any request rate and makes "crash at 25% of the run"
/// trivially expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that crashes.
    pub node: u16,
    /// Crash once this many requests have completed cluster-wide.
    pub crash_after: u64,
    /// Recover (cold cache, fresh membership epoch) once this many
    /// requests have completed; `None` means the node never returns.
    pub recover_after: Option<u64>,
}

/// A complete, seeded description of the faults injected into one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's decision stream.
    pub seed: u64,
    /// Node crash/recovery windows.
    pub crashes: Vec<CrashWindow>,
    /// Probability in `[0, 1]` that an intra-cluster message is lost in
    /// transit (after send-side costs are paid).
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a message is delayed by
    /// [`FaultPlan::delay_micros`] on top of its normal latency.
    pub delay_probability: f64,
    /// Extra latency applied to delayed messages, in microseconds.
    pub delay_micros: u64,
    /// Probability in `[0, 1]` that a delivered message is corrupted and
    /// discarded by the receiver (costs paid on both sides).
    pub corrupt_probability: f64,
    /// Probability in `[0, 1]` that a disk access fails and is retried.
    pub disk_error_probability: f64,
    /// How long after a crash/recovery the membership change is observed
    /// by the surviving nodes, in microseconds.
    pub detection_micros: u64,
    /// Base per-peer request timeout before a forwarded request is
    /// retried, in microseconds; later attempts wait a decorrelated-jitter
    /// backoff in `[base, 8 * base]` ([`decorrelated_jitter_micros`]).
    /// Must sit above the workload's tail response time, or
    /// healthy-but-slow requests get retried spuriously.
    pub retry_timeout_micros: u64,
    /// Retries before a request falls back to local (disk) service.
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: nothing fails, nothing is ever drawn from the RNG,
    /// and fault-aware code paths reduce to the fault-free originals.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            drop_probability: 0.0,
            delay_probability: 0.0,
            delay_micros: 200,
            corrupt_probability: 0.0,
            disk_error_probability: 0.0,
            detection_micros: 2_000,
            retry_timeout_micros: 250_000,
            max_retries: 3,
        }
    }

    /// A plan that only crashes nodes (no probabilistic faults), with the
    /// default detection/retry parameters.
    pub fn crashes_only(seed: u64, crashes: Vec<CrashWindow>) -> Self {
        FaultPlan {
            seed,
            crashes,
            ..FaultPlan::none()
        }
    }

    /// Adds one crash window (builder style).
    pub fn with_crash(mut self, node: u16, crash_after: u64, recover_after: Option<u64>) -> Self {
        self.crashes.push(CrashWindow {
            node,
            crash_after,
            recover_after,
        });
        self
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        !self.crashes.is_empty()
            || self.drop_probability > 0.0
            || self.delay_probability > 0.0
            || self.corrupt_probability > 0.0
            || self.disk_error_probability > 0.0
    }

    /// Panics if the plan is malformed (probability outside `[0, 1]`,
    /// recovery not after its crash, or a crashed node outside `0..nodes`).
    pub fn assert_valid(&self, nodes: usize) {
        for (name, p) in [
            ("drop_probability", self.drop_probability),
            ("delay_probability", self.delay_probability),
            ("corrupt_probability", self.corrupt_probability),
            ("disk_error_probability", self.disk_error_probability),
        ] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "{name} must be in [0, 1], got {p}"
            );
        }
        for w in &self.crashes {
            assert!(
                (w.node as usize) < nodes,
                "crash window names node {} of {nodes}",
                w.node
            );
            if let Some(r) = w.recover_after {
                assert!(
                    r > w.crash_after,
                    "node {} recovers at {r} <= crash at {}",
                    w.node,
                    w.crash_after
                );
            }
        }
        assert!(
            self.crashes.len() < nodes.max(1),
            "plan crashes every node; at least one must survive"
        );
    }

    /// The backoff before retry `attempt` (0-based) of request `token`,
    /// in microseconds: seeded decorrelated jitter over
    /// [`decorrelated_jitter_micros`] keyed on the plan seed, so each
    /// request walks its own reproducible schedule in `[base, 8 * base]`.
    pub fn backoff_micros(&self, token: u64, attempt: u32) -> u64 {
        decorrelated_jitter_micros(self.seed, token, self.retry_timeout_micros, attempt)
    }

    /// Builds the injector for this plan's probabilistic decisions.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            drop_probability: self.drop_probability,
            delay_probability: self.delay_probability,
            delay_micros: self.delay_micros,
            corrupt_probability: self.corrupt_probability,
            disk_error_probability: self.disk_error_probability,
            state: self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Crash and recovery triggers as `(completed_requests, node, alive)`
    /// transitions, sorted by trigger count (ties broken by node id, with
    /// recoveries after crashes) so both engines apply them in one
    /// deterministic order.
    pub fn schedule(&self) -> Vec<(u64, u16, bool)> {
        let mut events: Vec<(u64, u16, bool)> = Vec::new();
        for w in &self.crashes {
            events.push((w.crash_after, w.node, false));
            if let Some(r) = w.recover_after {
                events.push((r, w.node, true));
            }
        }
        events.sort_by_key(|&(at, node, alive)| (at, alive, node));
        events
    }
}

/// One splitmix64 step (Steele et al.): full-period, passes BigCrush,
/// and two instructions short of free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded decorrelated-jitter backoff, in microseconds.
///
/// `sleep(0) = base`, then `sleep(n) = min(cap, uniform(base, 3 *
/// sleep(n-1)))` with `cap = 8 * base` — the "decorrelated jitter"
/// strategy, which kills the synchronized retry storms a capped
/// exponential produces when many peers arm timeouts off the same
/// failure instant. The draw stream is a private splitmix64 keyed on
/// `(seed, token)`: stateless, reproducible per request across runs and
/// across both engines, and different tokens desynchronize immediately.
pub fn decorrelated_jitter_micros(seed: u64, token: u64, base: u64, attempt: u32) -> u64 {
    let base = base.max(1);
    let cap = base.saturating_mul(8);
    let mut state = seed ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut sleep = base;
    for _ in 0..attempt.min(16) {
        let unit = (splitmix64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let hi = sleep.saturating_mul(3).min(cap);
        sleep = base + ((hi - base) as f64 * unit) as u64;
    }
    sleep.min(cap)
}

/// The reproducible decision stream of a [`FaultPlan`].
///
/// Each query draws from a private splitmix64 stream *only when the
/// corresponding probability is nonzero*, so inactive fault categories
/// cannot perturb the sequence of active ones across configurations that
/// share a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    drop_probability: f64,
    delay_probability: f64,
    delay_micros: u64,
    corrupt_probability: f64,
    disk_error_probability: f64,
    state: u64,
}

impl FaultInjector {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    fn decide(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            // Still advance the stream so `p = 1.0` and `p = 0.999...`
            // plans drift identically.
            let _ = self.next_u64();
            return true;
        }
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Whether the next message is lost in transit.
    pub fn drop_message(&mut self) -> bool {
        self.decide(self.drop_probability)
    }

    /// Extra delivery latency for the next message, in microseconds.
    pub fn delay_message(&mut self) -> Option<u64> {
        if self.decide(self.delay_probability) {
            Some(self.delay_micros)
        } else {
            None
        }
    }

    /// Whether the next delivered message arrives corrupted.
    pub fn corrupt_message(&mut self) -> bool {
        self.decide(self.corrupt_probability)
    }

    /// Whether the next disk access fails.
    pub fn disk_error(&mut self) -> bool {
        self.decide(self.disk_error_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_probability: 0.25,
            delay_probability: 0.1,
            corrupt_probability: 0.05,
            disk_error_probability: 0.02,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut inj = plan.injector();
        let start = inj.clone();
        for _ in 0..100 {
            assert!(!inj.drop_message());
            assert!(inj.delay_message().is_none());
            assert!(!inj.corrupt_message());
            assert!(!inj.disk_error());
        }
        // Zero probabilities never advance the stream.
        assert_eq!(inj, start);
    }

    #[test]
    fn same_seed_same_decision_stream() {
        let plan = lossy_plan(42);
        let mut a = plan.injector();
        let mut b = plan.injector();
        for _ in 0..10_000 {
            assert_eq!(a.drop_message(), b.drop_message());
            assert_eq!(a.delay_message(), b.delay_message());
            assert_eq!(a.corrupt_message(), b.corrupt_message());
            assert_eq!(a.disk_error(), b.disk_error());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = lossy_plan(1).injector();
        let mut b = lossy_plan(2).injector();
        let seq_a: Vec<bool> = (0..512).map(|_| a.drop_message()).collect();
        let seq_b: Vec<bool> = (0..512).map(|_| b.drop_message()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn empirical_rates_track_probabilities() {
        let mut inj = FaultPlan {
            drop_probability: 0.3,
            ..FaultPlan::none()
        }
        .injector();
        let n = 100_000;
        let dropped = (0..n).filter(|_| inj.drop_message()).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn schedule_orders_transitions() {
        let plan = FaultPlan::crashes_only(0, Vec::new())
            .with_crash(3, 500, Some(900))
            .with_crash(1, 200, None)
            .with_crash(2, 500, None);
        assert_eq!(
            plan.schedule(),
            vec![
                (200, 1, false),
                (500, 2, false),
                (500, 3, false),
                (900, 3, true)
            ]
        );
    }

    #[test]
    fn backoff_first_attempt_is_base_and_later_stay_bounded() {
        let plan = FaultPlan {
            seed: 9,
            retry_timeout_micros: 1_000,
            ..FaultPlan::none()
        };
        for token in 0..64 {
            assert_eq!(plan.backoff_micros(token, 0), 1_000, "attempt 0 = base");
            for attempt in 1..8 {
                let b = plan.backoff_micros(token, attempt);
                assert!((1_000..=8_000).contains(&b), "backoff {b} out of bounds");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_token_and_decorrelated_across_tokens() {
        let plan = FaultPlan {
            seed: 7,
            retry_timeout_micros: 1_000,
            ..FaultPlan::none()
        };
        // Same (seed, token, attempt) always replays the same schedule.
        for attempt in 0..6 {
            assert_eq!(
                plan.backoff_micros(41, attempt),
                plan.backoff_micros(41, attempt)
            );
        }
        // Different tokens (and different seeds) desynchronize: across
        // many tokens the third attempt cannot collapse to one value the
        // way the old capped exponential did.
        let spread: std::collections::BTreeSet<u64> =
            (0..256).map(|t| plan.backoff_micros(t, 2)).collect();
        assert!(
            spread.len() > 128,
            "only {} distinct backoffs",
            spread.len()
        );
        let other = FaultPlan {
            seed: 8,
            ..plan.clone()
        };
        assert_ne!(
            (0..64)
                .map(|t| plan.backoff_micros(t, 2))
                .collect::<Vec<_>>(),
            (0..64)
                .map(|t| other.backoff_micros(t, 2))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn jitter_helper_respects_base_and_cap() {
        for attempt in 0..12 {
            let b = decorrelated_jitter_micros(1, 2, 250_000, attempt);
            assert!((250_000..=2_000_000).contains(&b));
        }
        // Degenerate base never panics or returns zero.
        assert!(decorrelated_jitter_micros(0, 0, 0, 5) >= 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_probability() {
        let plan = FaultPlan {
            drop_probability: 1.5,
            ..FaultPlan::none()
        };
        plan.assert_valid(4);
    }

    #[test]
    #[should_panic(expected = "at least one must survive")]
    fn rejects_killing_everyone() {
        let plan = FaultPlan::crashes_only(0, Vec::new())
            .with_crash(0, 10, None)
            .with_crash(1, 10, None);
        plan.assert_valid(2);
    }

    #[test]
    #[should_panic(expected = "recovers at")]
    fn rejects_recovery_before_crash() {
        let plan = FaultPlan::crashes_only(0, Vec::new()).with_crash(0, 100, Some(50));
        plan.assert_valid(4);
    }
}

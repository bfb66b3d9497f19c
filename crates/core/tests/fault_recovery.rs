//! Integration tests for the fault-injection and recovery subsystem:
//! graceful degradation under crashes, recovery back to baseline, and the
//! determinism guarantees of the ISSUE acceptance criteria.

use press_core::{run_simulation, FaultPlan, Metrics, SimConfig};

/// The quick-demo setup: 4 nodes, 1 000 warmup + 4 000 measured requests
/// under PB dissemination. Crash triggers are in *total* completed
/// requests, so 25% into the measured window is 1 000 + 1 000 = 2 000.
fn base_config() -> SimConfig {
    SimConfig::quick_demo()
}

const CRASH_AT_25PCT: u64 = 2_000;
const RECOVER_AT: u64 = 2_200;

fn run_with_faults(faults: FaultPlan) -> Metrics {
    let mut cfg = base_config();
    cfg.faults = faults;
    run_simulation(&cfg)
}

#[test]
fn zero_fault_plan_is_identical_to_fault_free_run() {
    let baseline = run_simulation(&base_config());
    // A plan with a different seed but nothing to inject must not perturb
    // anything: zero probabilities never draw from the fault RNG.
    let inert = run_with_faults(FaultPlan {
        seed: 0xDEAD_BEEF,
        ..FaultPlan::none()
    });
    assert_eq!(baseline, inert);
    assert_eq!(inert.retries, 0);
    assert_eq!(inert.requests_lost, 0);
    assert_eq!(inert.dropped_messages, 0);
    assert_eq!(inert.membership_epochs, 0);
    assert_eq!(inert.time_degraded_secs, 0.0);
}

#[test]
fn one_crashed_node_of_four_retains_half_throughput() {
    let baseline = run_simulation(&base_config());
    let faulted = run_with_faults(FaultPlan::crashes_only(11, Vec::new()).with_crash(
        1,
        CRASH_AT_25PCT,
        None,
    ));
    let retention = faulted.throughput_rps / baseline.throughput_rps;
    assert!(
        retention >= 0.5,
        "1-of-4 crash retained only {:.0}% of fault-free throughput ({:.0} vs {:.0} req/s)",
        retention * 100.0,
        faulted.throughput_rps,
        baseline.throughput_rps
    );
    // Sanity: it must actually have degraded, not ignored the crash.
    assert!(retention < 1.0, "crash had no effect at all");
    assert_eq!(faulted.membership_epochs, 1);
    assert!(faulted.time_degraded_secs > 0.0);
    // The crash strands in-flight work: clients on the dead node lose
    // their requests, and forwarded requests get re-routed or failed over.
    assert!(faulted.requests_lost > 0, "no client connections were lost");
    assert!(
        faulted.retries + faulted.failovers > 0,
        "no in-flight request needed recovery"
    );
    assert_eq!(faulted.measured_requests, baseline.measured_requests);
}

#[test]
fn recovery_restores_tail_throughput_within_ten_percent() {
    let baseline = run_simulation(&base_config());
    let recovered = run_with_faults(FaultPlan::crashes_only(11, Vec::new()).with_crash(
        1,
        CRASH_AT_25PCT,
        Some(RECOVER_AT),
    ));
    // The node rejoined (two membership transitions) and the cluster left
    // degraded mode well before the end of the run.
    assert_eq!(recovered.membership_epochs, 2);
    assert!(recovered.time_degraded_secs > 0.0);
    assert!(recovered.time_degraded_secs < recovered.measure_seconds);
    // Post-recovery (the last quarter of the measured window, well after
    // the rejoin) throughput is back within 10% of the fault-free tail.
    let tail_ratio = recovered.tail_throughput_rps / baseline.tail_throughput_rps;
    assert!(
        tail_ratio >= 0.9,
        "post-recovery tail at {:.0}% of baseline ({:.0} vs {:.0} req/s)",
        tail_ratio * 100.0,
        recovered.tail_throughput_rps,
        baseline.tail_throughput_rps
    );
}

#[test]
fn same_seed_fault_runs_are_identical() {
    let plan = FaultPlan {
        seed: 1234,
        drop_probability: 0.02,
        delay_probability: 0.05,
        corrupt_probability: 0.01,
        disk_error_probability: 0.02,
        ..FaultPlan::none()
    }
    .with_crash(2, CRASH_AT_25PCT, Some(RECOVER_AT));
    let a = run_with_faults(plan.clone());
    let b = run_with_faults(plan);
    assert_eq!(a, b, "same-seed fault runs must be byte-identical");
    // And the faults were real, not vacuous.
    assert!(a.dropped_messages > 0);
    assert!(a.requests_lost > 0);
}

#[test]
fn aggressive_probabilistic_faults_degrade_without_panic() {
    let baseline = run_simulation(&base_config());
    let m = run_with_faults(FaultPlan {
        seed: 5,
        drop_probability: 0.05,
        delay_probability: 0.10,
        delay_micros: 500,
        corrupt_probability: 0.02,
        disk_error_probability: 0.05,
        ..FaultPlan::none()
    });
    // Every fault category fired and the run still completed its target.
    assert_eq!(m.measured_requests, baseline.measured_requests);
    assert!(m.dropped_messages > 0);
    assert!(m.corrupted_messages > 0);
    assert!(m.disk_retries > 0);
    assert!(
        m.throughput_rps < baseline.throughput_rps,
        "5% message loss should cost throughput"
    );
    assert!(m.throughput_rps > baseline.throughput_rps * 0.3);
}

#[test]
fn crashes_affect_all_dissemination_strategies() {
    use press_core::Dissemination;
    for diss in [
        Dissemination::Piggyback,
        Dissemination::Broadcast(4),
        Dissemination::None,
    ] {
        let mut cfg = base_config();
        cfg.dissemination = diss;
        let baseline = run_simulation(&cfg);
        cfg.faults = FaultPlan::crashes_only(3, Vec::new()).with_crash(2, CRASH_AT_25PCT, None);
        let faulted = run_simulation(&cfg);
        let retention = faulted.throughput_rps / baseline.throughput_rps;
        assert!(
            retention >= 0.4,
            "{diss:?}: retention {:.0}% too low",
            retention * 100.0
        );
        assert_eq!(faulted.membership_epochs, 1, "{diss:?}");
    }
}

/// A peer that stops answering long before the failure detector evicts
/// it: forwards to it miss their deadlines until the initial nodes'
/// breakers open, and later decisions that pick it are steered to
/// another admissible cacher or served locally. The counters are exact:
/// recorded before the forwarding-target rule moved into `policy`, so a
/// change to choice, diversion or re-route shows up here.
#[test]
fn breaker_diverts_forwards_around_an_undetected_crash() {
    let mut cfg = base_config();
    cfg.faults = FaultPlan {
        detection_micros: 400_000,
        retry_timeout_micros: 30_000,
        ..FaultPlan::crashes_only(11, Vec::new()).with_crash(1, CRASH_AT_25PCT, None)
    };
    cfg.overload = press_core::chaos::protective_overload(&cfg);
    let m = run_simulation(&cfg);
    assert_eq!(
        (
            m.breaker_diverts,
            m.retries,
            m.failovers,
            m.requests_lost,
            m.measured_requests
        ),
        (21, 0, 47, 9, 4_000)
    );
}

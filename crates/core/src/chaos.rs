//! The chaos scenario suite and its SLO report cards.
//!
//! A chaos scenario is a [`ScenarioPlan`] (arrival surges, diurnal
//! curves, working-set drift, content churn) cross-producted with a
//! [`FaultPlan`] (crash/recovery schedules). The suite runs each
//! scenario in the simulator (or, via `press-server`, the live cluster)
//! and grades the run against its service-level objectives: availability
//! of admitted requests, goodput, and p50/p99/p999 latency versus a
//! target derived from the steady-state baseline.
//!
//! Everything here is seeded and deterministic in the simulator: the
//! same seed produces byte-identical report cards, which is what the CI
//! chaos job diffs.

use press_telem::{attribute_trace, hot_stages, summarize, FlightDump, Registry};
use press_trace::ScenarioPlan;

use crate::driver::{run_simulation_flight, SimConfig};
use crate::metrics::Metrics;
use crate::overload::OverloadConfig;
use crate::FaultPlan;

/// Latency multiple of the steady-state baseline that a scenario's p99
/// must stay within for its card to pass (the acceptance bar: overload
/// protection keeps p99 within 2x of steady state for admitted work).
pub const P99_TARGET_MULTIPLE: f64 = 2.0;
/// Availability floor for admitted requests. Admitted work can still be
/// lost when the node serving it crashes mid-flight — no admission
/// control can save a request already inside the dead node — so the
/// floor budgets half a percent for one crash window per scenario
/// rather than demanding crash-free nines.
pub const AVAILABILITY_TARGET: f64 = 0.995;

/// One scenario of the suite: a name, the scenario plan, and the fault
/// plan it is cross-producted with.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    pub name: &'static str,
    pub scenario: ScenarioPlan,
    pub faults: FaultPlan,
}

/// The service-level objectives a scenario is graded against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Upper bound on p99 latency, in milliseconds.
    pub p99_ms: f64,
    /// Lower bound on availability of admitted requests, in `[0, 1]`.
    pub availability: f64,
}

/// One scenario's report card.
#[derive(Debug, Clone, PartialEq)]
pub struct SloCard {
    pub scenario: String,
    /// `"sim"` or `"live"`.
    pub engine: &'static str,
    /// Whether overload protection was enabled for the run.
    pub protected: bool,
    /// Requests admitted and completed in the measurement window.
    pub admitted: u64,
    /// Arrivals rejected at the admission bound.
    pub shed_admission: u64,
    /// Requests dropped by the deadline shedder.
    pub shed_deadline: u64,
    /// Admitted requests lost outright (crashed client node).
    pub lost: u64,
    /// Retries, failovers, breaker diverts, invalidations — the
    /// degraded-mode work the run absorbed.
    pub retries: u64,
    pub failovers: u64,
    pub breaker_diverts: u64,
    pub invalidations: u64,
    /// Completed-request throughput (goodput: sheds do not count).
    pub goodput_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub target: SloTarget,
    /// The top-2 critical-path buckets of the run's latency attribution
    /// (e.g. `"disk 41% / net-send 22%"`), or `"n/a"` when the engine
    /// recorded no attributable trace.
    pub hot_stages: String,
}

impl SloCard {
    /// Grades a finished simulated run.
    pub fn from_metrics(
        scenario: &str,
        engine: &'static str,
        protected: bool,
        m: &Metrics,
        target: SloTarget,
    ) -> SloCard {
        SloCard {
            scenario: scenario.to_string(),
            engine,
            protected,
            admitted: m.measured_requests,
            shed_admission: m.shed_admission,
            shed_deadline: m.shed_deadline,
            lost: m.requests_lost,
            retries: m.retries,
            failovers: m.failovers,
            breaker_diverts: m.breaker_diverts,
            invalidations: m.invalidations,
            goodput_rps: m.throughput_rps,
            p50_ms: m.p50_response_ms,
            p99_ms: m.p99_response_ms,
            p999_ms: m.p999_response_ms,
            target,
            hot_stages: "n/a".to_string(),
        }
    }

    /// Availability of admitted requests: sheds are rejections, not
    /// failures, and are reported separately so availability is not
    /// overstated (or understated) under load shedding.
    pub fn availability(&self) -> f64 {
        let offered = self.admitted + self.lost;
        if offered == 0 {
            0.0
        } else {
            self.admitted as f64 / offered as f64
        }
    }

    /// Whether the run met both of its objectives.
    pub fn pass(&self) -> bool {
        self.p99_ms <= self.target.p99_ms && self.availability() >= self.target.availability
    }

    /// Renders the card as deterministic, fixed-precision text (the CI
    /// chaos job diffs two same-seed runs of this output byte-for-byte).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "+- scenario {} | engine {} | protection {}\n",
            self.scenario,
            self.engine,
            if self.protected { "on" } else { "off" }
        ));
        out.push_str(&format!(
            "| admitted {}  shed {} (admission {} / deadline {})  lost {}\n",
            self.admitted,
            self.shed_admission + self.shed_deadline,
            self.shed_admission,
            self.shed_deadline,
            self.lost,
        ));
        out.push_str(&format!(
            "| retries {}  failovers {}  breaker-diverts {}  invalidations {}\n",
            self.retries, self.failovers, self.breaker_diverts, self.invalidations,
        ));
        out.push_str(&format!(
            "| availability {:.4}%  goodput {:.0} req/s\n",
            100.0 * self.availability(),
            self.goodput_rps,
        ));
        out.push_str(&format!(
            "| latency ms  p50 {:.2}  p99 {:.2}  p999 {:.2}  (target p99 <= {:.2})\n",
            self.p50_ms, self.p99_ms, self.p999_ms, self.target.p99_ms,
        ));
        out.push_str(&format!("| hot stages  {}\n", self.hot_stages));
        out.push_str(&format!(
            "+- verdict {}\n",
            if self.pass() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Publishes the card into a telemetry [`Registry`] as labeled
    /// series, the same export path every other stats module uses.
    pub fn fill_registry(&self, reg: &mut Registry) {
        let protected = if self.protected { "on" } else { "off" };
        let labels: &[(&str, &str)] = &[
            ("scenario", &self.scenario),
            ("engine", self.engine),
            ("protection", protected),
        ];
        reg.set_gauge("chaos_goodput_rps", labels, self.goodput_rps);
        reg.set_gauge("chaos_availability", labels, self.availability());
        reg.set_gauge("chaos_p50_ms", labels, self.p50_ms);
        reg.set_gauge("chaos_p99_ms", labels, self.p99_ms);
        reg.set_gauge("chaos_p999_ms", labels, self.p999_ms);
        reg.inc("chaos_admitted", labels, self.admitted);
        reg.inc(
            "chaos_shed",
            labels,
            self.shed_admission + self.shed_deadline,
        );
        reg.inc("chaos_lost", labels, self.lost);
    }
}

/// The protective overload configuration `press chaos` uses, derived
/// from the run's client population: admission bounded at twice the
/// per-node closed-loop population, a deadline matching the retry
/// timeout, breakers at their defaults.
pub fn protective_overload(cfg: &SimConfig) -> OverloadConfig {
    OverloadConfig {
        enabled: true,
        admission_limit: (2 * cfg.clients_per_node).max(8) as u32,
        deadline_micros: cfg.faults.retry_timeout_micros,
        ..OverloadConfig::protective()
    }
}

/// The full chaos suite for a base configuration. Triggers are placed
/// relative to the warmup/measurement window so "surge at 25%" scales
/// with any run length; `smoke` keeps only the first and last scenarios
/// (steady baseline + the flash-crowd-with-crash stressor) for CI.
pub fn chaos_suite(cfg: &SimConfig, smoke: bool) -> Vec<ChaosScenario> {
    let seed = cfg.seed ^ 0xC_4A05;
    let w = cfg.warmup_requests;
    let m = cfg.measure_requests;
    let total_clients = (cfg.clients_per_node * cfg.nodes) as u32;
    let surge = 4 * total_clients;
    let catalog_len = cfg.build_source().catalog().len() as u32;
    let crash_plan =
        FaultPlan::crashes_only(seed, Vec::new()).with_crash(1, w + m / 3, Some(w + 2 * m / 3));
    let all = vec![
        ChaosScenario {
            name: "steady",
            scenario: ScenarioPlan::none(),
            faults: FaultPlan::none(),
        },
        ChaosScenario {
            name: "flash-crowd",
            scenario: ScenarioPlan::seeded(seed).flash_crowd(w + m / 4, w + 3 * m / 4, surge),
            faults: FaultPlan::none(),
        },
        ChaosScenario {
            name: "diurnal",
            scenario: ScenarioPlan::seeded(seed).diurnal(w, w + m, 2 * total_clients, 8),
            faults: FaultPlan::none(),
        },
        ChaosScenario {
            name: "drift",
            scenario: ScenarioPlan::seeded(seed).drifting(
                w + m / 5,
                (m / 5).max(1),
                catalog_len / 7,
                3,
            ),
            faults: FaultPlan::none(),
        },
        ChaosScenario {
            name: "churn",
            scenario: ScenarioPlan::seeded(seed).file_updates(
                w + m / 10,
                (m / 50).max(1),
                32,
                catalog_len,
            ),
            faults: FaultPlan::none(),
        },
        ChaosScenario {
            name: "flash+crash",
            scenario: ScenarioPlan::seeded(seed).flash_crowd(w + m / 4, w + 3 * m / 4, surge),
            faults: crash_plan,
        },
    ];
    if smoke {
        let mut v = all;
        v.retain(|s| s.name == "steady" || s.name == "flash+crash");
        v
    } else {
        all
    }
}

/// One scenario's result in the simulator. The run is traced with the
/// flight recorder armed: the card carries the run's top critical-path
/// stages, and any `breaker-open` flight dumps come back labeled with
/// the scenario name. Tracing is passive, so metrics and grades are
/// identical to an untraced run of the same seed.
pub fn run_chaos_scenario_sim(
    base: &SimConfig,
    sc: &ChaosScenario,
    protected: bool,
    target: SloTarget,
) -> (SloCard, Metrics, Vec<(String, FlightDump)>) {
    let mut cfg = base.clone();
    cfg.scenario = sc.scenario.clone();
    cfg.faults = sc.faults.clone();
    cfg.overload = if protected {
        protective_overload(base)
    } else {
        OverloadConfig::disabled()
    };
    let (m, trace, flight) = run_simulation_flight(&cfg);
    let mut card = SloCard::from_metrics(sc.name, "sim", protected, &m, target);
    card.hot_stages = hot_stages(&summarize(&attribute_trace(&trace)));
    let dumps = flight
        .dumps()
        .iter()
        .map(|d| (sc.name.to_string(), d.clone()))
        .collect();
    (card, m, dumps)
}

/// The whole suite's report in one engine run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    pub cards: Vec<SloCard>,
    /// The steady-state baseline p99 the targets were derived from.
    pub steady_p99_ms: f64,
    /// Per-scenario simulator metrics, aligned with `cards` (empty for
    /// the live engine, whose stats live in the cards alone).
    pub metrics: Vec<Metrics>,
    /// Flight-recorder snapshots taken during the suite (a circuit
    /// breaker opened mid-scenario), labeled with the scenario name.
    pub flight_dumps: Vec<(String, FlightDump)>,
}

/// Runs `suite` on one engine: the steady scenario first, against an
/// unbounded p99 target, then every other scenario against
/// [`P99_TARGET_MULTIPLE`] times steady's p99. `run` grades one scenario
/// against a target and returns its card, the engine's metrics (if it
/// keeps any) and its flight dumps.
pub fn run_suite(
    suite: &[ChaosScenario],
    mut run: impl FnMut(
        &ChaosScenario,
        SloTarget,
    ) -> (SloCard, Option<Metrics>, Vec<(String, FlightDump)>),
) -> ChaosReport {
    let mut target = SloTarget {
        p99_ms: f64::INFINITY,
        availability: AVAILABILITY_TARGET,
    };
    let mut report = ChaosReport {
        cards: Vec::new(),
        steady_p99_ms: 0.0,
        metrics: Vec::new(),
        flight_dumps: Vec::new(),
    };
    for (i, sc) in suite.iter().enumerate() {
        let (mut card, metrics, dumps) = run(sc, target);
        if i == 0 {
            debug_assert_eq!(sc.name, "steady");
            report.steady_p99_ms = card.p99_ms;
            target.p99_ms = P99_TARGET_MULTIPLE * card.p99_ms;
            card.target = target;
        }
        report.cards.push(card);
        report.metrics.extend(metrics);
        report.flight_dumps.extend(dumps);
    }
    report
}

/// Runs the suite in the simulator (see [`run_suite`]).
pub fn run_suite_sim(base: &SimConfig, protected: bool, smoke: bool) -> ChaosReport {
    run_suite(&chaos_suite(base, smoke), |sc, target| {
        let (card, m, dumps) = run_chaos_scenario_sim(base, sc, protected, target);
        (card, Some(m), dumps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        let mut cfg = SimConfig::quick_demo();
        cfg.warmup_requests = 400;
        cfg.measure_requests = 1_600;
        cfg
    }

    #[test]
    fn suite_has_steady_first_and_smoke_subset() {
        let cfg = tiny();
        let full = chaos_suite(&cfg, false);
        assert_eq!(full[0].name, "steady");
        assert!(full.len() >= 5);
        let smoke = chaos_suite(&cfg, true);
        assert_eq!(smoke.len(), 2);
        assert_eq!(smoke[0].name, "steady");
        assert_eq!(smoke[1].name, "flash+crash");
    }

    #[test]
    fn cards_render_deterministically() {
        let cfg = tiny();
        let a = run_suite_sim(&cfg, true, true);
        let b = run_suite_sim(&cfg, true, true);
        let ra: Vec<String> = a.cards.iter().map(SloCard::render).collect();
        let rb: Vec<String> = b.cards.iter().map(SloCard::render).collect();
        assert_eq!(ra, rb, "same seed must render byte-identical cards");
    }

    #[test]
    fn protection_sheds_under_flash_crowd() {
        let cfg = tiny();
        let report = run_suite_sim(&cfg, true, true);
        let stress = &report.cards[1];
        assert_eq!(stress.scenario, "flash+crash");
        assert!(
            stress.shed_admission + stress.shed_deadline > 0,
            "a 4x surge must trip the admission bound or the deadline shedder"
        );
    }

    #[test]
    fn card_availability_excludes_sheds() {
        let card = SloCard {
            scenario: "x".into(),
            engine: "sim",
            protected: true,
            admitted: 900,
            shed_admission: 50,
            shed_deadline: 50,
            lost: 100,
            retries: 0,
            failovers: 0,
            breaker_diverts: 0,
            invalidations: 0,
            goodput_rps: 1.0,
            p50_ms: 1.0,
            p99_ms: 1.0,
            p999_ms: 1.0,
            target: SloTarget {
                p99_ms: 2.0,
                availability: 0.95,
            },
            hot_stages: "n/a".into(),
        };
        assert!((card.availability() - 0.9).abs() < 1e-9);
        assert!(!card.pass(), "availability 0.9 < 0.95 floor");
    }
}

//! Runs the chaos scenario suite against the live threaded cluster.
//!
//! The scenarios come from `press_core::chaos` — the same seeded
//! `ScenarioPlan`/`FaultPlan` combinations the simulator grades — and are
//! interpreted here with real mechanisms: arrival surges become extra
//! closed-loop client threads, working-set drift rotates the file ids the
//! clients ask for, content churn calls [`LiveCluster::update_file`], and
//! crash windows ride the existing fault-monitor thread. Latencies are
//! wall-clock, so the numbers (unlike the simulator's) vary run to run;
//! the *structure* of the report — scenario names, order, card shape — is
//! deterministic, which is what CI checks for this engine.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use press_collect::DetRng;
use press_core::chaos::{chaos_suite, run_suite, ChaosReport, ChaosScenario, SloCard, SloTarget};
use press_core::{OverloadConfig, ScenarioOp, SimConfig};
use press_telem::{attribute_trace, hot_stages, summarize, FlightDump, FlightRecorder, LiveTracer};
use press_trace::{FileCatalog, FileId};

use crate::cluster::{LiveCluster, LiveConfig, LiveError};
use crate::stats::ServerStats;

/// Shape of one live chaos run.
#[derive(Debug, Clone)]
pub struct LiveChaosConfig {
    pub nodes: usize,
    /// Baseline closed-loop client threads (surges add more).
    pub clients: usize,
    /// Completed requests before measurement starts.
    pub warmup: u64,
    /// Measured completions per scenario.
    pub measure: u64,
    pub seed: u64,
    /// Run with overload protection (admission bound, deadline shedding,
    /// breakers) or with everything disabled.
    pub protected: bool,
    /// Keep only the steady baseline and the flash-crowd-plus-crash
    /// stressor (the CI subset).
    pub smoke: bool,
}

impl Default for LiveChaosConfig {
    fn default() -> Self {
        LiveChaosConfig {
            nodes: 4,
            clients: 8,
            warmup: 400,
            measure: 2_000,
            seed: 0xC0_FFEE,
            protected: true,
            smoke: false,
        }
    }
}

/// Per-request client patience; also the deadline the shedder grades.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(500);
/// Hard wall-clock cap per scenario, so an unprotected collapse still
/// produces a (failing) card instead of hanging the suite.
const SCENARIO_WALL_CAP: Duration = Duration::from_secs(30);

/// A deterministic small catalog for live chaos runs: 512 files with a
/// spread of sizes (1 KB .. ~49 KB) so caching, forwarding and disk all
/// participate.
fn chaos_catalog() -> FileCatalog {
    FileCatalog::from_sizes((0..512u64).map(|i| 1024 + (i * 37 % 96) * 512).collect())
}

/// What one client worker tallied in the measurement window.
#[derive(Default)]
struct Tally {
    ok: u64,
    lost: u64,
    latencies_micros: Vec<u64>,
}

fn percentile_ms(sorted_micros: &[u64], p: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_micros.len() - 1) as f64).round() as usize;
    sorted_micros[rank.min(sorted_micros.len() - 1)] as f64 / 1000.0
}

/// The overload configuration a protected live run uses: admission
/// bounded at twice the per-node share of the peak client population,
/// deadlines graded against the request timeout's service estimate.
fn live_protective(cfg: &LiveChaosConfig) -> OverloadConfig {
    OverloadConfig {
        enabled: true,
        admission_limit: ((2 * cfg.clients).max(8)) as u32,
        deadline_micros: REQUEST_TIMEOUT.as_micros() as u64,
        ..OverloadConfig::protective()
    }
}

/// Runs one scenario against a fresh live cluster and grades it. The
/// cluster is always traced: the card's hot-stages column comes from
/// attributing the drained trace, and a failing card trips a flight
/// recorder fed from the same trace (returned as labeled dumps).
fn run_scenario_live(
    cfg: &LiveChaosConfig,
    sc: &ChaosScenario,
    target: SloTarget,
) -> (SloCard, Vec<(String, FlightDump)>) {
    let catalog = chaos_catalog();
    let catalog_len = catalog.len() as u32;
    let live = LiveConfig {
        nodes: cfg.nodes,
        faults: Some(sc.faults.clone()),
        overload: if cfg.protected {
            live_protective(cfg)
        } else {
            OverloadConfig::disabled()
        },
        retry_timeout: Duration::from_millis(50),
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start_with_tracer(
        live,
        catalog,
        Some(LiveTracer::new()),
    ));

    // Shared run state the scenario monitor mutates.
    let done = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(cfg.clients));
    let drift = Arc::new(AtomicU32::new(0));
    let measuring = Arc::new(AtomicBool::new(false));

    // Pre-spawn enough workers for the largest surge in the plan.
    let mut cur = cfg.clients as i64;
    let mut peak = cur;
    for &(_, op) in sc.scenario.schedule() {
        if let ScenarioOp::ClientsDelta(d) = op {
            cur += d as i64;
            peak = peak.max(cur);
        }
    }
    let workers = peak.max(1) as usize;

    let collected: Arc<Mutex<Vec<Tally>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for idx in 0..workers {
        let cluster = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        let active = Arc::clone(&active);
        let drift = Arc::clone(&drift);
        let measuring = Arc::clone(&measuring);
        let collected = Arc::clone(&collected);
        let mut rng = DetRng::new(cfg.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let nodes = cfg.nodes;
        handles.push(std::thread::spawn(move || {
            let mut tally = Tally::default();
            loop {
                // ordering: Relaxed — advisory stop flag; no data is
                // published through it, workers just exit eventually.
                if done.load(Ordering::Relaxed) {
                    break;
                }
                // ordering: Relaxed — population watermark; a stale read
                // only delays a worker's surge-in/retire by one poll.
                if idx >= active.load(Ordering::Relaxed) {
                    // Retired (or not yet surged in): park cheaply.
                    std::thread::sleep(Duration::from_micros(500));
                    continue;
                }
                let draw = rng.next_u64();
                // ordering: Relaxed — working-set offset; drift lands on
                // whichever request observes it first, exactness unneeded.
                let shift = drift.load(Ordering::Relaxed);
                let file = FileId((draw as u32).wrapping_add(shift) % catalog_len);
                let node = (draw >> 32) as usize % nodes;
                // ordering: Relaxed — window flag; requests straddling the
                // edge may count either side, the window is time-based.
                let in_window = measuring.load(Ordering::Relaxed);
                let start = Instant::now();
                match cluster.request(node, file, REQUEST_TIMEOUT) {
                    Ok(_) => {
                        if in_window {
                            tally.ok += 1;
                            tally
                                .latencies_micros
                                .push(start.elapsed().as_micros() as u64);
                        }
                    }
                    Err(LiveError::Rejected) => {
                        // Explicit backpressure: back off briefly instead
                        // of hammering the admission gate.
                        std::thread::sleep(Duration::from_micros(500 + rng.next_u64() % 1_500));
                    }
                    Err(LiveError::Timeout) => {
                        if in_window {
                            tally.lost += 1;
                        }
                    }
                    Err(_) => break,
                }
            }
            if let Ok(mut all) = collected.lock() {
                all.push(tally);
            }
        }));
    }

    // Scenario monitor: applies the plan's ops keyed on cluster-wide
    // completed requests, the same trigger unit the simulator uses.
    let monitor = {
        let cluster = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        let active = Arc::clone(&active);
        let drift = Arc::clone(&drift);
        let schedule: Vec<(u64, ScenarioOp)> = sc.scenario.schedule().to_vec();
        std::thread::spawn(move || {
            let mut next = 0;
            // ordering: Relaxed — advisory stop flag, as in the workers.
            while next < schedule.len() && !done.load(Ordering::Relaxed) {
                let completed = cluster.stats().completed();
                while next < schedule.len() && completed >= schedule[next].0 {
                    match schedule[next].1 {
                        ScenarioOp::ClientsDelta(d) => {
                            // ordering: Relaxed — the monitor is the only
                            // writer, so load-modify-store cannot race.
                            let cur = active.load(Ordering::Relaxed) as i64;
                            // ordering: Relaxed — single writer, see above.
                            active.store((cur + d as i64).max(1) as usize, Ordering::Relaxed);
                        }
                        ScenarioOp::Drift(offset) => {
                            // ordering: Relaxed — see the worker-side load.
                            drift.store(offset % catalog_len, Ordering::Relaxed);
                        }
                        ScenarioOp::FileUpdate(raw) => {
                            cluster.update_file(FileId(raw % catalog_len));
                        }
                    }
                    next += 1;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    // Drive the run: wait out the warmup, open the measurement window,
    // close it at the completion target (or the wall cap).
    let t0 = Instant::now();
    while cluster.stats().completed() < cfg.warmup && t0.elapsed() < SCENARIO_WALL_CAP {
        std::thread::sleep(Duration::from_micros(500));
    }
    // ordering: Relaxed — window edges are soft; see the worker-side load.
    measuring.store(true, Ordering::Relaxed);
    let window_start = Instant::now();
    let goal = cfg.warmup + cfg.measure;
    while cluster.stats().completed() < goal && t0.elapsed() < SCENARIO_WALL_CAP {
        std::thread::sleep(Duration::from_micros(500));
    }
    // ordering: Relaxed — soft window close, then the advisory stop flag;
    // thread join below is the real synchronization point for the tallies.
    measuring.store(false, Ordering::Relaxed);
    let window = window_start.elapsed();
    done.store(true, Ordering::Relaxed); // ordering: advisory, join syncs
    let _ = monitor.join();
    for h in handles {
        let _ = h.join();
    }

    let mut ok = 0u64;
    let mut lost = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    if let Ok(all) = collected.lock() {
        for t in all.iter() {
            ok += t.ok;
            lost += t.lost;
            latencies.extend_from_slice(&t.latencies_micros);
        }
    }
    latencies.sort_unstable();

    // The admission/deadline shed split comes from the server-side
    // counters (whole-run; the client only sees an opaque rejection).
    let stats: &ServerStats = cluster.stats();
    let mut card = SloCard {
        scenario: sc.name.to_string(),
        engine: "live",
        protected: cfg.protected,
        admitted: ok,
        shed_admission: ServerStats::get(&stats.shed_admission),
        shed_deadline: ServerStats::get(&stats.shed_deadline),
        lost,
        retries: ServerStats::get(&stats.retries),
        failovers: ServerStats::get(&stats.failovers),
        breaker_diverts: ServerStats::get(&stats.breaker_diverts),
        invalidations: ServerStats::get(&stats.invalidations),
        goodput_rps: ok as f64 / window.as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&latencies, 50.0),
        p99_ms: percentile_ms(&latencies, 99.0),
        p999_ms: percentile_ms(&latencies, 99.9),
        target,
        hot_stages: "n/a".to_string(),
    };
    let trace = match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown_traced(),
        Err(_) => None,
    };
    let mut dumps = Vec::new();
    if let Some(trace) = trace {
        card.hot_stages = hot_stages(&summarize(&attribute_trace(&trace)));
        if !card.pass() {
            // The live rings are drained post-run, so the recorder is
            // fed by replay; a failing card plays the breaker-trip role.
            let mut rec = FlightRecorder::default();
            rec.ingest(&trace);
            rec.trip(&format!("slo-fail {}", sc.name), 0);
            dumps.extend(rec.dumps().iter().map(|d| (sc.name.to_string(), d.clone())));
        }
    }
    (card, dumps)
}

/// Runs the suite against the live engine, each scenario on a fresh
/// cluster (see [`press_core::chaos::run_suite`]).
pub fn run_suite_live(cfg: &LiveChaosConfig) -> ChaosReport {
    // The suite's triggers and client counts are derived through the same
    // SimConfig shape the simulator uses, so both engines agree on where
    // "surge at 25% of the run" lands.
    let mut shape = SimConfig::quick_demo();
    shape.nodes = cfg.nodes;
    shape.clients_per_node = cfg.clients.div_ceil(cfg.nodes).max(1);
    shape.warmup_requests = cfg.warmup;
    shape.measure_requests = cfg.measure;
    shape.seed = cfg.seed;
    run_suite(&chaos_suite(&shape, cfg.smoke), |sc, target| {
        let (card, dumps) = run_scenario_live(cfg, sc, target);
        (card, None, dumps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_smoke_suite_produces_cards() {
        let cfg = LiveChaosConfig {
            nodes: 2,
            clients: 4,
            warmup: 50,
            measure: 300,
            smoke: true,
            ..LiveChaosConfig::default()
        };
        let report = run_suite_live(&cfg);
        assert_eq!(report.cards.len(), 2);
        assert_eq!(report.cards[0].scenario, "steady");
        assert_eq!(report.cards[1].scenario, "flash+crash");
        assert!(
            report.cards[0].admitted > 0,
            "steady run must complete work"
        );
        for c in &report.cards {
            assert_eq!(c.engine, "live");
            // Rendering never panics and always carries the verdict line.
            assert!(c.render().contains("verdict"));
        }
    }
}

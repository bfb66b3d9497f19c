//! The simulator workloads, driven through `run_simulation` and
//! `run_simulation_traced` only.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use press_core::{
    run_simulation, run_simulation_traced, Dissemination, Metrics, ServerVersion, SimConfig,
};
use press_net::{DeliveryMode, MessageType};
use press_telem::{EventKind, Histogram, Trace};
use press_trace::{TracePreset, Workload};

use crate::report::{median, median_secs, percentile, record_peak_rss, share, Report};

/// One simulated cluster. Request counts are given per second of
/// `--seconds`, so a run's length follows `--seconds` while its inputs
/// stay a pure function of `(seed, seconds)`.
pub struct SimSpec {
    pub nodes: usize,
    pub dissemination: Dissemination,
    /// Warm-up and measured requests of one timed repetition, per second.
    pub warmup_per_s: u64,
    pub measure_per_s: u64,
    /// Warm-up and measured requests of one traced run, per second. Kept
    /// small enough that the trace buffer never drops events.
    pub traced_warmup_per_s: u64,
    pub traced_measure_per_s: u64,
}

/// The paper's configuration: about 2 messages per request, so host time
/// goes to press-core's per-request work.
pub const PAPER8: SimSpec = SimSpec {
    nodes: 8,
    dissemination: Dissemination::Piggyback,
    warmup_per_s: 1_000,
    measure_per_s: 6_000,
    traced_warmup_per_s: 500,
    traced_measure_per_s: 3_000,
};

/// 64 nodes with T4 tree broadcasts: about 18 messages per request, so
/// host time goes to the event queue, press-net charging and
/// press-collect tree rebuilds.
pub const TREE64: SimSpec = SimSpec {
    nodes: 64,
    dissemination: Dissemination::TreeBroadcast(4),
    warmup_per_s: 150,
    measure_per_s: 750,
    traced_warmup_per_s: 100,
    traced_measure_per_s: 500,
};

/// Bounds on the timed repetitions of one run; between them, repetitions
/// continue until 70% of `--seconds` have passed, leaving the rest to the
/// traced latency runs.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;
/// Set-ups timed per run, each building the workload for `SETUP_SEEDS`
/// consecutive sub-seeds of `--seed`: one seed's build time depends on
/// how soon the catalog's size calibration converges (22, 29 or 32 ms on
/// the reference host), which would make set-up time a property of the
/// seed rather than of the code.
const SETUPS: usize = 5;
const SETUP_SEEDS: u64 = 8;
/// Traced runs, with sub-seeds of `--seed`, pooled for the simulated
/// latency percentiles: one run's p99 moves by several percent between
/// seeds.
const LATENCY_RUNS: u64 = 8;

fn config(spec: &SimSpec, seed: u64, warmup: u64, measure: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(TracePreset::Clarknet);
    cfg.version = ServerVersion::V6;
    cfg.nodes = spec.nodes;
    cfg.dissemination = spec.dissemination;
    cfg.warmup_requests = warmup;
    cfg.measure_requests = measure;
    cfg.seed = seed;
    cfg
}

fn scaled(per_s: u64, seconds: f64) -> u64 {
    ((per_s as f64 * seconds) as u64).max(1)
}

/// A timed repetition's configuration.
fn rep_config(spec: &SimSpec, seed: u64, seconds: f64) -> SimConfig {
    let warmup = scaled(spec.warmup_per_s, seconds);
    config(spec, seed, warmup, scaled(spec.measure_per_s, seconds))
}

/// A traced run's configuration.
fn traced_config(spec: &SimSpec, seed: u64, seconds: f64) -> SimConfig {
    let warmup = scaled(spec.traced_warmup_per_s, seconds);
    config(
        spec,
        seed,
        warmup,
        scaled(spec.traced_measure_per_s, seconds),
    )
}

/// Checks a run measured exactly its target, leaked no flow-control
/// credits, and neither retried nor lost a message (no faults are
/// injected).
fn check_run(r: &mut Report, m: &Metrics, cfg: &SimConfig) {
    r.check(
        "measured requests equal the target",
        m.measured_requests == cfg.measure_requests,
    );
    r.check("no stuck messages", m.stuck_messages == 0);
    r.check("no forward retries", m.retries == 0);
    r.check(
        "no dropped or corrupted messages",
        m.dropped_messages + m.corrupted_messages == 0,
    );
}

/// End-to-end: set-up time, simulated requests per host second, the
/// simulated client latency, peak memory.
pub fn end_to_end(spec: &SimSpec, seed: u64, seconds: f64, r: &mut Report) {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            for k in 0..SETUP_SEEDS {
                let sub_seed = seed.wrapping_add(k);
                black_box(Workload::from_preset(TracePreset::Clarknet, sub_seed));
            }
            t.elapsed().as_secs_f64() / SETUP_SEEDS as f64
        })
        .collect();
    r.metric("setup_s", median(&setups), "s");
    r.note(format!(
        "setup_s: median of {SETUPS} timings of Workload::from_preset over \
         {SETUP_SEEDS} sub-seeds, per workload"
    ));

    // The first repetition also builds the memoized workload; it is not
    // timed. The host's speed changes from one second to the next, at
    // times to half, so the fastest of many short repetitions is the
    // steadiest estimate of the simulator's own cost.
    let start = Instant::now();
    let cfg = rep_config(spec, seed, seconds);
    let first = run_simulation(&cfg);
    check_run(r, &first, &cfg);
    let requests = (cfg.warmup_requests + cfg.measure_requests) as f64;
    let mut rates = Vec::new();
    let mut identical = true;
    while rates.len() < MIN_REPS
        || (start.elapsed() < share(seconds, 0.7) && rates.len() < MAX_REPS)
    {
        let t = Instant::now();
        let m = run_simulation(&cfg);
        rates.push(requests / t.elapsed().as_secs_f64());
        identical &= m == first;
        r.attempted += m.measured_requests;
        r.failed += m.requests_lost + m.requests_shed();
    }
    r.check("repetitions return identical metrics", identical);
    r.metric(
        "req_per_s",
        rates.iter().copied().fold(0.0, f64::max),
        "req/s",
    );
    // Read before the traced runs, whose event buffers would dominate it.
    record_peak_rss(r);
    r.note(format!(
        "req_per_s: fastest of {} timed repetitions of {} warm-up + {} measured requests \
         (1 more discarded); req/s per repetition: slowest {:.0}, median {:.0}",
        rates.len(),
        cfg.warmup_requests,
        cfg.measure_requests,
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rates)
    ));

    // The histogram behind `Metrics` percentiles has 7.5% buckets; the
    // traced runs' Arrive/Done instants give exact simulated latencies.
    let mut lat = Vec::new();
    for k in 0..LATENCY_RUNS {
        let cfg = traced_config(spec, seed.wrapping_mul(31).wrapping_add(k), seconds);
        let (m, trace) = run_simulation_traced(&cfg);
        check_run(r, &m, &cfg);
        r.check("the latency trace dropped no events", trace.dropped() == 0);
        let mut one = measured_latencies(&trace, cfg.warmup_requests, cfg.measure_requests);
        one.sort_unstable();
        r.check(
            "the trace holds every measured request",
            one.len() as u64 == cfg.measure_requests,
        );
        if one.is_empty() {
            return;
        }
        let within_bucket = |q: f64, hist_ms: f64| {
            let exact = percentile(&one, q) as f64;
            (exact / (hist_ms * 1e6)).ln().abs() <= Histogram::bucket_growth().ln()
        };
        r.check(
            "exact latencies agree with the metrics histogram",
            within_bucket(0.50, m.p50_response_ms) && within_bucket(0.99, m.p99_response_ms),
        );
        lat.extend(one);
    }
    lat.sort_unstable();
    r.metric("p50_us", percentile(&lat, 0.50) as f64 / 1e3, "us");
    r.metric("p99_us", percentile(&lat, 0.99) as f64 / 1e3, "us");
    let t = traced_config(spec, seed, seconds);
    r.note(format!(
        "p50_us/p99_us: simulated client latency, exact, pooled over {} traced runs of {} \
         warm-up + {} measured requests ({} samples)",
        LATENCY_RUNS,
        t.warmup_requests,
        t.measure_requests,
        lat.len()
    ));
}

/// Simulated nanoseconds from `Arrive` to `Done` of the requests a run
/// measured: the `measure` completions after the first `warmup`.
fn measured_latencies(trace: &Trace, warmup: u64, measure: u64) -> Vec<u64> {
    let mut arrived: HashMap<u64, u64> = HashMap::new();
    let mut done = Vec::new();
    for e in trace.events() {
        match e.kind {
            EventKind::Arrive => {
                arrived.entry(e.req).or_insert(e.ts_ns);
            }
            EventKind::Done => {
                if let Some(a) = arrived.remove(&e.req) {
                    done.push(e.ts_ns - a);
                }
            }
            _ => {}
        }
    }
    done.into_iter()
        .skip(warmup as usize)
        .take(measure as usize)
        .collect()
}

/// Intra-cluster messages sent as remote memory writes.
fn rdma_messages(m: &Metrics, version: ServerVersion) -> u64 {
    [
        MessageType::Flow,
        MessageType::Load,
        MessageType::Forward,
        MessageType::Caching,
        MessageType::File,
    ]
    .into_iter()
    .filter(|&ty| version.mode(ty) == DeliveryMode::Rmw)
    .map(|ty| m.counters.count(ty))
    .sum()
}

/// Per-layer engine counters from one untraced repetition, plus a traced
/// run for the trace metrics. Returns the trace and the tracing overhead
/// in percent of untraced host time.
pub fn per_layer(spec: &SimSpec, seed: u64, seconds: f64, r: &mut Report) -> (Trace, f64) {
    let small = traced_config(spec, seed, seconds);
    // Builds the memoized workload so the timed runs below exclude it.
    let reference = run_simulation(&small);
    let (untraced_s, untraced) = median_secs(3, || run_simulation(&small));
    let (traced_s, (traced, trace)) = median_secs(3, || run_simulation_traced(&small));
    r.check(
        "tracing leaves metrics unchanged",
        traced == untraced && untraced == reference,
    );
    r.note(format!(
        "traced run: {} warm-up + {} measured requests, median of 3",
        small.warmup_requests, small.measure_requests
    ));

    let cfg = rep_config(spec, seed, seconds);
    let t = Instant::now();
    let m = run_simulation(&cfg);
    let wall_ns = t.elapsed().as_nanos() as f64;
    check_run(r, &m, &cfg);
    r.attempted += m.measured_requests;
    r.failed += m.requests_lost + m.requests_shed();
    let req = m.measured_requests as f64;
    let msgs = m.counters.total_count() as f64;
    r.metric("core.msgs_per_req", msgs / req, "count");
    r.metric("core.host_ns_per_msg", wall_ns / msgs, "ns");
    r.metric("core.model_rps", m.throughput_rps, "req/s");
    r.metric("core.mean_resp_us", m.mean_response_ms * 1e3, "us");
    r.metric("core.hit_rate", m.hit_rate, "ratio");
    r.metric("core.forward_fraction", m.forward_fraction, "ratio");
    r.metric(
        "via.rdma_per_req",
        rdma_messages(&m, cfg.version) as f64 / req,
        "count",
    );
    r.note(format!(
        "engine counters: one repetition of {} warm-up + {} measured requests; \
         simulated p99.9 {:.3} ms",
        cfg.warmup_requests, cfg.measure_requests, m.p999_response_ms
    ));
    (trace, (traced_s / untraced_s - 1.0) * 100.0)
}

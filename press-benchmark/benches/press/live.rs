//! The live-cluster workloads: an in-process `LiveCluster` driven by one
//! closed-loop client through `LiveCluster::request`, the only client API
//! (it blocks, so the load is a closed loop).

use std::time::{Duration, Instant};

use press_server::{file_contents, FileTransferMode, LiveCluster, LiveConfig, ServerStats};
use press_telem::{LiveTracer, Trace};
use press_trace::{FileCatalog, FileId, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, record_peak_rss, share, Report};

/// How the cluster moves file data back to the initial node.
pub struct LiveSpec {
    pub file_transfer: FileTransferMode,
    pub doorbell_batch: u32,
}

/// Two-sided VIA sends, one doorbell per descriptor.
pub const V0: LiveSpec = LiveSpec {
    file_transfer: FileTransferMode::Regular,
    doorbell_batch: 1,
};

/// One-sided RDMA ring writes, slab staging and coalesced doorbells.
pub const V6: LiveSpec = LiveSpec {
    file_transfer: FileTransferMode::RemoteWrite,
    doorbell_batch: 8,
};

const FILES: u64 = 2048;
const ZIPF_ALPHA: f64 = 0.8;
/// Fresh clusters measured per end-to-end run, one window each. Measuring
/// one cluster for the whole run, the windows of a run agreed within a
/// few percent while whole runs of `live-v6` split into a p50 near 370 us
/// and one near 430 us; pooling eight clusters halved the run-to-run
/// spread of p50 and req/s.
const CLUSTERS: u64 = 8;
/// Set-ups per run: `SETUP_WARMUPS` untimed, then `SETUPS` timed. A
/// process's first starts take two to three times as long as later ones
/// (its allocator and page tables are still cold), which put the median
/// on a slope whose steepness followed the host's state.
const SETUP_WARMUPS: usize = 10;
const SETUPS: usize = 21;
/// A request still unanswered after this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(5);

/// Small files (256 B to 2.3 KiB), so per-message cost dominates and the
/// whole catalog fits the cache.
fn sizes() -> Vec<u64> {
    (0..FILES).map(|i| 256 + (i * 977) % 2048).collect()
}

fn config(spec: &LiveSpec) -> LiveConfig {
    LiveConfig {
        cache_bytes: 64 << 20,
        disk_fixed: Duration::from_micros(200),
        file_transfer: spec.file_transfer,
        doorbell_batch: spec.doorbell_batch,
        ..LiveConfig::default()
    }
}

/// `ServerStats` counters read at one instant.
#[derive(Clone, Copy, Default)]
struct Counters {
    completed: u64,
    forwarded: u64,
    disk_reads: u64,
    msgs: u64,
    rdma: u64,
    retries: u64,
    via_errors: u64,
}

impl Counters {
    fn read(s: &ServerStats) -> Counters {
        let g = ServerStats::get;
        Counters {
            completed: s.completed(),
            forwarded: g(&s.forwarded),
            disk_reads: g(&s.disk_reads),
            msgs: g(&s.forward_msgs)
                + g(&s.file_msgs)
                + g(&s.caching_msgs)
                + g(&s.flow_msgs)
                + g(&s.rdma_load_writes),
            rdma: g(&s.rdma_load_writes) + g(&s.rdma_file_writes),
            retries: g(&s.retries),
            via_errors: g(&s.via_errors),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            forwarded: self.forwarded - before.forwarded,
            disk_reads: self.disk_reads - before.disk_reads,
            msgs: self.msgs - before.msgs,
            rdma: self.rdma - before.rdma,
            retries: self.retries - before.retries,
            via_errors: self.via_errors - before.via_errors,
        }
    }
}

/// Latency resolution and range of the fixed histogram; slower requests
/// are kept exactly in an overflow list.
const BUCKET_NS: u64 = 10;
const BUCKETS: usize = 256 * 1024;

/// Client latencies in a fixed histogram. Its pages stay unmapped until a
/// latency lands in them, so the harness adds a few hundred KiB at most
/// to `peak_rss_mb`, however many requests it records.
struct Latencies {
    buckets: Vec<u32>,
    over: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Latencies {
    fn new() -> Latencies {
        Latencies {
            buckets: vec![0; BUCKETS],
            over: Vec::new(),
            count: 0,
            sum_ns: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`) in nanoseconds, to the
    /// bucket's midpoint.
    fn percentile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return (i as u64 * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over.get((rank - seen - 1) as usize)
            .map_or(0.0, |&ns| ns as f64)
    }

    fn mean_ns(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64
    }
}

/// The outcome of driving one cluster through a warm-up and one measured
/// window.
struct Load {
    window: Duration,
    /// Correct replies to requests sent inside the window.
    completed: u64,
    attempted: u64,
    failed: u64,
    /// Server counters over the window.
    stats: Counters,
}

impl Load {
    fn rps(&self) -> f64 {
        self.completed as f64 / self.window.as_secs_f64()
    }

    fn record(&self, r: &mut Report) {
        r.attempted += self.attempted;
        r.failed += self.failed;
    }
}

fn start(spec: &LiveSpec, tracer: Option<std::sync::Arc<LiveTracer>>) -> LiveCluster {
    LiveCluster::start_with_tracer(config(spec), FileCatalog::from_sizes(sizes()), tracer)
}

/// Sends requests one at a time for `warmup` and then for `window`: each
/// a Zipf file and a uniform node drawn from a generator seeded by
/// `seed`. Every reply is checked byte for byte against `file_contents`,
/// regenerated after the request is timed. Requests sent inside the
/// window add their latency to `latencies`; server counters cover the
/// window too.
fn drive(
    cluster: &LiveCluster,
    seed: u64,
    warmup: Duration,
    window: Duration,
    latencies: &mut Latencies,
) -> Load {
    let zipf = ZipfSampler::new(FILES as usize, ZIPF_ALPHA);
    let sizes = sizes();
    let nodes = cluster.nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now() + warmup;
    let t1 = t0 + window;
    let mut before = None;
    let (mut completed, mut attempted, mut failed) = (0, 0, 0);
    loop {
        let file = zipf.sample(&mut rng);
        let node = rng.gen_range(0..nodes);
        let id = FileId(file as u32);
        let t = Instant::now();
        if t >= t1 {
            break;
        }
        if t >= t0 && before.is_none() {
            before = Some(Counters::read(cluster.stats()));
        }
        let reply = cluster.request(node, id, TIMEOUT);
        let end = Instant::now();
        attempted += 1;
        let expected = file_contents(id, sizes[file] as usize);
        if !matches!(reply, Ok(bytes) if bytes == expected) {
            failed += 1;
        } else if t >= t0 {
            completed += 1;
            latencies.record((end - t).as_nanos() as u64);
        }
    }
    let after = Counters::read(cluster.stats());
    Load {
        window,
        completed,
        attempted,
        failed,
        stats: after.since(before.unwrap_or(after)),
    }
}

/// End-to-end: set-up time, client throughput and latency, peak memory.
pub fn end_to_end(spec: &LiveSpec, seed: u64, seconds: f64, r: &mut Report) {
    let starts: Vec<f64> = (0..SETUP_WARMUPS + SETUPS)
        .map(|_| {
            let t = Instant::now();
            let cluster = start(spec, None);
            let secs = t.elapsed().as_secs_f64();
            cluster.shutdown();
            secs
        })
        .collect();
    r.metric("setup_s", median(&starts[SETUP_WARMUPS..]), "s");
    r.note(format!(
        "setup_s: median of {SETUPS} catalog builds + LiveCluster::start \
         after {SETUP_WARMUPS} untimed ones"
    ));

    let (warmup, window) = (share(seconds, 0.02), share(seconds, 0.095));
    let mut latencies = Latencies::new();
    let mut rps = Vec::new();
    for k in 0..CLUSTERS {
        let cluster = start(spec, None);
        let sub_seed = seed.wrapping_mul(31).wrapping_add(k);
        let load = drive(&cluster, sub_seed, warmup, window, &mut latencies);
        cluster.shutdown();
        load.record(r);
        rps.push(load.rps());
    }
    r.check("requests completed", latencies.count > 0);
    r.metric("req_per_s", median(&rps), "req/s");
    r.metric("p50_us", latencies.percentile(0.50) / 1e3, "us");
    r.metric("p99_us", latencies.percentile(0.99) / 1e3, "us");
    record_peak_rss(r);
    r.note(format!(
        "{CLUSTERS} fresh clusters, each {:.2} s warm-up + one {:.2} s window; \
         req/s per cluster {:?}; latency samples {}",
        warmup.as_secs_f64(),
        window.as_secs_f64(),
        rps.iter().map(|v| v.round()).collect::<Vec<_>>(),
        latencies.count
    ));
}

/// Per-layer engine counters from one untraced window, plus a short
/// traced run for the trace metrics. Returns the trace and the tracing
/// overhead in percent of untraced per-request time.
pub fn per_layer(spec: &LiveSpec, seed: u64, seconds: f64, r: &mut Report) -> (Trace, f64) {
    let cluster = start(spec, None);
    let mut latencies = Latencies::new();
    let window = share(seconds, 0.2);
    let load = drive(&cluster, seed, share(seconds, 0.05), window, &mut latencies);
    cluster.shutdown();
    load.record(r);
    r.check("requests completed", latencies.count > 0);
    let d = load.stats;
    r.check("no forward retries", d.retries == 0);
    r.check("no VIA errors", d.via_errors == 0);
    let req = d.completed.max(1) as f64;
    r.metric("core.msgs_per_req", d.msgs as f64 / req, "count");
    r.metric(
        "core.host_ns_per_msg",
        window.as_nanos() as f64 / d.msgs.max(1) as f64,
        "ns",
    );
    r.metric("core.model_rps", load.rps(), "req/s");
    r.metric("core.mean_resp_us", latencies.mean_ns() / 1e3, "us");
    r.metric("core.hit_rate", 1.0 - d.disk_reads as f64 / req, "ratio");
    r.metric("core.forward_fraction", d.forwarded as f64 / req, "ratio");
    r.metric("via.rdma_per_req", d.rdma as f64 / req, "count");
    r.note(format!(
        "engine counters: one {:.1} s window; client p99.9 {:.1} us over {} samples",
        window.as_secs_f64(),
        latencies.percentile(0.999) / 1e3,
        latencies.count
    ));

    // Rings hold 65 536 events per (node, lane); a window of 1/40 of the
    // run keeps a live-v0 trace well inside them on a two-core host.
    let tracer = LiveTracer::new();
    let cluster = start(spec, Some(tracer));
    let window = share(seconds, 1.0 / 40.0);
    let traced = drive(
        &cluster,
        seed,
        Duration::ZERO,
        window,
        &mut Latencies::new(),
    );
    let trace = cluster
        .shutdown_traced()
        .expect("a tracer was passed at start");
    traced.record(r);
    r.note(format!(
        "traced run: one {:.2} s window, {} requests",
        window.as_secs_f64(),
        traced.attempted
    ));
    (trace, (load.rps() / traced.rps() - 1.0) * 100.0)
}

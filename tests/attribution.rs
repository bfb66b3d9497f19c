//! Attribution invariants across both engines: conservation (bucket
//! charges sum exactly to end-to-end latency), byte-determinism of the
//! `press attribute` CLI, and causal stitching of forwarded requests
//! into one cross-node trace.

use std::process::Command;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use press::core::{run_simulation_traced, SimConfig};
use press::server::{LiveCluster, LiveConfig, WireKind, WireMsg};
use press::telem::{
    attribute_request, attribute_trace, by_request, lane, EventKind, LiveTracer, SpanIndex,
    TraceEvent,
};
use press::trace::{FileCatalog, FileId, TracePreset};

fn press() -> Command {
    Command::new(env!("CARGO_BIN_EXE_press"))
}

/// A short ClarkNet slice, long enough for forwards and disk traffic.
fn small_clarknet() -> SimConfig {
    let mut cfg = SimConfig::paper_default(TracePreset::Clarknet);
    cfg.measure_requests = 3_000;
    cfg.warmup_requests = 500;
    cfg
}

fn distinct_nodes(events: &[TraceEvent]) -> usize {
    let mut nodes: Vec<u16> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len()
}

// ---------- conservation over real sim traces ----------

#[test]
fn sim_attribution_conserves_every_request() {
    let (_, trace) = run_simulation_traced(&small_clarknet());
    let attrs = attribute_trace(&trace);
    assert!(
        attrs.len() > 1_000,
        "only {} requests attributed",
        attrs.len()
    );
    for a in &attrs {
        assert_eq!(
            a.charged_ns(),
            a.total_ns,
            "req {} leaked nanoseconds: buckets {:?} vs total {}",
            a.req,
            a.ns,
            a.total_ns
        );
    }
    assert!(
        attrs.iter().any(|a| a.nodes >= 2),
        "no request was stitched across a forward"
    );
}

// ---------- golden stitched trace across a forwarded request (sim) ----------

#[test]
fn sim_forwarded_chain_walks_from_done_back_to_arrive() {
    let mut cfg = SimConfig::paper_default(TracePreset::Clarknet);
    cfg.nodes = 3;
    cfg.measure_requests = 2_000;
    cfg.warmup_requests = 300;
    let (_, trace) = run_simulation_traced(&cfg);
    assert_eq!(trace.dropped(), 0, "short run must fit the buffer");

    let spans = SpanIndex::new(&trace);
    let mut cross_node_chains = 0;
    for (_, events) in by_request(&trace) {
        if distinct_nodes(&events) < 2 {
            continue;
        }
        let Some(done) = events.iter().find(|e| e.kind == EventKind::Done) else {
            continue;
        };
        assert_ne!(done.span, 0, "Done events carry a span id");
        let chain = spans.chain(done.span);
        assert_eq!(
            chain.first().map(|e| e.kind),
            Some(EventKind::Arrive),
            "causal chain must root at the client arrival"
        );
        assert_eq!(chain.last().map(|e| e.kind), Some(EventKind::Done));
        // Spans are stamped with their *start* time at scheduling, so
        // adjacent chain links may overlap; the endpoints still bound it.
        let arrive_ts = chain.first().map(|e| e.ts_ns).unwrap_or(0);
        assert!(done.ts_ns >= arrive_ts, "Done cannot precede Arrive");
        if distinct_nodes(&chain) >= 2 {
            cross_node_chains += 1;
        }
    }
    assert!(
        cross_node_chains > 0,
        "no forwarded request produced a cross-node causal chain"
    );
}

// ---------- conservation over adversarial synthetic traces ----------

const SPAN_KINDS: [EventKind; 9] = [
    EventKind::Parse,
    EventKind::NicRx,
    EventKind::NicTx,
    EventKind::DiskRead,
    EventKind::ReplyCpu,
    EventKind::ReplyTx,
    EventKind::ViaSend,
    EventKind::ViaRecv,
    EventKind::RdmaWrite,
];

const INSTANT_KINDS: [EventKind; 6] = [
    EventKind::Dispatch,
    EventKind::CacheHit,
    EventKind::CreditStall,
    EventKind::Retry,
    EventKind::Failover,
    EventKind::DiskError,
];

fn ev(ts: u64, dur: u64, node: u16, kind: EventKind) -> TraceEvent {
    TraceEvent {
        ts_ns: ts,
        dur_ns: dur,
        node,
        lane: lane::MAIN,
        kind,
        req: 1,
        a: 0,
        b: 0,
        span: 0,
        parent: 0,
    }
}

proptest! {
    /// Arbitrary overlapping spans and instants — before, inside, and
    /// past the request window — must attribute exactly `total` ns:
    /// every elementary interval charged once, none twice, none dropped.
    #[test]
    fn attribution_is_conservative_on_arbitrary_event_soups(
        total in 1u64..200_000,
        spans in vec(
            (0u64..250_000, 1u64..80_000, 0u16..4, 0usize..SPAN_KINDS.len()),
            0..40,
        ),
        instants in vec(
            (0u64..250_000, 0u16..4, 0usize..INSTANT_KINDS.len()),
            0..12,
        ),
    ) {
        const W0: u64 = 10_000; // window start; events may precede it
        let mut events = vec![ev(W0, 0, 0, EventKind::Arrive)];
        for &(ts, dur, node, k) in &spans {
            events.push(ev(ts, dur, node, SPAN_KINDS[k]));
        }
        for &(ts, node, k) in &instants {
            events.push(ev(ts, 0, node, INSTANT_KINDS[k]));
        }
        events.push(ev(W0 + total, 0, 0, EventKind::Done));
        events.sort_by_key(|e| (e.ts_ns, e.kind as u16));

        let a = attribute_request(1, &events).expect("window is complete");
        prop_assert_eq!(a.total_ns, total);
        // Bucket charges must sum to the end-to-end window exactly.
        prop_assert_eq!(a.charged_ns(), a.total_ns);
    }
}

// ---------- CLI byte-determinism at a fixed seed ----------

#[test]
fn attribute_cli_is_byte_deterministic() {
    // One shared out dir: stdout echoes artifact paths, so the two runs
    // must agree on them for the byte comparison to be meaningful.
    let base = std::env::temp_dir().join(format!("press-attr-{}", std::process::id()));
    let run = |_tag: &str| {
        let dir = base.clone();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = press()
            .args([
                "attribute",
                "--trace",
                "forth",
                "--versions",
                "v5",
                "--strategies",
                "pb",
                "--nodes",
                "4",
                "--measure",
                "1500",
                "--warmup",
                "300",
                "--out",
                dir.to_str().expect("utf-8 path"),
            ])
            .env("PRESS_BENCH_LOG", dir.join("bench.json"))
            .env("PRESS_QUIET", "1")
            .output()
            .expect("run press attribute");
        assert!(
            out.status.success(),
            "attribute failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace = std::fs::read(dir.join("trace_attr_V5_PB.json")).expect("trace artifact");
        (out.stdout, trace)
    };
    let (stdout_a, trace_a) = run("a");
    let (stdout_b, trace_b) = run("b");
    let _ = std::fs::remove_dir_all(&base);

    assert_eq!(
        stdout_a, stdout_b,
        "same-seed stdout must be byte-identical"
    );
    assert_eq!(
        trace_a, trace_b,
        "same-seed trace export must be byte-identical"
    );
    let text = String::from_utf8_lossy(&stdout_a);
    assert!(text.contains("bucket"), "table header missing: {text}");
    assert!(
        text.contains("p50 critical path"),
        "exemplars missing: {text}"
    );
}

// ---------- live cluster: a forward yields one stitched trace ----------

/// The shared warm-start placement: which node pre-caches `file`.
fn placement(file: FileId, nodes: usize) -> usize {
    ((file.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nodes
}

#[test]
fn live_forwarded_request_stitches_one_cross_node_trace() {
    const NODES: usize = 3;
    let catalog = FileCatalog::from_sizes(vec![2048; 64]);
    let cfg = LiveConfig {
        nodes: NODES,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start_with_tracer(cfg, catalog, Some(LiveTracer::new()));

    // A file warm-started on node 1, requested at node 0: the policy sees
    // a remote cacher and forwards over the VIA mesh.
    let file = (0..64u32)
        .map(FileId)
        .find(|&f| placement(f, NODES) == 1)
        .expect("some file hashes to node 1");
    let data = cluster
        .request(0, file, Duration::from_secs(10))
        .expect("forwarded request completes");
    assert_eq!(data.len(), 2048);

    let trace = cluster.shutdown_traced().expect("tracer was on");
    let attrs = attribute_trace(&trace);
    let a = attrs
        .iter()
        .find(|a| a.nodes >= 2)
        .expect("the forwarded request must stitch into one multi-node trace");
    assert_eq!(a.charged_ns(), a.total_ns, "live charges conserve too");
    assert!(a.total_ns > 0);

    let events = &by_request(&trace)[&a.req];
    let done = events
        .iter()
        .find(|e| e.kind == EventKind::Done)
        .expect("completed request has a Done");
    let chain = SpanIndex::new(&trace).chain(done.span);
    assert_eq!(
        chain.first().map(|e| e.kind),
        Some(EventKind::Arrive),
        "live causal chain roots at the arrival: {chain:?}"
    );
    assert!(
        distinct_nodes(&chain) >= 2,
        "chain must cross the forward: {chain:?}"
    );
}

#[test]
fn live_failed_over_request_chains_back_to_arrive() {
    const NODES: usize = 4;
    let catalog = FileCatalog::from_sizes(vec![2048; 64]);
    let cfg = LiveConfig {
        nodes: NODES,
        retry_timeout: Duration::from_millis(20),
        max_retries: 2,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start_with_tracer(cfg, catalog, Some(LiveTracer::new()));

    // Fail-silent: node 1 drops traffic but stays in the membership, so
    // every attempt for a node-1 file goes back to it until the request
    // fails over to the initial node's disk.
    let file = (0..64u32)
        .map(FileId)
        .find(|&f| placement(f, NODES) == 1)
        .expect("some file hashes to node 1");
    cluster.hang_node(1);
    let data = cluster
        .request(0, file, Duration::from_secs(10))
        .expect("failed-over request completes");
    assert_eq!(data.len(), 2048);

    let trace = cluster.shutdown_traced().expect("tracer was on");
    let requests = by_request(&trace);
    let events = requests
        .values()
        .find(|evs| evs.iter().any(|e| e.kind == EventKind::Failover))
        .expect("the request failed over");
    let done = events
        .iter()
        .find(|e| e.kind == EventKind::Done)
        .expect("completed request has a Done");
    let kinds: Vec<EventKind> = SpanIndex::new(&trace)
        .chain(done.span)
        .iter()
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds.first(),
        Some(&EventKind::Arrive),
        "the chain must cross every attempt back to the arrival: {kinds:?}"
    );
    assert!(
        kinds.contains(&EventKind::Retry) && kinds.contains(&EventKind::Failover),
        "retries and the failover sit on the chain: {kinds:?}"
    );
}

#[test]
fn live_retried_forward_records_the_wire_size_on_every_attempt() {
    const NODES: usize = 4;
    let catalog = FileCatalog::from_sizes(vec![2048; 64]);
    let cfg = LiveConfig {
        nodes: NODES,
        retry_timeout: Duration::from_millis(20),
        max_retries: 1,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start_with_tracer(cfg, catalog, Some(LiveTracer::new()));

    // Node 1 drops traffic but stays in the membership: the forward to it
    // times out, is retried to it once, and then fails over.
    let file = (0..64u32)
        .map(FileId)
        .find(|&f| placement(f, NODES) == 1)
        .expect("some file hashes to node 1");
    cluster.hang_node(1);
    let data = cluster
        .request(0, file, Duration::from_secs(10))
        .expect("failed-over request completes");
    assert_eq!(data.len(), 2048);

    let trace = cluster.shutdown_traced().expect("tracer was on");
    let requests = by_request(&trace);
    let events = requests
        .values()
        .find(|evs| evs.iter().any(|e| e.kind == EventKind::Retry))
        .expect("the request was retried");
    let sends: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::ViaSend && e.b == 1)
        .collect();
    assert_eq!(sends.len(), 2, "one send per attempt: {sends:?}");
    let forward = WireMsg {
        kind: WireKind::Forward,
        file,
        token: 0,
        sender_load: 0,
        parent_span: 0,
        payload: Vec::new(),
    };
    let wire = forward.encode(&mut [0; 64]) as u64;
    assert!(
        sends.iter().all(|e| e.a == wire),
        "every attempt records the {wire}-byte wire size: {sends:?}"
    );
}

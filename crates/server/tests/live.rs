//! Integration tests: the live threaded PRESS cluster under real
//! concurrent load.

use std::sync::Arc;
use std::time::{Duration, Instant};

use press_server::{
    file_contents, FileTransferMode, LiveCluster, LiveConfig, LiveError, ServerStats,
};
use press_trace::{FileCatalog, FileId};

const T: Duration = Duration::from_secs(20);

fn small_catalog(files: usize, bytes: u64) -> FileCatalog {
    FileCatalog::from_sizes(vec![bytes; files])
}

#[test]
fn traced_cluster_records_request_and_via_events() {
    use press_telem::{EventKind, LiveTracer};
    let tracer = LiveTracer::new();
    let cluster = LiveCluster::start_with_tracer(
        LiveConfig::default(),
        small_catalog(64, 1024),
        Some(Arc::clone(&tracer)),
    );
    for node in 0..cluster.nodes() {
        for f in [0u32, 9, 33, 57] {
            cluster.request(node, FileId(f), T).expect("request");
        }
    }
    let trace = cluster.shutdown_traced().expect("tracer was installed");
    assert!(!trace.events().is_empty());
    let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Arrive), "no arrivals traced");
    assert!(kinds.contains(&EventKind::Done), "no completions traced");
    assert!(
        kinds.contains(&EventKind::ViaPost),
        "no VIA descriptor posts traced"
    );
    // Requests were spread over every node, so spans come from several.
    assert!(trace.nodes().len() >= 2, "nodes: {:?}", trace.nodes());
    // Timestamps are monotonic wall-clock offsets from the tracer anchor.
    assert!(trace.events().windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}

#[test]
fn untraced_cluster_returns_no_trace() {
    let cluster =
        LiveCluster::start_with_tracer(LiveConfig::default(), small_catalog(8, 256), None);
    cluster.request(0, FileId(3), T).expect("request");
    assert!(cluster.shutdown_traced().is_none());
}

#[test]
fn serves_correct_content_from_all_nodes() {
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(64, 1024));
    for node in 0..cluster.nodes() {
        for f in [0u32, 7, 31, 63] {
            let data = cluster.request(node, FileId(f), T).expect("request");
            assert_eq!(
                data,
                file_contents(FileId(f), 1024),
                "file {f} via node {node}"
            );
        }
    }
    // With files hash-placed across 4 nodes, most of those requests were
    // forwarded and answered with intra-cluster file transfers.
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.forwarded) > 0,
        "no forwarding happened"
    );
    assert_eq!(
        ServerStats::get(&stats.forward_msgs),
        ServerStats::get(&stats.forwarded)
    );
    cluster.shutdown();
}

#[test]
fn concurrent_clients_hammering_all_nodes() {
    let cluster = Arc::new(LiveCluster::start(
        LiveConfig::default(),
        small_catalog(128, 2048),
    ));
    let mut handles = Vec::new();
    for c in 0..8 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..150u32 {
                let file = FileId((i * 13 + c * 29) % 128);
                let node = ((i + c) % 4) as usize;
                let data = cluster.request(node, file, T).expect("request");
                assert_eq!(
                    data,
                    file_contents(file, 2048),
                    "client {c} request {i} corrupt"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = cluster.stats();
    assert_eq!(stats.completed(), 8 * 150);
    // Flow control must have cycled under this much traffic.
    assert!(ServerStats::get(&stats.flow_msgs) > 0);
    // Load dissemination through remote memory writes happened.
    assert!(ServerStats::get(&stats.rdma_load_writes) > 0);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn cold_files_hit_disk_then_replicate() {
    // Caches too small for the whole catalog: some requests go to disk.
    let cfg = LiveConfig {
        cache_bytes: 8 * 1024, // 8 files of 1 KB per node
        disk_fixed: Duration::from_millis(1),
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(256, 1024));
    for f in 0..64u32 {
        let data = cluster.request(0, FileId(f), T).expect("request");
        assert_eq!(data, file_contents(FileId(f), 1024));
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.disk_reads) > 0,
        "small caches must miss"
    );
    // Insertions broadcast caching information to the other nodes.
    assert!(ServerStats::get(&stats.caching_msgs) > 0);
    cluster.shutdown();
}

#[test]
fn load_tables_fill_in_via_rdma() {
    let cfg = LiveConfig {
        load_write_period: 1, // write on every event
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(64, 512));
    // Drive traffic through node 1 so its load gets written everywhere.
    for i in 0..40u32 {
        let _ = cluster.request(1, FileId(i % 64), T).expect("request");
    }
    // Some peer observed node 1's load table entry (the value itself is
    // racy — what matters is that remote memory writes landed).
    let observed: u64 = ServerStats::get(&cluster.stats().rdma_load_writes);
    assert!(observed > 0);
    let mut any_nonzero_row = false;
    for node in 0..cluster.nodes() {
        let table = cluster.load_table(node);
        assert_eq!(table.len(), cluster.nodes());
        if table.iter().any(|&v| v > 0) {
            any_nonzero_row = true;
        }
    }
    // Loads briefly spike during requests; at least the write machinery
    // must have deposited *something* at some point. (Zero rows can only
    // happen if every write carried load 0 — possible but then the
    // counter check above still validates the path.)
    let _ = any_nonzero_row;
    cluster.shutdown();
}

#[test]
fn unknown_file_is_rejected() {
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(8, 256));
    assert_eq!(
        cluster.request(0, FileId(99), T),
        Err(LiveError::UnknownFile)
    );
    cluster.shutdown();
}

#[test]
fn shutdown_is_clean_and_quick() {
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(32, 1024));
    let _ = cluster.request(0, FileId(1), T).expect("request");
    let start = std::time::Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung: {:?}",
        start.elapsed()
    );
}

#[test]
fn mixed_file_sizes_transfer_intact() {
    let sizes: Vec<u64> = (0..48).map(|i| 64 + (i as u64 * 733) % 16_000).collect();
    let catalog = FileCatalog::from_sizes(sizes.clone());
    let cluster = LiveCluster::start(LiveConfig::default(), catalog);
    for (i, &len) in sizes.iter().enumerate() {
        let file = FileId(i as u32);
        let data = cluster
            .request(i % cluster.nodes(), file, T)
            .expect("request");
        assert_eq!(data.len(), len as usize);
        assert_eq!(data, file_contents(file, len as usize));
    }
    cluster.shutdown();
}

#[test]
fn eight_node_cluster_works() {
    let cfg = LiveConfig {
        nodes: 8,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(200, 1500));
    for i in 0..100u32 {
        let node = (i % 8) as usize;
        let file = FileId((i * 7) % 200);
        let data = cluster.request(node, file, T).expect("request");
        assert_eq!(data, file_contents(file, 1500));
    }
    assert!(ServerStats::get(&cluster.stats().forwarded) > 20);
    cluster.shutdown();
}

#[test]
fn remote_write_mode_transfers_files_via_rings() {
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(96, 3000));
    for i in 0..300u32 {
        let file = FileId((i * 7) % 96);
        let node = (i % 4) as usize;
        let data = cluster.request(node, file, T).expect("request");
        assert_eq!(data, file_contents(file, 3000), "request {i}");
    }
    let stats = cluster.stats();
    assert!(ServerStats::get(&stats.forwarded) > 0);
    // Every forwarded file came back through a remote memory write, not a
    // regular message completion.
    assert_eq!(
        ServerStats::get(&stats.rdma_file_writes),
        ServerStats::get(&stats.file_msgs),
        "all file transfers should use RDMA in RemoteWrite mode"
    );
    assert!(ServerStats::get(&stats.rdma_file_writes) > 0);
    cluster.shutdown();
}

#[test]
fn remote_write_mode_survives_concurrency_and_ring_wrap() {
    // More requests than ring slots forces sequence-number wrap-around,
    // and concurrent clients interleave ring entries per pair.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        window: 4,
        credit_batch: 2,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(64, 4096)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..120u32 {
                let file = FileId((i * 5 + c * 17) % 64);
                let data = cluster
                    .request(((i + c) % 4) as usize, file, T)
                    .expect("request");
                assert_eq!(data, file_contents(file, 4096), "client {c} req {i}");
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("still shared"),
    }
}

#[test]
fn fast_path_cluster_serves_requests() {
    // V6: doorbell-coalesced sends staged in the slab pool, over the same
    // RemoteWrite file transfers V5 uses.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        doorbell_batch: 4,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(96, 3000)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..120u32 {
                let file = FileId((i * 7 + c * 19) % 96);
                let data = cluster
                    .request(((i + c) % 4) as usize, file, T)
                    .expect("request");
                assert_eq!(data, file_contents(file, 3000), "client {c} req {i}");
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    let stats = cluster.stats();
    assert_eq!(stats.completed(), 6 * 120);
    assert!(ServerStats::get(&stats.forwarded) > 0);
    // Fault-free run: no slab misuse, no failed posts.
    assert_eq!(ServerStats::get(&stats.via_errors), 0);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("still shared"),
    }
}

#[test]
fn fast_path_traces_coalesced_doorbells() {
    use press_telem::{EventKind, LiveTracer};
    let tracer = LiveTracer::new();
    // A small window with batched credit returns makes the main loop
    // drain several queued messages back-to-back when credits arrive —
    // exactly the burst the doorbell exists to coalesce.
    let cfg = LiveConfig {
        window: 4,
        credit_batch: 4,
        doorbell_batch: 4,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start_with_tracer(
        cfg,
        small_catalog(64, 2048),
        Some(Arc::clone(&tracer)),
    ));
    let mut handles = Vec::new();
    for c in 0..8u32 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..150u32 {
                let file = FileId((i * 13 + c * 29) % 64);
                cluster
                    .request(((i + c) % 4) as usize, file, T)
                    .expect("request");
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    let cluster = match Arc::try_unwrap(cluster) {
        Ok(c) => c,
        Err(_) => panic!("still shared"),
    };
    let trace = cluster.shutdown_traced().expect("tracer was installed");
    // Batched posts carry the batch size in `b`; under this much traffic
    // at least one doorbell must have coalesced several descriptors.
    let coalesced = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ViaPost && e.b >= 2)
        .count();
    assert!(coalesced > 0, "no coalesced doorbell rings traced");
}

#[test]
fn fast_path_lone_messages_leave_without_waiting_for_a_batch() {
    use press_telem::{EventKind, LiveTracer};
    let tracer = LiveTracer::new();
    // One client, one request at a time: a doorbell batch of 8 never
    // fills, so each forward leaves only because the main loop rings
    // its staged doorbells before it parks. Periodic load
    // writes (which flush as a side effect) are off, so a broken drain
    // would strand every forward until its retry timeout.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        doorbell_batch: 8,
        load_write_period: u32::MAX,
        ..LiveConfig::default()
    };
    let cluster =
        LiveCluster::start_with_tracer(cfg, small_catalog(32, 2048), Some(Arc::clone(&tracer)));
    for i in 0..96u32 {
        let file = FileId((i * 7) % 32);
        let node = i as usize % cluster.nodes();
        let data = cluster.request(node, file, T).expect("request");
        assert_eq!(
            data,
            file_contents(file, 2048),
            "request {i} via node {node}"
        );
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.forwarded) > 0,
        "no forwarding happened"
    );
    assert_eq!(
        ServerStats::get(&stats.retries),
        0,
        "a forward waited past its retry timeout"
    );
    assert_eq!(ServerStats::get(&stats.via_errors), 0);
    let trace = cluster.shutdown_traced().expect("tracer was installed");
    // A doorbell ring carries its batch size in `b`: rings of one show
    // lone messages leaving on their own.
    let lone = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ViaPost && e.b == 1)
        .count();
    assert!(lone > 0, "no un-coalesced doorbell rings traced");
}

/// Sends 96 sequential byte-checked requests for 2 KiB files to `node`,
/// twice (the first pass warms every cache), and checks that `node`
/// forwarded some of them.
fn forward_requests(cluster: &LiveCluster, node: usize) {
    let before = ServerStats::get(&cluster.stats().forwarded);
    for _ in 0..2 {
        for i in 0..96u32 {
            let file = FileId((i * 7) % 32);
            let data = cluster.request(node, file, T).expect("request");
            assert_eq!(data, file_contents(file, 2048), "request {i}");
        }
    }
    assert!(
        ServerStats::get(&cluster.stats().forwarded) > before,
        "no forwarding happened"
    );
}

/// Forwards requests from node 0, crashes node 0 as soon as it forwards
/// one (so that reply lands while it is down), recovers it and forwards
/// again. No reply may wait for the main loop's 1 ms tick, before the
/// crash or after the recovery: the wake flag must not stay set across
/// the outage.
fn replies_wake_the_main_loop(cluster: LiveCluster) {
    let tick_found = |c: &LiveCluster| ServerStats::get(&c.stats().replies_found_by_tick);
    forward_requests(&cluster, 0);
    assert_eq!(tick_found(&cluster), 0, "a reply waited for the tick");
    let before = ServerStats::get(&cluster.stats().forwarded);
    std::thread::scope(|s| {
        let cluster = &cluster;
        s.spawn(move || {
            for f in 0..8 {
                // The request forwarded at the crash fails; later ones
                // are steered to a live node.
                let _ = cluster.request(0, FileId(f), T);
            }
        });
        let start = Instant::now();
        while ServerStats::get(&cluster.stats().forwarded) == before {
            assert!(start.elapsed() < T, "node 0 forwarded nothing");
            std::thread::yield_now();
        }
        cluster.crash_node(0);
    });
    cluster.recover_node(0);
    forward_requests(&cluster, 0);
    assert_eq!(
        tick_found(&cluster),
        0,
        "a reply waited for the tick after crash and recovery"
    );
    assert_eq!(ServerStats::get(&cluster.stats().retries), 0);
    assert_eq!(ServerStats::get(&cluster.stats().via_errors), 0);
}

#[test]
fn fast_path_replies_wake_the_main_loop() {
    // A V6 reply is a remote write into the initial node's file ring and
    // raises no message. The ring's write hook must wake the parked main
    // loop; a reply left for the tick shows in `replies_found_by_tick`.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        doorbell_batch: 8,
        ..LiveConfig::default()
    };
    replies_wake_the_main_loop(LiveCluster::start(cfg, small_catalog(32, 2048)));
}

#[test]
fn regular_replies_wake_the_main_loop() {
    // The V0 twin of `fast_path_replies_wake_the_main_loop`: a reply is a
    // regular message, and its receive completion must wake the parked
    // main loop through the completion queue's wake hook.
    replies_wake_the_main_loop(LiveCluster::start(
        LiveConfig::default(),
        small_catalog(32, 2048),
    ));
}

#[test]
fn an_idle_cluster_never_polls() {
    // A main loop polls its event channel only after a pass that handled
    // an event: freshly started and idle ticking nodes park at once, and
    // under closed-loop traffic some hand-offs are caught by the poll.
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(32, 2048));
    let polls = |c: &LiveCluster| ServerStats::get(&c.stats().polls);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(polls(&cluster), 0, "an idle node polled");
    for i in 0..200u32 {
        let file = FileId((i * 7) % 32);
        let data = cluster.request(i as usize % 4, file, T).expect("request");
        assert_eq!(data, file_contents(file, 2048), "request {i}");
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.forwarded) > 0,
        "no forwarding happened"
    );
    assert!(polls(&cluster) > 0, "no busy pass polled");
    assert!(
        ServerStats::get(&stats.poll_hits) > 0,
        "no poll caught an event"
    );
    cluster.shutdown();
}

#[test]
fn fast_path_survives_window_pressure() {
    // Tiny windows force credit stalls — each stall must flush the
    // doorbell or the cluster deadlocks waiting on credits.
    let cfg = LiveConfig {
        window: 2,
        credit_batch: 1,
        doorbell_batch: 8,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(64, 4096)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..80u32 {
                let file = FileId((i + c * 11) % 64);
                let data = cluster.request((c % 4) as usize, file, T).expect("request");
                assert_eq!(data.len(), 4096);
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn window_pressure_does_not_deadlock() {
    // A tiny credit window with bursty traffic exercises queuing in the
    // outbox and the credit return path.
    let cfg = LiveConfig {
        window: 2,
        credit_batch: 1,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(64, 4096)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..80u32 {
                let file = FileId((i + c * 11) % 64);
                let data = cluster.request((c % 4) as usize, file, T).expect("request");
                assert_eq!(data.len(), 4096);
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn tree_caching_and_sparse_loads_keep_cluster_consistent() {
    // 12 nodes: above FLAT_MAX_NODES, so caching broadcasts route over a
    // binomial tree (origin in the token's high bits, per-hop relays),
    // while load writes go to a random sample of 2 peers per period.
    let cfg = LiveConfig {
        nodes: 12,
        cache_bytes: 2 * 1024, // 2 files/node: most requests miss -> broadcasts
        disk_fixed: Duration::from_millis(1),
        load_write_period: 1,
        tree_caching: true,
        load_write_fanout: 2,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(128, 1024));
    // Two passes: the first spreads cache insertions (tree broadcasts),
    // the second is served from caches found via the relayed state.
    for pass in 0..2 {
        for f in 0..64u32 {
            let node = ((f + pass) % 12) as usize;
            let data = cluster.request(node, FileId(f), T).expect("request");
            assert_eq!(data, file_contents(FileId(f), 1024), "file {f} pass {pass}");
        }
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.caching_msgs) > 0,
        "tree broadcasts must still emit caching messages"
    );
    assert!(
        ServerStats::get(&stats.rdma_load_writes) > 0,
        "sparse fanout must still write load tables"
    );
    cluster.shutdown();
}

//! Fault injection against the live threaded cluster: node crashes,
//! fail-silent hangs, recovery, and injected VIA transport failures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use press_core::{BreakerConfig, OverloadConfig};
use press_server::{file_contents, FaultPlan, LiveCluster, LiveConfig, ServerStats};
use press_trace::{FileCatalog, FileId};

const T: Duration = Duration::from_secs(20);

fn catalog(files: usize, bytes: u64) -> FileCatalog {
    FileCatalog::from_sizes(vec![bytes; files])
}

/// The node a file is hash-placed on at startup (must match
/// `LiveCluster::start`'s prefill).
fn placement(file: u32, nodes: usize) -> usize {
    ((file as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nodes
}

fn fast_recovery() -> LiveConfig {
    LiveConfig {
        retry_timeout: Duration::from_millis(20),
        max_retries: 2,
        ..LiveConfig::default()
    }
}

#[test]
fn peer_crash_mid_run_completes_and_shuts_down_cleanly() {
    let cluster = LiveCluster::start(fast_recovery(), catalog(64, 1024));
    for f in 0..32u32 {
        let data = cluster
            .request(f as usize % 4, FileId(f), T)
            .expect("pre-crash");
        assert_eq!(data, file_contents(FileId(f), 1024));
    }
    cluster.crash_node(1);
    assert!(!cluster.is_live(1));
    assert_eq!(cluster.membership_epoch(), 1);
    // The survivors keep serving every file — including requests
    // addressed to the dead node (redirected) and files only the dead
    // node cached (failed over to local disk).
    for f in 0..64u32 {
        let data = cluster
            .request(f as usize % 4, FileId(f), T)
            .expect("post-crash");
        assert_eq!(data, file_contents(FileId(f), 1024), "file {f} after crash");
    }
    // A dead peer must not wedge shutdown.
    let start = Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with a dead peer",
        start.elapsed()
    );
}

#[test]
fn hung_peer_is_detected_through_timeouts() {
    let cluster = LiveCluster::start(fast_recovery(), catalog(64, 1024));
    // A file served only by node 1; requesting it at node 0 forwards.
    let file = (0..64u32)
        .find(|&f| placement(f, 4) == 1)
        .expect("some file on node 1");
    // Fail-silent: node 1 drops traffic but stays in the membership, so
    // the forward goes to it and only the per-request timeout saves us.
    cluster.hang_node(1);
    let data = cluster
        .request(0, FileId(file), T)
        .expect("hung-target request");
    assert_eq!(data, file_contents(FileId(file), 1024));
    let stats = cluster.stats();
    // The request was retransmitted (backoff) and finally failed over to
    // the initial node's disk.
    assert!(
        ServerStats::get(&stats.retries) >= 1,
        "no retries against the hung peer"
    );
    assert!(
        ServerStats::get(&stats.failovers) >= 1,
        "request never failed over locally"
    );
    cluster.shutdown();
}

#[test]
fn open_breaker_diverts_forwards_away_from_a_hung_peer() {
    let retry_timeout = Duration::from_millis(100);
    let cfg = LiveConfig {
        retry_timeout,
        max_retries: 2,
        overload: OverloadConfig {
            // One deadline miss opens a breaker, and it stays open for
            // the rest of the test.
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown_micros: 60_000_000,
            },
            ..OverloadConfig::protective()
        },
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, catalog(64, 1024));
    let stats = cluster.stats();
    let mut on_node1 = (0..64u32).filter(|&f| placement(f, 4) == 1);
    cluster.hang_node(1);
    // Node-1 files requested at node 0 forward to the hung peer until a
    // deadline miss opens node 0's breaker for it.
    while ServerStats::get(&stats.retries) + ServerStats::get(&stats.failovers) == 0 {
        let f = on_node1.next().expect("a node-1 file left to request");
        let data = cluster
            .request(0, FileId(f), T)
            .expect("hung-target request");
        assert_eq!(data, file_contents(FileId(f), 1024));
    }
    // The next node-1 file is diverted at decision time: no other node
    // caches it, so node 0 serves it without waiting on the hung peer.
    let f = on_node1.next().expect("a second node-1 file");
    let start = Instant::now();
    let data = cluster.request(0, FileId(f), T).expect("diverted request");
    let took = start.elapsed();
    assert_eq!(data, file_contents(FileId(f), 1024));
    assert!(
        ServerStats::get(&stats.breaker_diverts) >= 1,
        "no diversion"
    );
    assert!(
        took < retry_timeout,
        "diverted request took {took:?}, as if it waited on the hung peer"
    );
    cluster.shutdown();
}

#[test]
fn crashed_node_recovers_and_serves_again() {
    let cluster = LiveCluster::start(fast_recovery(), catalog(64, 1024));
    for f in 0..32u32 {
        cluster.request(f as usize % 4, FileId(f), T).expect("warm");
    }
    cluster.crash_node(2);
    for f in 0..32u32 {
        let data = cluster
            .request(f as usize % 4, FileId(f), T)
            .expect("degraded");
        assert_eq!(data, file_contents(FileId(f), 1024));
    }
    cluster.recover_node(2);
    assert!(cluster.is_live(2));
    assert_eq!(cluster.membership_epoch(), 2);
    // The recovered node answers client requests directly again (cold
    // cache: it may go to disk, but it must answer).
    for f in 0..64u32 {
        let data = cluster.request(2, FileId(f), T).expect("post-recovery");
        assert_eq!(
            data,
            file_contents(FileId(f), 1024),
            "file {f} via recovered node"
        );
    }
    cluster.shutdown();
}

#[test]
fn fault_plan_drives_crash_and_recovery() {
    // The plan's triggers are in total completed requests, applied by the
    // monitor thread — the same schedule shape the simulator consumes.
    let cfg = LiveConfig {
        faults: Some(FaultPlan::crashes_only(9, Vec::new()).with_crash(1, 100, Some(200))),
        ..fast_recovery()
    };
    let cluster = LiveCluster::start(cfg, catalog(64, 1024));
    for i in 0..400u32 {
        let f = FileId(i % 64);
        let data = cluster
            .request(i as usize % 4, f, T)
            .expect("request under fault plan");
        assert_eq!(data, file_contents(f, 1024), "request {i}");
    }
    // Crash and recovery both happened, and the node ended alive.
    assert_eq!(cluster.membership_epoch(), 2);
    assert!(cluster.is_live(1));
    cluster.shutdown();
}

#[test]
fn injected_transport_failures_are_absorbed() {
    // Probabilistic send/RDMA failures on every NIC: messages vanish with
    // error-status completions, and the retry machinery keeps every
    // client request whole.
    let cfg = LiveConfig {
        retry_timeout: Duration::from_millis(15),
        max_retries: 2,
        faults: Some(FaultPlan {
            seed: 31,
            corrupt_probability: 0.10,
            ..FaultPlan::none()
        }),
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, catalog(64, 1024));
    for i in 0..100u32 {
        let f = FileId(i % 64);
        let data = cluster
            .request(i as usize % 4, f, T)
            .expect("request under loss");
        assert_eq!(data, file_contents(f, 1024), "request {i}");
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.via_errors) > 0,
        "injection produced no error completions"
    );
    cluster.shutdown();
}

#[test]
fn a_disk_read_in_flight_at_a_crash_completes_into_the_void() {
    // A crash loses the node's in-flight reads, as in the simulator: a
    // node that recovers before such a read would have ended neither
    // caches the file nor announces it to its peers.
    let fixed = Duration::from_millis(50);
    let cfg = LiveConfig {
        disk_fixed: fixed,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, catalog(64, 1024));
    let file = FileId(5);
    // Nobody caches the file any more: node 0 reads it from its disk.
    cluster.update_file(file);
    let stats = cluster.stats();
    let reads = ServerStats::get(&stats.disk_reads);
    let caching = ServerStats::get(&stats.caching_msgs);
    std::thread::scope(|s| {
        let client = s.spawn(|| cluster.request(0, file, T));
        let start = Instant::now();
        while ServerStats::get(&stats.disk_reads) == reads {
            assert!(start.elapsed() < fixed, "the read was never queued");
            std::thread::yield_now();
        }
        cluster.crash_node(0);
        cluster.recover_node(0);
        assert!(
            client.join().expect("client").is_err(),
            "the crash answered the request"
        );
        assert!(start.elapsed() < fixed, "recovered only after the read");
    });
    std::thread::sleep(3 * fixed);
    assert_eq!(
        ServerStats::get(&stats.caching_msgs),
        caching,
        "the recovered node announced a read lost in its crash"
    );
    // Node 0 did not cache the file: serving it again takes a new read.
    let data = cluster.request(0, file, T).expect("after recovery");
    assert_eq!(data, file_contents(file, 1024));
    assert_eq!(ServerStats::get(&stats.disk_reads), reads + 2);
    cluster.shutdown();
}

#[test]
fn recovery_under_load_loses_no_forward() {
    // Recovery queues the peer resets and `Recover` on the nodes' event
    // channels before the node turns reachable again, and every message
    // decoded after that must be handled after them. A forward reaching
    // the recovering node before its `Recover` would be dropped; a reply
    // leaving a busy peer before its reset would be thrown away, or
    // overrun the window. Clients stop before each crash, so nothing is
    // in flight when a node goes down, and any retry, error or wrong
    // byte afterwards comes from the recovery itself. Many short cycles:
    // each recovery is one chance to catch a misordered message.
    const CLIENTS: usize = 4;
    let files = 128u32;
    let cluster = LiveCluster::start(LiveConfig::default(), catalog(files as usize, 1024));
    for cycle in 0..40usize {
        let victim = cycle % 4;
        cluster.crash_node(victim);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (cluster, stop) = (&cluster, &stop);
                s.spawn(move || {
                    let mut i = 0u32;
                    // ordering: Relaxed — a stop flag; the scope's join
                    // orders everything that matters.
                    while !stop.load(Ordering::Relaxed) {
                        let file = FileId((i * 13 + c as u32 * 29) % files);
                        let node = (i as usize + c) % 4;
                        let data = cluster.request(node, file, T).unwrap_or_else(|e| {
                            panic!("cycle {cycle} client {c} request {i}: {e}")
                        });
                        assert_eq!(
                            data,
                            file_contents(file, 1024),
                            "cycle {cycle} client {c} request {i} corrupt"
                        );
                        i += 1;
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(5));
            cluster.recover_node(victim);
            std::thread::sleep(Duration::from_millis(30));
            stop.store(true, Ordering::Relaxed);
        });
    }
    let stats = cluster.stats();
    assert_eq!(ServerStats::get(&stats.retries), 0, "a forward was lost");
    assert_eq!(ServerStats::get(&stats.requests_lost), 0);
    assert_eq!(ServerStats::get(&stats.via_errors), 0);
    cluster.shutdown();
}

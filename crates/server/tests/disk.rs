//! The live disk as the simulator's single-server FIFO station. This
//! test has its own binary: it bounds wall-clock lateness by one main-loop
//! tick, so no sibling test may load the host while it runs.

use std::time::Duration;

use press_server::{file_contents, LiveCluster, LiveConfig};
use press_telem::{EventKind, LiveTracer};
use press_trace::{FileCatalog, FileId};

#[test]
fn disk_reads_queued_at_once_complete_one_service_time_apart() {
    // k misses queued together at `t0` complete at `t0 + i * service`
    // (i = 1..k), each within one tick of the main loop. The node's own
    // `DiskRead` spans give `t0` (the first read's enqueue) and each
    // completion, so client wake-ups do not count.
    const K: u32 = 4;
    let bytes = 1024;
    let cfg = LiveConfig {
        disk_fixed: Duration::from_millis(20),
        ..LiveConfig::default()
    };
    let service = cfg.disk_fixed + Duration::from_secs_f64(bytes as f64 / cfg.disk_bytes_per_sec);
    let tick = Duration::from_millis(1);
    let wait = Duration::from_secs(5);
    let catalog = FileCatalog::from_sizes(vec![bytes; 16]);
    let cluster = LiveCluster::start_with_tracer(cfg, catalog, Some(LiveTracer::new()));
    // Nobody caches the files any more, so node 0 reads each from its own
    // disk.
    for f in 0..K {
        cluster.update_file(FileId(f));
    }
    std::thread::scope(|s| {
        for f in 0..K {
            let cluster = &cluster;
            s.spawn(move || {
                let data = cluster.request(0, FileId(f), wait).expect("read");
                assert_eq!(data, file_contents(FileId(f), bytes as usize));
            });
        }
    });
    let trace = cluster.shutdown_traced().expect("tracer was installed");
    let reads: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::DiskRead && e.node == 0)
        .collect();
    assert_eq!(reads.len(), K as usize, "one read per file");
    let t0 = reads.iter().map(|e| e.ts_ns).min().expect("reads");
    let last = reads.iter().map(|e| e.ts_ns).max().expect("reads");
    let queued = Duration::from_nanos(last - t0);
    assert!(queued < service, "reads queued {queued:?} apart");
    let mut done: Vec<Duration> = reads
        .iter()
        .map(|e| Duration::from_nanos(e.ts_ns + e.dur_ns - t0))
        .collect();
    done.sort_unstable();
    for (i, took) in done.iter().enumerate() {
        let due = service * (i as u32 + 1);
        assert!(
            *took >= due && *took < due + tick,
            "read {i} completed after {took:?}, due at {due:?}"
        );
    }
}

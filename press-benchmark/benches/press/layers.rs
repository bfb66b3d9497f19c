//! Per-layer measurements taken from outside the program: microbenchmarks
//! of single layers through their public APIs, and metrics derived from
//! a traced run's events.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use press_collect::{Topology, TreeView};
use press_sim::{Scheduler, SimTime};
use press_telem::{attribute_trace, summarize, EventKind, Trace, TraceEvent, BUCKETS};
use press_via::{
    Descriptor, Doorbell, Fabric, Nic, Reliability, RemoteBuffer, SgList, SlabPool, Vi,
};

use crate::report::{ns_per_op, percentile, Report};

/// Timed batches per microbenchmark (after one discarded batch).
const BATCHES: usize = 7;
/// Event-queue depth of the scheduler microbenchmark.
const DEPTH: usize = 4096;
/// Cluster size of the tree microbenchmark.
const TREE_NODES: u16 = 64;
/// Payload of the VIA microbenchmarks.
const MSG: usize = 1024;
/// Gathered metadata segment and burst length of the doorbell path.
const META: usize = 32;
const BURST: usize = 64;
const DOORBELL_BATCH: usize = 8;
const WAIT: Duration = Duration::from_secs(5);

/// Operations per batch: `full` at a 20 s run, scaled with `--seconds`.
fn ops(full: usize, seconds: f64) -> usize {
    ((full as f64 * seconds / 20.0) as usize)
        .max(full / 20)
        .max(1)
}

/// Runs every microbenchmark and records its median nanoseconds per
/// operation.
pub fn microbenchmarks(seconds: f64, r: &mut Report) {
    let n = ops(400_000, seconds);
    r.metric("sim.sched_pair_ns", sched_pair_ns(n), "ns");
    let n = ops(200_000, seconds);
    r.metric("collect.tree_hop_ns", tree_hop_ns(n), "ns");
    let n = ops(10_000, seconds);
    r.metric("via.send_recv_ns", Link::new().send_recv_ns(n), "ns");
    let (ns, landed) = Link::new().rdma_write_ns(n);
    r.metric("via.rdma_write_ns", ns, "ns");
    r.check("RDMA payload landed in the peer region", landed);
    let n = ops(400, seconds);
    r.metric("via.doorbell_msg_ns", Link::new().doorbell_msg_ns(n), "ns");
    r.note(format!(
        "microbenchmarks: median of {BATCHES} batches each (one discarded warm-up batch)"
    ));
}

/// One `pop` plus one `schedule` on a `Scheduler<u64>` held at a steady
/// depth, the shape the simulator drives.
fn sched_pair_ns(ops: usize) -> f64 {
    let mut s: Scheduler<u64> = Scheduler::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..DEPTH {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        s.schedule(SimTime::from_nanos((x >> 33) % 1_000_000), i as u64);
    }
    ns_per_op(BATCHES, ops, |n| {
        for _ in 0..n {
            let (t, e) = s.pop().expect("the queue stays at its depth");
            s.schedule(t + SimTime::from_nanos(1 + e % 997), black_box(e));
        }
    })
}

/// One relay hop of a tree broadcast: rebuild the binomial tree over a
/// fully live 64-node mask and list this node's children.
fn tree_hop_ns(ops: usize) -> f64 {
    let full = (1u128 << TREE_NODES) - 1;
    ns_per_op(BATCHES, ops, |n| {
        for i in 0..n {
            let origin = (i % TREE_NODES as usize) as u16;
            let me = ((i * 37 + 5) % TREE_NODES as usize) as u16;
            let tree = TreeView::build(Topology::Binomial, black_box(origin), full, TREE_NODES);
            black_box(tree.children(me));
        }
    })
}

/// A connected VI pair on a private fabric. The NICs must outlive the VIs
/// (dropping a NIC stops its engine).
struct Link {
    tx_nic: Nic,
    rx_nic: Nic,
    tx: Vi,
    rx: Vi,
}

impl Link {
    fn new() -> Link {
        let fabric = Fabric::new();
        let tx_nic = fabric.create_nic("bench-tx");
        let rx_nic = fabric.create_nic("bench-rx");
        let (tx, rx) = fabric
            .connect(&tx_nic, &rx_nic, Reliability::ReliableDelivery)
            .expect("connect the benchmark VIs");
        Link {
            tx_nic,
            rx_nic,
            tx,
            rx,
        }
    }

    /// Two-sided: post a 1 KiB send, wait for the peer's receive
    /// completion, repost the receive, reap the send completion.
    fn send_recv_ns(&self, ops: usize) -> f64 {
        let src = self
            .tx_nic
            .register(vec![0xA5; MSG], false)
            .expect("register send buffer");
        let dst = self
            .rx_nic
            .register(vec![0; MSG], false)
            .expect("register receive buffer");
        self.rx
            .post_recv(Descriptor::new(dst, 0, MSG))
            .expect("post receive");
        ns_per_op(BATCHES, ops, |n| {
            for _ in 0..n {
                self.tx
                    .post_send(Descriptor::new(src, 0, MSG))
                    .expect("post send");
                let c = self.rx.wait_recv_completion(WAIT).expect("receive");
                self.rx.post_recv(c.descriptor).expect("repost receive");
                self.tx.wait_send_completion(WAIT).expect("send completion");
            }
        })
    }

    /// One-sided: a 1 KiB remote write until its send completion. Also
    /// reports whether the payload reached the peer's region.
    fn rdma_write_ns(&self, ops: usize) -> (f64, bool) {
        let payload = vec![0x3C; MSG];
        let src = self
            .tx_nic
            .register(payload.clone(), false)
            .expect("register source buffer");
        let dst = self
            .rx_nic
            .register(vec![0; MSG], true)
            .expect("register remote-writable buffer");
        let remote = RemoteBuffer {
            region: dst,
            offset: 0,
        };
        let mut all_ok = true;
        let ns = ns_per_op(BATCHES, ops, |n| {
            for _ in 0..n {
                self.tx
                    .rdma_write(Descriptor::new(src, 0, MSG), remote)
                    .expect("post remote write");
                let c = self
                    .tx
                    .wait_send_completion(WAIT)
                    .expect("write completion");
                all_ok &= c.is_ok();
            }
        });
        let landed = self.rx_nic.read_region(dst, 0, MSG).ok() == Some(payload);
        (ns, all_ok && landed)
    }

    /// The V6 fast path per message of a 64-message burst: claim a slab
    /// slot, fill it, gather it with a metadata segment, stage it on a
    /// doorbell of 8; then ring, retire every slot on its send
    /// completion, and repost every receive.
    fn doorbell_msg_ns(&self, bursts: usize) -> f64 {
        let payload = vec![0xA5; MSG];
        let slot_bytes = MSG + META;
        let pool = self
            .tx_nic
            .register_slab(2 * BURST, MSG, false)
            .expect("register slab");
        let meta = self
            .tx_nic
            .register(vec![0x5A; BURST * META], false)
            .expect("register metadata");
        let rx_region = self
            .rx_nic
            .register(vec![0; BURST * slot_bytes], false)
            .expect("register receive region");
        for i in 0..BURST {
            self.rx
                .post_recv(Descriptor::new(rx_region, i * slot_bytes, slot_bytes))
                .expect("post receive");
        }
        let mut bell = Doorbell::new(self.tx.clone(), DOORBELL_BATCH, Duration::from_millis(1));
        let per_burst = ns_per_op(BATCHES, bursts, |n| {
            for _ in 0..n {
                for i in 0..BURST {
                    let sg = self.stage(&pool, &payload, Descriptor::new(meta, i * META, META));
                    bell.post_sg(sg).expect("stage send");
                }
                bell.flush().expect("ring the doorbell");
                for _ in 0..BURST {
                    let c = self.tx.wait_send_completion(WAIT).expect("send completion");
                    let slot = pool.slot_at(c.descriptor.offset).expect("slab offset");
                    pool.mark_complete(slot)
                        .and_then(|()| pool.free(slot))
                        .expect("retire slab slot");
                }
                for _ in 0..BURST {
                    let c = self.rx.wait_recv_completion(WAIT).expect("receive");
                    self.rx.post_recv(c.descriptor).expect("repost receive");
                }
            }
        });
        per_burst / BURST as f64
    }

    fn stage(&self, pool: &SlabPool, payload: &[u8], meta: Descriptor) -> SgList {
        let slot = pool.alloc().expect("free slab slot");
        self.tx_nic
            .write_region(pool.handle(), slot.offset, payload)
            .expect("fill slab slot");
        let mut sg = SgList::new();
        sg.push(pool.descriptor(slot, MSG).expect("slot segment"))
            .and_then(|()| sg.push(meta))
            .expect("two segments fit");
        pool.mark_in_flight(slot).expect("mark in flight");
        sg
    }
}

/// Attribution, request-path gaps and trace health from one traced run.
/// `overhead_pct` is the traced run's extra per-request time.
pub fn trace_metrics(trace: &Trace, overhead_pct: f64, r: &mut Report) {
    let t = Instant::now();
    let attrs = attribute_trace(trace);
    let attribute_ns = t.elapsed().as_nanos() as f64 / attrs.len().max(1) as f64;
    let s = summarize(&attrs);
    r.metric("core.attr.total_us", s.mean_total_ns as f64 / 1e3, "us");
    r.check("the trace attributes requests", s.requests > 0);
    // The bucket shares are notes, not metrics: on the live workloads
    // every bucket but `dispatch` is 0 by construction (the live engine
    // records instants only).
    let charged = s.mean_ns.iter().sum::<u64>().max(1) as f64;
    let shares: Vec<String> = BUCKETS
        .iter()
        .map(|&b| {
            let pct = 100.0 * s.mean_ns[b as usize] as f64 / charged;
            format!("{} {pct:.1}%", b.name())
        })
        .collect();
    r.note(format!(
        "attribution: {} requests ({} forwarded); share of the mean: {}",
        s.requests,
        s.forwarded,
        shares.join(", ")
    ));

    let gaps = request_gaps(trace);
    for (name, samples) in [
        ("arrive_dispatch", &gaps.arrive_dispatch),
        ("forward_hop", &gaps.forward_hop),
        ("reply_path", &gaps.reply_path),
    ] {
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        r.check(format!("the trace has {name} samples"), !sorted.is_empty());
        let (p50, p99) = if sorted.is_empty() {
            (0, 0)
        } else {
            (percentile(&sorted, 0.50), percentile(&sorted, 0.99))
        };
        r.metric(format!("server.{name}_p50_ns"), p50 as f64, "ns");
        r.metric(format!("server.{name}_p99_ns"), p99 as f64, "ns");
        r.note(format!("{name}: {} samples", sorted.len()));
    }

    r.metric("telem.trace_overhead_pct", overhead_pct, "%");
    r.check("the trace dropped no events", trace.dropped() == 0);
    r.metric("telem.attribute_ns_per_req", attribute_ns, "ns");
}

/// Per-request gaps between the lifecycle instants both engines record:
/// `Arrive` → first `Dispatch` on the initial node; for forwarded
/// requests, `Dispatch` → `CacheHit` on the service node, and that
/// `CacheHit` → `Done` back on the initial node.
struct Gaps {
    arrive_dispatch: Vec<u64>,
    forward_hop: Vec<u64>,
    reply_path: Vec<u64>,
}

fn request_gaps(trace: &Trace) -> Gaps {
    let mut by_req: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in trace.events().iter().filter(|e| e.req != 0) {
        by_req.entry(e.req).or_default().push(e);
    }
    let mut g = Gaps {
        arrive_dispatch: Vec::new(),
        forward_hop: Vec::new(),
        reply_path: Vec::new(),
    };
    for events in by_req.values() {
        let Some(arrive) = events.iter().find(|e| e.kind == EventKind::Arrive) else {
            continue;
        };
        // The first `kind` event at or after `after`, on the initial node
        // (`at_origin`) or on another node.
        let next = |kind: EventKind, after: u64, at_origin: bool| {
            events.iter().find(|e| {
                e.kind == kind && e.ts_ns >= after && (e.node == arrive.node) == at_origin
            })
        };
        let Some(dispatch) = next(EventKind::Dispatch, arrive.ts_ns, true) else {
            continue;
        };
        g.arrive_dispatch.push(dispatch.ts_ns - arrive.ts_ns);
        if dispatch.a != 1 {
            continue;
        }
        let Some(hit) = next(EventKind::CacheHit, dispatch.ts_ns, false) else {
            continue;
        };
        let Some(done) = next(EventKind::Done, hit.ts_ns, true) else {
            continue;
        };
        g.forward_hop.push(hit.ts_ns - dispatch.ts_ns);
        g.reply_path.push(done.ts_ns - hit.ts_ns);
    }
    g
}

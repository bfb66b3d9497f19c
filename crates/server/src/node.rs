//! The per-node threads of the live server, mirroring Figure 2 of the
//! paper: a non-blocking main thread, helper threads for sending and
//! receiving intra-cluster messages, and a disk thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use press_cluster::{FileCache, NodeId};
use press_collect::{sample_peers, select_topology, DetRng, TreeView};
use press_core::{
    decide, decorrelated_jitter_micros, CircuitBreaker, Decision, OverloadConfig, PolicyConfig,
    RequestView,
};
use press_telem::{EventKind, TraceHandle};
use press_trace::{FileCatalog, FileId};
use press_via::{
    CompletionKind, CompletionQueue, Descriptor, Doorbell, MemHandle, Nic, RemoteBuffer, SlabPool,
    Vi, ViaError,
};
use std::collections::HashMap;

use crate::membership::Membership;
use crate::stats::ServerStats;
use crate::wire::{
    decode_ring_trailer, encode_ring_slot, file_contents, WireKind, WireMsg, HEADER_BYTES,
    RING_TRAILER_BYTES,
};

/// How file data travels back from the service node to the initial node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileTransferMode {
    /// Regular VIA send/receive: the receiver's posted descriptor
    /// completes and wakes the receive thread (versions V0–V2).
    Regular,
    /// Remote memory writes into per-pair circular buffers (versions
    /// V3–V6). The main thread consumes them by polling the sequence
    /// numbers at the end of each loop pass; a landed write wakes a
    /// parked main thread through the ring's write hook, so a reply
    /// never waits for a timer.
    RemoteWrite,
}

/// What a node sends back on a request's reply channel: the file bytes,
/// or an explicit rejection (backpressure made visible to the client
/// rather than silently queueing into an ever-deeper backlog).
#[derive(Debug)]
pub(crate) enum Reply {
    Data(Vec<u8>),
    Shed,
}

/// Events delivered to a node's main thread.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// A client request arrived at this (initial) node.
    Client {
        file: FileId,
        reply: Sender<Reply>,
        /// The client's latency budget; overload protection sheds the
        /// request when the budget cannot cover the modeled service time.
        deadline: Option<Instant>,
    },
    /// A mid-run content update: every cached copy of `file` is stale and
    /// must be discarded (re-read from disk on next access).
    Invalidate { file: FileId },
    /// The receive thread decoded an intra-cluster message.
    Remote { from: usize, msg: WireMsg },
    /// The disk thread finished reading `file`.
    DiskDone { file: FileId },
    /// A remote write landed in one of this node's file rings. Only a
    /// wake-up: the ring poll at the end of every loop pass consumes it.
    RingWrite,
    /// Fault injection: this node crashes. In-flight state is lost and
    /// events are discarded until [`NodeEvent::Recover`].
    Crash,
    /// Fault injection: a crashed node rejoins with a cold cache.
    Recover,
    /// Stop the main loop.
    Shutdown,
}

/// Jobs for a node's send thread.
#[derive(Debug)]
pub(crate) enum SendJob {
    /// Transmit a message; `needs_credit` messages respect the window.
    Msg {
        to: usize,
        msg: WireMsg,
        needs_credit: bool,
    },
    /// The receive thread observed returned credits from `from`.
    Credits { from: usize, n: u32 },
    /// RDMA-write our current load into every peer's load table.
    RdmaLoad { load: u32 },
    /// A peer crashed or rejoined: restore its credit window to full and
    /// discard messages queued toward it (they would be stale on arrival).
    ResetPeer { peer: usize },
    /// Stop the send loop.
    Shutdown,
}

/// Everything a node's threads share.
pub(crate) struct NodeCtx {
    pub id: usize,
    pub nodes: usize,
    pub nic: Arc<Nic>,
    /// `vis[peer]` — the VI to each peer (None for self).
    pub vis: Vec<Option<Vi>>,
    /// Map from a VI's fabric id to the peer index (receive demux).
    pub vi_peers: HashMap<u64, usize>,
    /// Per-peer send region (window * slot_bytes).
    pub send_regions: Vec<Option<MemHandle>>,
    /// Per-peer region for flow-control sends (window small slots); flow
    /// messages bypass the credit window, so they get their own slots to
    /// avoid overwriting in-flight data messages.
    pub flow_regions: Vec<Option<MemHandle>>,
    /// This node's RDMA-writable load table (4 bytes per node).
    pub load_region: MemHandle,
    /// Every peer's load-table handle (for RDMA writes).
    pub peer_load_regions: Vec<MemHandle>,
    /// Scratch region for RDMA load writes.
    pub scratch_region: MemHandle,
    /// V6 fast path: the lock-free slab pool every outgoing message is
    /// staged in (None for V0–V5, which rotate through per-peer slots).
    pub send_pool: Option<Arc<SlabPool>>,
    /// Descriptors coalesced per doorbell ring; 1 disables the fast path.
    pub doorbell_batch: u32,
    /// How file data is transferred.
    pub file_mode: FileTransferMode,
    /// This node's inbound file rings, one per source peer
    /// (window slots of `ring_slot_bytes`); None in Regular mode.
    pub own_rings: Vec<Option<MemHandle>>,
    /// Every peer's inbound ring for data *we* send them.
    pub peer_rings: Vec<Option<MemHandle>>,
    /// Ring slot size: max payload + trailer.
    pub ring_slot_bytes: usize,
    pub window: u32,
    pub credit_batch: u32,
    pub slot_bytes: usize,
    pub stats: Arc<ServerStats>,
    pub shutdown: Arc<AtomicBool>,
    /// Cluster-wide view of which nodes are alive.
    pub membership: Arc<Membership>,
    /// This node's crash switch: while set, the receive thread drops all
    /// traffic on the floor (the node is unreachable, like a dead host).
    pub dead: Arc<AtomicBool>,
    /// Main-thread telemetry handle (wall-clock spans); None when tracing
    /// is off, leaving the hot path a single branch.
    pub trace: Option<TraceHandle>,
    /// Sparse load dissemination: RDMA-write the periodic load update to
    /// only this many sampled live peers (0 = all live peers).
    pub load_write_fanout: u32,
    /// Set by the file rings' write hook while a `RingWrite` is queued,
    /// so a burst of writes queues one event; cleared by the main loop
    /// just before it polls the rings.
    pub ring_write_pending: Arc<AtomicBool>,
}

/// The write hook installed on each of a node's file rings: a landed
/// write queues one [`NodeEvent::RingWrite`] unless one is already
/// pending.
pub(crate) fn ring_write_hook(
    pending: Arc<AtomicBool>,
    events: Sender<NodeEvent>,
) -> Arc<dyn Fn() + Send + Sync> {
    Arc::new(move || {
        // The swap reads the latest value, so a write that lands after
        // the main loop's clear always queues a fresh wake-up.
        // ordering: Release — publishes the landed ring bytes to the
        // main loop's Acquire swap that clears the flag.
        if !pending.swap(true, Ordering::Release) {
            let _ = events.send(NodeEvent::RingWrite);
        }
    })
}

impl NodeCtx {
    /// Records one instant request-lifecycle event when tracing is on,
    /// returning its span id (0 when tracing is off) for causal chaining.
    fn trace_event(&self, kind: EventKind, req: u64, a: u64, b: u64) -> u32 {
        self.trace_event_in(kind, req, a, b, 0)
    }

    /// As [`NodeCtx::trace_event`], with an explicit causal parent — the
    /// receive side of a message stitches to the sender's span via the
    /// wire-carried `(token, parent_span)` context.
    fn trace_event_in(&self, kind: EventKind, req: u64, a: u64, b: u64, parent: u32) -> u32 {
        match &self.trace {
            Some(t) => t.instant_in(kind, req, a, b, parent),
            None => 0,
        }
    }
}

/// Per-node policy/runtime configuration shared by the main loop.
pub(crate) struct MainConfig {
    pub catalog: Arc<FileCatalog>,
    pub cache_bytes: u64,
    pub policy: PolicyConfig,
    /// Write the load table after this many main-loop events.
    pub load_write_period: u32,
    pub disk_tx: Sender<(FileId, u64)>,
    /// Base deadline for a forwarded request's reply; later attempts walk
    /// a decorrelated-jitter schedule in `[base, 8 * base]` before the
    /// request is re-routed or failed over.
    pub retry_timeout: Duration,
    /// Retries before a forwarded request falls back to local service.
    pub max_retries: u32,
    /// Overload protection: admission bound, deadline shedding, per-peer
    /// circuit breakers. Disabled leaves every path identical to pre-
    /// protection builds.
    pub overload: OverloadConfig,
    /// Seed of the retry-backoff jitter stream (the fault plan's seed, so
    /// both engines draw the same schedule for the same token).
    pub jitter_seed: u64,
    /// Fan caching broadcasts out along a collective tree over the
    /// membership bitmask instead of the flat per-peer loop.
    pub tree_caching: bool,
}

/// What to do when a disk read completes. Each waiter carries the trace
/// request id and causal parent span so the completion events stitch to
/// the request chain that queued the read.
enum DiskWaiter {
    ReplyLocal {
        reply: Sender<Reply>,
        treq: u64,
        parent: u32,
    },
    SendBack {
        to: usize,
        token: u64,
        parent: u32,
    },
}

/// One file's outstanding disk read plus everyone waiting on it.
struct DiskWait {
    /// Tracer nanoseconds when the read was queued (0 when tracing off).
    start_ns: u64,
    /// Trace request id / causal parent of the waiter that triggered the
    /// read (later waiters piggy-back on the same platter access).
    req: u64,
    parent: u32,
    waiters: Vec<DiskWaiter>,
}

/// A forwarded request awaiting its file data, with the recovery state
/// needed to re-route it if the service node stops answering.
struct Pending {
    reply: Sender<Reply>,
    file: FileId,
    /// The peer currently expected to answer.
    target: usize,
    /// How many times this request has been re-forwarded.
    attempt: u32,
    /// When to give up on `target` and retry elsewhere.
    deadline: Instant,
    /// Stable trace request id: retries mint fresh wire tokens, but the
    /// request's spans all carry the id assigned at client arrival.
    trace_req: u64,
}

/// Seeded decorrelated-jitter backoff (mirrors the simulator's
/// `FaultPlan::backoff_micros`): attempt 0 waits the base timeout, later
/// attempts walk a per-token random schedule in `[base, 8 * base]`, which
/// desynchronizes the retry storms a shared exponential schedule causes.
fn retry_deadline(now: Instant, base: Duration, seed: u64, token: u64, attempt: u32) -> Instant {
    let micros = decorrelated_jitter_micros(seed, token, base.as_micros() as u64, attempt);
    now + Duration::from_micros(micros)
}

/// Whether a breaker table admits sends to `peer` (an empty table — the
/// protection-off configuration — admits everything).
fn breaker_allows(breakers: &[CircuitBreaker], peer: usize, now_micros: u64) -> bool {
    breakers.is_empty() || breakers[peer].allow(now_micros)
}

/// The main thread: parses requests, decides locally-vs-forward, tracks
/// pending forwards, and never blocks on communication (helper threads do).
pub(crate) fn main_loop(
    ctx: Arc<NodeCtx>,
    cfg: MainConfig,
    events: Receiver<NodeEvent>,
    send_tx: Sender<SendJob>,
    prefill: Vec<(FileId, u64)>,
    initial_cachers: Vec<u128>,
) {
    let mut cache = FileCache::new(cfg.cache_bytes);
    for &(file, size) in &prefill {
        cache.insert(file, size);
    }
    let mut cachers = initial_cachers;
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut waiting_disk: HashMap<FileId, DiskWait> = HashMap::new();
    let mut load: u32 = 0;
    let mut next_token: u64 = (ctx.id as u64) << 48 | 1;
    let mut events_since_load_write = 0u32;
    // Set while fault injection has this node down: every event except
    // Recover/Shutdown is discarded, like a host that stopped executing.
    let mut crashed = false;
    // Peer loads as last observed; refreshed from the RDMA region.
    let mut loads = vec![0u32; ctx.nodes];
    // Per-peer circuit breakers (empty when overload protection is off,
    // so the protection-off build never touches them). Breaker time is
    // micros since the loop started — monotonic, per-node, and never
    // compared across nodes.
    let t0 = Instant::now();
    let mut breakers: Vec<CircuitBreaker> = if cfg.overload.enabled {
        vec![CircuitBreaker::new(cfg.overload.breaker); ctx.nodes]
    } else {
        Vec::new()
    };

    // Loads are read on every dispatch, into one buffer allocated here.
    let mut load_bytes = vec![0u8; 4 * ctx.nodes];
    let mut read_loads = |own: u32, loads: &mut Vec<u32>| {
        if ctx
            .nic
            .read_region_into(ctx.load_region, 0, &mut load_bytes)
            .is_ok()
        {
            for (i, chunk) in load_bytes.chunks_exact(4).enumerate() {
                loads[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        loads[ctx.id] = own;
    };

    let mut ring_expected = vec![1u64; ctx.nodes];
    let mut ring_consumed = vec![0u32; ctx.nodes];
    // The tick only bounds how late a retry deadline is noticed. Nothing
    // else waits for it: every message, disk completion and landed ring
    // write arrives as an event.
    let tick = Duration::from_millis(1);
    loop {
        let event = match events.recv_timeout(tick) {
            Ok(ev) => Some(ev),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
            Err(_) => break,
        };
        // A ring wake-up only runs the ring poll. It does not advance the
        // load-write cadence, so load writes per request do not depend on
        // how many wake-ups the replies raised.
        let got_event = event
            .as_ref()
            .is_some_and(|ev| !matches!(ev, NodeEvent::RingWrite));
        if let Some(event) = event {
            match event {
                NodeEvent::Shutdown => break,
                NodeEvent::Crash => {
                    if !crashed {
                        crashed = true;
                        // Everything in flight on this host is gone.
                        let lost = pending.len()
                            // press::allow(hash-iter): commutative sum —
                            // the visit order cannot reach the total.
                            + waiting_disk.values().map(|w| w.waiters.len()).sum::<usize>();
                        ServerStats::add(&ctx.stats.requests_lost, lost as u64);
                        pending.clear();
                        waiting_disk.clear();
                        // A restarted host comes back with a cold cache,
                        // and no longer serves the files it used to hold.
                        cache = FileCache::new(cfg.cache_bytes);
                        let bit = 1u128 << ctx.id;
                        for c in cachers.iter_mut() {
                            *c &= !bit;
                        }
                        load = 0;
                    }
                }
                NodeEvent::Recover => {
                    crashed = false;
                }
                NodeEvent::RingWrite => {}
                _ if crashed => {
                    // A dead host executes nothing. Client requests routed
                    // here before the membership change are lost (their
                    // reply channel drops).
                    if matches!(event, NodeEvent::Client { .. }) {
                        ServerStats::bump(&ctx.stats.requests_lost);
                    }
                }
                NodeEvent::Client {
                    file,
                    reply,
                    deadline,
                } => {
                    let ov = &cfg.overload;
                    let admission_full =
                        ov.enabled && ov.admission_limit > 0 && load >= ov.admission_limit;
                    // A request whose remaining budget cannot cover even
                    // the modeled service time is rejected now, while it
                    // is cheap, rather than after consuming resources.
                    let hopeless = !admission_full
                        && ov.enabled
                        && deadline.is_some_and(|dl| {
                            let est = if cache.contains(file) {
                                Duration::ZERO
                            } else {
                                Duration::from_micros(ov.service_estimate_micros)
                            };
                            Instant::now() + est > dl
                        });
                    if admission_full || hopeless {
                        ServerStats::bump(if admission_full {
                            &ctx.stats.shed_admission
                        } else {
                            &ctx.stats.shed_deadline
                        });
                        let _ = reply.send(Reply::Shed);
                    } else {
                        load += 1;
                        let bytes = cfg.catalog.size(file);
                        // Every admitted request gets a token: forwards use
                        // it on the wire, and it keys the request's trace
                        // spans on every node it touches.
                        let treq = next_token;
                        next_token += 1;
                        let arrive_span =
                            ctx.trace_event(EventKind::Arrive, treq, file.0 as u64, bytes);
                        read_loads(load, &mut loads);
                        // Crashed peers drop out of the candidate set the
                        // moment the membership view changes, whatever the
                        // dissemination strategy populated `cachers` with.
                        let cacher_list: Vec<NodeId> = (0..ctx.nodes as u16)
                            .filter(|&i| {
                                cachers[file.0 as usize] & (1 << i) != 0
                                    && ctx.membership.is_live(i as usize)
                            })
                            .map(NodeId)
                            .collect();
                        let mut decision = decide(
                            &cfg.policy,
                            &RequestView {
                                initial: NodeId(ctx.id as u16),
                                file_bytes: bytes,
                                cached_locally: cache.contains(file),
                                first_request: cachers[file.0 as usize] == 0,
                                cachers: &cacher_list,
                                loads: &loads,
                                load_balancing: true,
                            },
                        );
                        if let Decision::Forward(target) = decision {
                            let t = target.0 as usize;
                            let now_us = t0.elapsed().as_micros() as u64;
                            if !breaker_allows(&breakers, t, now_us) {
                                // The breaker says this peer stopped
                                // answering: steer to the best admissible
                                // alternative cacher, or absorb the work
                                // locally rather than feed a black hole.
                                ServerStats::bump(&ctx.stats.breaker_diverts);
                                decision = cacher_list
                                    .iter()
                                    .filter(|c| {
                                        let i = c.0 as usize;
                                        i != t
                                            && i != ctx.id
                                            && breaker_allows(&breakers, i, now_us)
                                    })
                                    .min_by_key(|c| (loads[c.0 as usize], c.0))
                                    .map_or(Decision::ServeLocal, |&c| Decision::Forward(c));
                            }
                        }
                        match decision {
                            Decision::ServeLocal => {
                                let disp = ctx.trace_event_in(
                                    EventKind::Dispatch,
                                    treq,
                                    0,
                                    ctx.id as u64,
                                    arrive_span,
                                );
                                if cache.touch(file) {
                                    let hit = ctx.trace_event_in(
                                        EventKind::CacheHit,
                                        treq,
                                        file.0 as u64,
                                        bytes,
                                        disp,
                                    );
                                    send_reply(&ctx.stats, &reply, file, bytes);
                                    ctx.trace_event_in(
                                        EventKind::Done,
                                        treq,
                                        file.0 as u64,
                                        bytes,
                                        hit,
                                    );
                                    load = load.saturating_sub(1);
                                } else {
                                    enqueue_disk(
                                        &cfg,
                                        &ctx,
                                        &mut waiting_disk,
                                        file,
                                        bytes,
                                        treq,
                                        disp,
                                        DiskWaiter::ReplyLocal {
                                            reply,
                                            treq,
                                            parent: disp,
                                        },
                                    );
                                }
                            }
                            Decision::Forward(target) => {
                                let disp = ctx.trace_event_in(
                                    EventKind::Dispatch,
                                    treq,
                                    1,
                                    target.0 as u64,
                                    arrive_span,
                                );
                                // The token minted at arrival doubles as
                                // the first attempt's wire token.
                                let token = treq;
                                let send_span = ctx.trace_event_in(
                                    EventKind::ViaSend,
                                    treq,
                                    bytes,
                                    target.0 as u64,
                                    disp,
                                );
                                pending.insert(
                                    token,
                                    Pending {
                                        reply,
                                        file,
                                        target: target.0 as usize,
                                        attempt: 0,
                                        deadline: retry_deadline(
                                            Instant::now(),
                                            cfg.retry_timeout,
                                            cfg.jitter_seed,
                                            token,
                                            0,
                                        ),
                                        trace_req: treq,
                                    },
                                );
                                if !breakers.is_empty() {
                                    breakers[target.0 as usize]
                                        .on_send(t0.elapsed().as_micros() as u64);
                                }
                                ServerStats::bump(&ctx.stats.forward_msgs);
                                ServerStats::bump(&ctx.stats.forwarded);
                                let _ = send_tx.send(SendJob::Msg {
                                    to: target.0 as usize,
                                    msg: WireMsg {
                                        kind: WireKind::Forward,
                                        file,
                                        token,
                                        sender_load: load,
                                        parent_span: send_span,
                                        payload: Vec::new(),
                                    },
                                    needs_credit: true,
                                });
                            }
                        }
                    }
                }
                NodeEvent::Invalidate { file } => {
                    // The old bytes are stale everywhere: drop our cached
                    // copy and forget who else held one (their copies are
                    // being dropped by the same broadcast).
                    if cache.remove(file) {
                        ServerStats::bump(&ctx.stats.invalidations);
                    }
                    cachers[file.0 as usize] = 0;
                }
                NodeEvent::Remote { from, msg } => {
                    // Piggy-backed load keeps our view of the sender fresh
                    // even between RDMA load writes.
                    loads[from] = msg.sender_load;
                    match msg.kind {
                        WireKind::Forward => {
                            let file = msg.file;
                            let bytes = cfg.catalog.size(file);
                            // Stitch to the origin's ViaSend span via the
                            // message's wire-carried causal context.
                            let recv = ctx.trace_event_in(
                                EventKind::ViaRecv,
                                msg.token,
                                file.0 as u64,
                                from as u64,
                                msg.parent_span,
                            );
                            if cache.touch(file) {
                                let hit = ctx.trace_event_in(
                                    EventKind::CacheHit,
                                    msg.token,
                                    file.0 as u64,
                                    bytes,
                                    recv,
                                );
                                send_file_back(
                                    &ctx, &send_tx, from, msg.token, file, bytes, load, hit,
                                );
                            } else {
                                enqueue_disk(
                                    &cfg,
                                    &ctx,
                                    &mut waiting_disk,
                                    file,
                                    bytes,
                                    msg.token,
                                    recv,
                                    DiskWaiter::SendBack {
                                        to: from,
                                        token: msg.token,
                                        parent: recv,
                                    },
                                );
                            }
                        }
                        WireKind::FileData => {
                            // Replies to retried tokens already removed
                            // from `pending` (first answer won) fall
                            // through harmlessly.
                            if let Some(p) = pending.remove(&msg.token) {
                                if !breakers.is_empty() {
                                    breakers[p.target].record_success();
                                }
                                let bytes = p.file.0 as u64;
                                let recv = ctx.trace_event_in(
                                    EventKind::ViaRecv,
                                    p.trace_req,
                                    bytes,
                                    from as u64,
                                    msg.parent_span,
                                );
                                let _ = p.reply.send(Reply::Data(msg.payload));
                                // The forwarded request is no longer open
                                // on this node; without this the load
                                // counter (and the admission bound fed by
                                // it) ratchets upward forever.
                                load = load.saturating_sub(1);
                                ctx.trace_event_in(EventKind::Done, p.trace_req, bytes, 0, recv);
                            }
                        }
                        WireKind::Caching => {
                            // Low byte: 0 = now caches, 1 = evicted. High
                            // bits: origin+1 when tree-routed (0 = legacy
                            // flat send, where the sender IS the origin).
                            let action = msg.token & 0xFF;
                            let origin_enc = msg.token >> 8;
                            let origin = if origin_enc == 0 {
                                from
                            } else {
                                (origin_enc - 1) as usize
                            };
                            let bit = 1u128 << origin;
                            if action == 0 {
                                cachers[msg.file.0 as usize] |= bit;
                            } else {
                                cachers[msg.file.0 as usize] &= !bit;
                            }
                            if origin_enc != 0 {
                                tree_caching_fanout(
                                    &ctx,
                                    &send_tx,
                                    msg.file,
                                    msg.token,
                                    msg.sender_load,
                                    origin,
                                );
                            }
                        }
                        // Flow is consumed by the receive thread.
                        WireKind::Flow => {}
                    }
                }
                NodeEvent::DiskDone { file } => {
                    let bytes = cfg.catalog.size(file);
                    let wait = waiting_disk.remove(&file);
                    // Charge the whole disk residency (enqueue to
                    // completion) as one span on the request that caused
                    // the read; piggy-backed waiters chain off it too.
                    if let (Some(t), Some(w)) = (&ctx.trace, &wait) {
                        t.span_in(
                            w.start_ns,
                            EventKind::DiskRead,
                            w.req,
                            file.0 as u64,
                            bytes,
                            w.parent,
                        );
                    }
                    // Cache the file and broadcast the caching information
                    // (insertion plus any evictions), as in Section 2.2.
                    let evicted = cache.insert(file, bytes);
                    let bit = 1u128 << ctx.id;
                    cachers[file.0 as usize] |= bit;
                    broadcast_caching(&ctx, &send_tx, file, 0, load, cfg.tree_caching);
                    for ev in evicted {
                        cachers[ev.0 as usize] &= !bit;
                        broadcast_caching(&ctx, &send_tx, ev, 1, load, cfg.tree_caching);
                    }
                    for waiter in wait.map(|w| w.waiters).unwrap_or_default() {
                        match waiter {
                            DiskWaiter::ReplyLocal {
                                reply,
                                treq,
                                parent,
                            } => {
                                send_reply(&ctx.stats, &reply, file, bytes);
                                load = load.saturating_sub(1);
                                ctx.trace_event_in(
                                    EventKind::Done,
                                    treq,
                                    file.0 as u64,
                                    bytes,
                                    parent,
                                );
                            }
                            DiskWaiter::SendBack { to, token, parent } => {
                                send_file_back(
                                    &ctx, &send_tx, to, token, file, bytes, load, parent,
                                );
                            }
                        }
                    }
                }
            }
        }
        // Poll the RMW file rings at the end of the main server loop, as
        // in the paper: consume every entry whose sequence number landed.
        // A crashed node still advances sequence numbers (entries vanish
        // into the dead host) so the rings stay aligned for recovery, but
        // it returns no credits and completes nothing.
        if ctx.file_mode == FileTransferMode::RemoteWrite {
            // Clear the wake flag before polling: any write that lands
            // after this finds it clear and queues a fresh `RingWrite`.
            // ordering: Acquire — pairs with `ring_write_hook`'s Release
            // swap, so every write whose hook saw the flag set is visible.
            ctx.ring_write_pending.swap(false, Ordering::Acquire);
            poll_file_rings(
                &ctx,
                &send_tx,
                &mut ring_expected,
                &mut ring_consumed,
                &mut pending,
                &mut breakers,
                &mut load,
                crashed,
            );
        }
        // Forwarded requests whose service node stopped answering: retry
        // against the next-best live cacher with exponential backoff, then
        // fall back to local service.
        if !pending.is_empty() && !crashed {
            let now = Instant::now();
            let mut expired: Vec<u64> = pending
                // press::allow(hash-iter): sorted below — tokens are
                // issued monotonically, so retries run in arrival order
                // regardless of hash order.
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&t, _)| t)
                .collect();
            expired.sort_unstable();
            let now_us = t0.elapsed().as_micros() as u64;
            for token in expired {
                let Some(p) = pending.remove(&token) else {
                    continue;
                };
                // A missed deadline is the breaker's failure signal:
                // enough of them in a row opens the peer's breaker and
                // new forwards steer around it until a probe succeeds.
                if !breakers.is_empty() && p.target != ctx.id {
                    breakers[p.target].record_failure(now_us);
                }
                let mut candidates: Vec<usize> = (0..ctx.nodes)
                    .filter(|&i| {
                        i != ctx.id
                            && i != p.target
                            && cachers[p.file.0 as usize] & (1 << i) != 0
                            && ctx.membership.is_live(i)
                            && breaker_allows(&breakers, i, now_us)
                    })
                    .collect();
                // No alternative cacher, but the target still looks
                // alive: the *message* may have been lost rather than the
                // node — retransmit to the same peer (backoff rising)
                // until retries run out or the membership evicts it.
                if candidates.is_empty()
                    && p.target != ctx.id
                    && ctx.membership.is_live(p.target)
                    && breaker_allows(&breakers, p.target, now_us)
                {
                    candidates.push(p.target);
                }
                let bytes = cfg.catalog.size(p.file);
                if p.attempt >= cfg.max_retries || candidates.is_empty() {
                    // Out of options elsewhere: serve from our own cache
                    // or disk so the client still gets an answer.
                    ServerStats::bump(&ctx.stats.failovers);
                    let fo = ctx.trace_event(
                        EventKind::Failover,
                        p.trace_req,
                        p.file.0 as u64,
                        p.attempt as u64,
                    );
                    if cache.touch(p.file) {
                        send_reply(&ctx.stats, &p.reply, p.file, bytes);
                        load = load.saturating_sub(1);
                        ctx.trace_event_in(
                            EventKind::Done,
                            p.trace_req,
                            p.file.0 as u64,
                            bytes,
                            fo,
                        );
                    } else {
                        enqueue_disk(
                            &cfg,
                            &ctx,
                            &mut waiting_disk,
                            p.file,
                            bytes,
                            p.trace_req,
                            fo,
                            DiskWaiter::ReplyLocal {
                                reply: p.reply,
                                treq: p.trace_req,
                                parent: fo,
                            },
                        );
                    }
                } else {
                    ServerStats::bump(&ctx.stats.retries);
                    read_loads(load, &mut loads);
                    // `candidates` was checked nonempty above, but a
                    // panic here would take the whole node down — fall
                    // back to the original target instead.
                    let target = candidates
                        .into_iter()
                        .min_by_key(|&i| (loads[i], i))
                        .unwrap_or(p.target);
                    let attempt = p.attempt + 1;
                    let token = next_token;
                    next_token += 1;
                    // The wire token changes on retry, but the trace
                    // request id stays stable so all attempts stitch into
                    // one causal chain.
                    let retry_span = ctx.trace_event(
                        EventKind::Retry,
                        p.trace_req,
                        attempt as u64,
                        target as u64,
                    );
                    let send_span = ctx.trace_event_in(
                        EventKind::ViaSend,
                        p.trace_req,
                        0,
                        target as u64,
                        retry_span,
                    );
                    pending.insert(
                        token,
                        Pending {
                            reply: p.reply,
                            file: p.file,
                            target,
                            attempt,
                            deadline: retry_deadline(
                                now,
                                cfg.retry_timeout,
                                cfg.jitter_seed,
                                token,
                                attempt,
                            ),
                            trace_req: p.trace_req,
                        },
                    );
                    if !breakers.is_empty() {
                        breakers[target].on_send(now_us);
                    }
                    ServerStats::bump(&ctx.stats.forward_msgs);
                    let _ = send_tx.send(SendJob::Msg {
                        to: target,
                        msg: WireMsg {
                            kind: WireKind::Forward,
                            file: p.file,
                            token,
                            sender_load: load,
                            parent_span: send_span,
                            payload: Vec::new(),
                        },
                        needs_credit: true,
                    });
                }
            }
        }
        // Periodic load dissemination through remote memory writes: no
        // receiver involvement, overwritable — the paper's ideal use.
        if got_event && !crashed {
            events_since_load_write += 1;
            if events_since_load_write >= cfg.load_write_period {
                events_since_load_write = 0;
                let _ = send_tx.send(SendJob::RdmaLoad { load });
            }
        }
    }
}

/// Drains every inbound file ring: reads the sequence number at each
/// slot's last bytes, and when the next expected number has landed,
/// consumes the entry (completing the pending client request) and
/// returns credits in batches. This is PRESS's version-3 receive path —
/// no receive-thread involvement; the rings' write hook only wakes the
/// main loop so that this poll runs.
#[allow(clippy::too_many_arguments)]
fn poll_file_rings(
    ctx: &NodeCtx,
    send_tx: &Sender<SendJob>,
    expected: &mut [u64],
    consumed: &mut [u32],
    pending: &mut HashMap<u64, Pending>,
    breakers: &mut [CircuitBreaker],
    load: &mut u32,
    crashed: bool,
) {
    for src in 0..ctx.nodes {
        let Some(ring) = ctx.own_rings[src] else {
            continue;
        };
        loop {
            let slot = ((expected[src] - 1) % ctx.window as u64) as usize;
            let trailer_off = slot * ctx.ring_slot_bytes + ctx.ring_slot_bytes - RING_TRAILER_BYTES;
            let mut trailer = [0u8; RING_TRAILER_BYTES];
            if ctx
                .nic
                .read_region_into(ring, trailer_off, &mut trailer)
                .is_err()
            {
                break;
            }
            let Some((len, token, parent, seq)) = decode_ring_trailer(&trailer) else {
                break;
            };
            if seq != expected[src] {
                break;
            }
            expected[src] += 1;
            if crashed {
                // Sequence advances, data is lost, no credits flow back:
                // the sender sees a peer that stopped consuming.
                consumed[src] = 0;
                continue;
            }
            let Ok(payload) = ctx.nic.read_region(ring, slot * ctx.ring_slot_bytes, len) else {
                ServerStats::bump(&ctx.stats.via_errors);
                continue;
            };
            if let Some(p) = pending.remove(&token) {
                if !breakers.is_empty() {
                    breakers[p.target].record_success();
                }
                // The ring trailer carried the remote sender's span id:
                // stitch the zero-copy arrival into the causal chain.
                let recv = ctx.trace_event_in(
                    EventKind::ViaRecv,
                    p.trace_req,
                    len as u64,
                    src as u64,
                    parent,
                );
                let _ = p.reply.send(Reply::Data(payload));
                // Forward completed: close it out of the load counter.
                *load = (*load).saturating_sub(1);
                ctx.trace_event_in(EventKind::Done, p.trace_req, len as u64, 0, recv);
            }
            consumed[src] += 1;
            if consumed[src] >= ctx.credit_batch {
                let n = consumed[src];
                consumed[src] = 0;
                ServerStats::bump(&ctx.stats.flow_msgs);
                let _ = send_tx.send(SendJob::Msg {
                    to: src,
                    msg: WireMsg {
                        kind: WireKind::Flow,
                        file: FileId(0),
                        token: n as u64,
                        sender_load: 0,
                        parent_span: 0,
                        payload: Vec::new(),
                    },
                    needs_credit: false,
                });
            }
        }
    }
}

fn send_reply(stats: &ServerStats, reply: &Sender<Reply>, file: FileId, bytes: u64) {
    ServerStats::bump(&stats.served_local);
    let _ = reply.send(Reply::Data(file_contents(file, bytes as usize)));
}

/// Queues a waiter on an in-flight (or newly issued) disk read. The
/// first waiter for a file actually issues the read and owns the trace
/// context the eventual `DiskRead` span is charged to; later waiters
/// piggy-back on that read (and chain their own completion events off
/// the same span).
#[allow(clippy::too_many_arguments)]
fn enqueue_disk(
    cfg: &MainConfig,
    ctx: &NodeCtx,
    waiting: &mut HashMap<FileId, DiskWait>,
    file: FileId,
    bytes: u64,
    treq: u64,
    parent: u32,
    waiter: DiskWaiter,
) {
    use std::collections::hash_map::Entry;
    match waiting.entry(file) {
        Entry::Occupied(mut e) => e.get_mut().waiters.push(waiter),
        Entry::Vacant(e) => {
            e.insert(DiskWait {
                start_ns: ctx.trace.as_ref().map(|t| t.now_ns()).unwrap_or(0),
                req: treq,
                parent,
                waiters: vec![waiter],
            });
            ServerStats::bump(&ctx.stats.disk_reads);
            let _ = cfg.disk_tx.send((file, bytes));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn send_file_back(
    ctx: &NodeCtx,
    send_tx: &Sender<SendJob>,
    to: usize,
    token: u64,
    file: FileId,
    bytes: u64,
    load: u32,
    parent: u32,
) {
    ServerStats::bump(&ctx.stats.file_msgs);
    // The send span becomes the wire-carried causal context, so the
    // origin's ViaRecv stitches straight onto this node's chain.
    let send_span = ctx.trace_event_in(EventKind::ViaSend, token, bytes, to as u64, parent);
    let _ = send_tx.send(SendJob::Msg {
        to,
        msg: WireMsg {
            kind: WireKind::FileData,
            file,
            token,
            sender_load: load,
            parent_span: send_span,
            payload: file_contents(file, bytes as usize),
        },
        needs_credit: true,
    });
}

fn broadcast_caching(
    ctx: &NodeCtx,
    send_tx: &Sender<SendJob>,
    file: FileId,
    action: u64,
    load: u32,
    tree: bool,
) {
    if tree {
        // The origin rides in the token's high bits (action stays in the
        // low byte), so relays can rebuild the same tree: the wire format
        // is unchanged, legacy receivers see origin 0 == "the sender".
        let token = action | ((ctx.id as u64 + 1) << 8);
        tree_caching_fanout(ctx, send_tx, file, token, load, ctx.id);
    } else {
        for peer in 0..ctx.nodes {
            if peer == ctx.id || !ctx.membership.is_live(peer) {
                continue;
            }
            ServerStats::bump(&ctx.stats.caching_msgs);
            let _ = send_tx.send(SendJob::Msg {
                to: peer,
                msg: WireMsg {
                    kind: WireKind::Caching,
                    file,
                    token: action,
                    sender_load: load,
                    parent_span: 0,
                    payload: Vec::new(),
                },
                needs_credit: true,
            });
        }
    }
}

/// Sends a (possibly relayed) tree-routed Caching message to this node's
/// children in the dissemination tree rooted at `origin`, rebuilt from
/// the *current* membership snapshot — so a crash or rejoin between hops
/// re-routes the rest of the broadcast (epoch-aware repair), with no
/// repair protocol. The credit window applies per hop, exactly as for
/// flat sends.
fn tree_caching_fanout(
    ctx: &NodeCtx,
    send_tx: &Sender<SendJob>,
    file: FileId,
    token: u64,
    load: u32,
    origin: usize,
) {
    let (_, mask) = ctx.membership.snapshot();
    let topo = select_topology(mask.count_ones(), 0);
    let tree = TreeView::build(topo, origin as u16, mask as u128, ctx.nodes as u16);
    let children = tree.children(ctx.id as u16);
    if children.is_empty() {
        return;
    }
    ctx.trace_event(
        EventKind::TreeRelay,
        0,
        origin as u64,
        children.len() as u64,
    );
    for c in children {
        ServerStats::bump(&ctx.stats.caching_msgs);
        let _ = send_tx.send(SendJob::Msg {
            to: c as usize,
            msg: WireMsg {
                kind: WireKind::Caching,
                file,
                token,
                sender_load: load,
                parent_span: 0,
                payload: Vec::new(),
            },
            needs_credit: true,
        });
    }
}

/// The classic (V0–V5) post path: marshal into the per-peer rotating
/// slot region and post one descriptor per message.
///
/// In-flight safety: data messages are bounded by the credit window
/// (at most `window` unconsumed per peer, matching the `window` send
/// slots); flow messages self-limit to window/batch outstanding and
/// rotate through their own region.
/// Post failures (unregistered regions, torn-down VIs) lose the
/// message rather than killing the thread — the retry machinery in the
/// main loop recovers, just like it does for lost wire messages.
fn post_legacy(
    ctx: &NodeCtx,
    peer: usize,
    msg: &WireMsg,
    next_slot: &mut [usize],
    next_flow_slot: &mut [usize],
    buf: &mut [u8],
) {
    let len = msg.encode(buf);
    let (region, slot, slot_size) = if msg.kind == WireKind::Flow {
        let Some(region) = ctx.flow_regions[peer] else {
            ServerStats::bump(&ctx.stats.via_errors);
            return;
        };
        let slot = next_flow_slot[peer];
        next_flow_slot[peer] = (slot + 1) % ctx.window as usize;
        (region, slot, HEADER_BYTES)
    } else {
        let Some(region) = ctx.send_regions[peer] else {
            ServerStats::bump(&ctx.stats.via_errors);
            return;
        };
        let slot = next_slot[peer];
        next_slot[peer] = (slot + 1) % ctx.window as usize;
        (region, slot, ctx.slot_bytes)
    };
    let offset = slot * slot_size;
    if ctx.nic.write_region(region, offset, &buf[..len]).is_err() {
        ServerStats::bump(&ctx.stats.via_errors);
        return;
    }
    let posted = ctx.vis[peer]
        .as_ref()
        .map(|vi| vi.post_send(Descriptor::new(region, offset, len)));
    if !matches!(posted, Some(Ok(()))) {
        ServerStats::bump(&ctx.stats.via_errors);
    }
}

/// Flushes one peer's doorbell, surfacing failures as via_errors.
fn flush_bell(ctx: &NodeCtx, bell: &mut Option<Doorbell>) {
    if let Some(b) = bell {
        if b.flush().is_err() {
            ServerStats::bump(&ctx.stats.via_errors);
        }
    }
}

/// Stages one message on the V6 fast path: claim a slab slot, encode the
/// wire bytes straight into it, mark it in flight, and stage its
/// descriptor on the peer's doorbell. Flow messages (credit returns)
/// flush immediately so they are never delayed behind a partial batch.
/// The receive thread releases the slot when the send completion is
/// reaped ([`reap_slab`]).
fn slab_post(
    ctx: &NodeCtx,
    pool: &SlabPool,
    bell: &mut Doorbell,
    msg: &WireMsg,
    buf: &mut [u8],
) -> Result<(), ViaError> {
    let len = msg.encode(buf);
    let slot = pool.alloc()?;
    let desc = pool.descriptor(slot, len).and_then(|d| {
        ctx.nic
            .write_region(pool.handle(), slot.offset, &buf[..len])
            .map(|_| d)
    });
    let desc = match desc {
        Ok(d) => d,
        Err(e) => {
            let _ = pool.free(slot);
            return Err(e);
        }
    };
    // In flight *before* the doorbell: the batch threshold can flush the
    // staged list inside `post`, and the completion may race back to the
    // receive thread's reap before this thread runs again.
    let _ = pool.mark_in_flight(slot);
    if let Err(e) = bell.post(desc) {
        // Never reached the NIC; unwind the state machine and rejoin the
        // free list.
        let _ = pool.mark_complete(slot).and_then(|_| pool.free(slot));
        return Err(e);
    }
    if msg.kind == WireKind::Flow {
        bell.flush()?;
    }
    Ok(())
}

/// Posts one message: the V6 fast path when enabled (falling back to the
/// classic per-peer slot regions if the pool is momentarily exhausted),
/// the classic path otherwise.
#[allow(clippy::too_many_arguments)]
fn post_msg(
    ctx: &NodeCtx,
    bells: &mut [Option<Doorbell>],
    peer: usize,
    msg: &WireMsg,
    next_slot: &mut [usize],
    next_flow_slot: &mut [usize],
    buf: &mut [u8],
) {
    if let (Some(bell), Some(pool)) = (bells[peer].as_mut(), ctx.send_pool.as_deref()) {
        match slab_post(ctx, pool, bell, msg, buf) {
            Ok(()) => return,
            // Completions lagging behind the posting rate: fall back to
            // the classic slot regions rather than dropping the message.
            Err(ViaError::PoolExhausted) => {}
            Err(_) => {
                ServerStats::bump(&ctx.stats.via_errors);
                return;
            }
        }
        // The classic path bypasses the doorbell; flush staged traffic
        // first so per-VI ordering is preserved.
        flush_bell(ctx, &mut bells[peer]);
    }
    post_legacy(ctx, peer, msg, next_slot, next_flow_slot, buf);
}

/// Releases the slab slot behind a completed fast-path send. RDMA and
/// classic-region completions name a different region and fall through
/// untouched.
fn reap_slab(ctx: &NodeCtx, c: &press_via::Completion) {
    let Some(pool) = &ctx.send_pool else {
        return;
    };
    if c.descriptor.region != pool.handle() {
        return;
    }
    let freed = pool
        .slot_at(c.descriptor.offset)
        .and_then(|slot| pool.mark_complete(slot).map(|_| slot))
        .and_then(|slot| pool.free(slot));
    if freed.is_err() {
        ServerStats::bump(&ctx.stats.via_errors);
    }
}

/// The send thread (Figure 2): marshals messages into registered send
/// buffers and posts descriptors, respecting the per-peer credit window.
pub(crate) fn send_loop(ctx: Arc<NodeCtx>, jobs: Receiver<SendJob>) {
    let n = ctx.nodes;
    let mut credits = vec![ctx.window; n];
    let mut queued: Vec<std::collections::VecDeque<WireMsg>> =
        (0..n).map(|_| std::collections::VecDeque::new()).collect();
    let mut next_slot = vec![0usize; n];
    let mut next_flow_slot = vec![0usize; n];
    let mut next_ring_seq = vec![1u64; n];
    let mut buf = vec![0u8; ctx.slot_bytes.max(ctx.ring_slot_bytes)];
    // Sparse load dissemination: deterministic per-node stream, so a
    // given (seed, fanout) config replays the same peer samples.
    let mut load_rng = DetRng::new(0x10AD_u64 ^ ctx.id as u64);

    // V6 fast path: one doorbell per peer coalescing descriptor posts,
    // fed from the shared slab pool. All None when doorbell_batch is 1,
    // leaving the V0–V5 path byte-for-byte untouched. No staleness bound:
    // the loop below drains on idle and never calls `flush_stale`.
    let mut bells: Vec<Option<Doorbell>> = (0..n)
        .map(|peer| {
            (ctx.doorbell_batch > 1)
                .then(|| ctx.vis[peer].clone())
                .flatten()
                .map(|vi| Doorbell::new(vi, ctx.doorbell_batch as usize, Duration::MAX))
        })
        .collect();

    loop {
        // Drain-on-idle batching: ring every staged doorbell before
        // blocking, so a batch only coalesces messages that were already
        // queued and a lone message never waits for a later one.
        if jobs.is_empty() {
            for bell in bells.iter_mut() {
                flush_bell(&ctx, bell);
            }
        }
        let Ok(job) = jobs.recv() else { break };
        match job {
            SendJob::Shutdown => break,
            SendJob::Msg {
                to,
                msg,
                needs_credit,
            } => {
                if needs_credit {
                    if credits[to] == 0 {
                        // Credit stall: push staged traffic out now, or
                        // the peer can never consume it and return the
                        // credits this queue is waiting on.
                        flush_bell(&ctx, &mut bells[to]);
                        queued[to].push_back(msg);
                        continue;
                    }
                    credits[to] -= 1;
                }
                if ctx.file_mode == FileTransferMode::RemoteWrite && msg.kind == WireKind::FileData
                {
                    // RDMA bypasses the doorbell; keep per-VI ordering.
                    flush_bell(&ctx, &mut bells[to]);
                    rmw_file(&ctx, to, &msg, &mut next_slot, &mut next_ring_seq, &mut buf);
                } else {
                    post_msg(
                        &ctx,
                        &mut bells,
                        to,
                        &msg,
                        &mut next_slot,
                        &mut next_flow_slot,
                        &mut buf,
                    );
                }
            }
            SendJob::Credits { from, n } => {
                // Clamp to the window: a stale credit return (consumed
                // before the peer crashed) arriving after a ResetPeer
                // repair must not push credits past the slot count, or
                // sends would overwrite unconsumed ring slots. Found by
                // press-analyze's credit-repair interleaving model.
                credits[from] = (credits[from] + n).min(ctx.window);
                while credits[from] > 0 {
                    match queued[from].pop_front() {
                        Some(msg) => {
                            credits[from] -= 1;
                            if ctx.file_mode == FileTransferMode::RemoteWrite
                                && msg.kind == WireKind::FileData
                            {
                                flush_bell(&ctx, &mut bells[from]);
                                rmw_file(
                                    &ctx,
                                    from,
                                    &msg,
                                    &mut next_slot,
                                    &mut next_ring_seq,
                                    &mut buf,
                                );
                            } else {
                                post_msg(
                                    &ctx,
                                    &mut bells,
                                    from,
                                    &msg,
                                    &mut next_slot,
                                    &mut next_flow_slot,
                                    &mut buf,
                                );
                            }
                        }
                        None => break,
                    }
                }
            }
            SendJob::RdmaLoad { load } => {
                if ctx
                    .nic
                    .write_region(ctx.scratch_region, 0, &load.to_le_bytes())
                    .is_err()
                {
                    ServerStats::bump(&ctx.stats.via_errors);
                    continue;
                }
                // Sparse mode: write the load to a random sample of live
                // peers instead of all of them (power-of-two-choices
                // reads tolerate stale views elsewhere). Fanout 0 keeps
                // the dense legacy behaviour.
                let sparse_targets = if ctx.load_write_fanout > 0 {
                    let (_, mask) = ctx.membership.snapshot();
                    Some(sample_peers(
                        &mut load_rng,
                        ctx.id as u16,
                        mask as u128,
                        ctx.nodes as u16,
                        ctx.load_write_fanout as usize,
                    ))
                } else {
                    None
                };
                for (peer, bell) in bells.iter_mut().enumerate() {
                    if peer == ctx.id || !ctx.membership.is_live(peer) {
                        continue;
                    }
                    if let Some(ts) = &sparse_targets {
                        if !ts.contains(&(peer as u16)) {
                            continue;
                        }
                    }
                    // RDMA bypasses the doorbell; keep per-VI ordering.
                    flush_bell(&ctx, bell);
                    ServerStats::bump(&ctx.stats.rdma_load_writes);
                    let posted = ctx.vis[peer].as_ref().map(|vi| {
                        vi.rdma_write(
                            Descriptor::new(ctx.scratch_region, 0, 4),
                            RemoteBuffer {
                                region: ctx.peer_load_regions[peer],
                                offset: 4 * ctx.id,
                            },
                        )
                    });
                    if !matches!(posted, Some(Ok(()))) {
                        ServerStats::bump(&ctx.stats.via_errors);
                    }
                }
            }
            SendJob::ResetPeer { peer } => {
                // The peer lost (or never saw) everything in flight: a
                // fresh credit window against its freshly reposted
                // descriptors, and nothing stale queued toward it. Staged
                // batches are flushed (not dropped) so their slab slots
                // still complete and return to the pool.
                flush_bell(&ctx, &mut bells[peer]);
                credits[peer] = ctx.window;
                queued[peer].clear();
            }
        }
    }
    // Drain whatever is still staged so no slab slot leaks its in-flight
    // mark across shutdown.
    for bell in bells.iter_mut() {
        flush_bell(&ctx, bell);
    }
}

/// Stages a file into the sender's send slot and remote-writes it into
/// the peer's inbound ring: one RDMA covering payload and trailer, with
/// the sequence number in the slot's last bytes (Section 3.4, version 3).
/// The credit window bounds in-flight entries to the ring capacity, so a
/// slot is never overwritten before the reader consumed it.
fn rmw_file(
    ctx: &NodeCtx,
    to: usize,
    msg: &WireMsg,
    next_slot: &mut [usize],
    next_ring_seq: &mut [u64],
    buf: &mut [u8],
) {
    let seq = next_ring_seq[to];
    next_ring_seq[to] += 1;
    let ring_slot = ((seq - 1) % ctx.window as u64) as usize;
    encode_ring_slot(
        buf,
        ctx.ring_slot_bytes,
        &msg.payload,
        msg.token,
        msg.parent_span,
        seq,
    );
    // Stage in our send region (the credit window keeps the slot live
    // until the reader consumed the previous occupant of the ring slot).
    let (Some(region), Some(peer_ring)) = (ctx.send_regions[to], ctx.peer_rings[to]) else {
        ServerStats::bump(&ctx.stats.via_errors);
        return;
    };
    let slot = next_slot[to];
    next_slot[to] = (slot + 1) % ctx.window as usize;
    let offset = slot * ctx.slot_bytes;
    if ctx
        .nic
        .write_region(region, offset, &buf[..ctx.ring_slot_bytes])
        .is_err()
    {
        ServerStats::bump(&ctx.stats.via_errors);
        return;
    }
    ServerStats::bump(&ctx.stats.rdma_file_writes);
    let posted = ctx.vis[to].as_ref().map(|vi| {
        vi.rdma_write(
            Descriptor::new(region, offset, ctx.ring_slot_bytes),
            RemoteBuffer {
                region: peer_ring,
                offset: ring_slot * ctx.ring_slot_bytes,
            },
        )
    });
    if !matches!(posted, Some(Ok(()))) {
        ServerStats::bump(&ctx.stats.via_errors);
    }
}

/// The receive thread (Figure 2): waits on the completion queue, decodes
/// arrivals, reposts descriptors, handles flow control, and hands digests
/// to the main thread.
pub(crate) fn recv_loop(
    ctx: Arc<NodeCtx>,
    cq: CompletionQueue,
    main_tx: Sender<NodeEvent>,
    send_tx: Sender<SendJob>,
) {
    let mut consumed = vec![0u32; ctx.nodes];
    loop {
        match cq.wait(Duration::from_millis(20)) {
            Err(_) => {
                // ordering: Acquire — pairs with shutdown's Release
                // store in `LiveCluster::shutdown`.
                if ctx.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(c) => {
                let Some(&peer) = ctx.vi_peers.get(&c.vi_id) else {
                    continue;
                };
                if c.status.is_err() {
                    // Injected transport failures and genuine VIA errors
                    // surface here; the message is gone, recovery is the
                    // sender's retry problem. Failed receive descriptors
                    // are consumed, so repost to keep the window intact;
                    // failed fast-path sends still release their slot.
                    ServerStats::bump(&ctx.stats.via_errors);
                    if c.kind == CompletionKind::Recv {
                        repost_recv(&ctx, peer, &c);
                    } else {
                        reap_slab(&ctx, &c);
                    }
                    continue;
                }
                // Send-side and RDMA completions need no further action —
                // except a fast-path send, whose slab slot the NIC owned
                // until this completion.
                if c.kind != CompletionKind::Recv {
                    reap_slab(&ctx, &c);
                    continue;
                }
                // ordering: Acquire — pairs with the Release stores in
                // crash/recover/hang so a flipped flag is seen before
                // any traffic sent after the transition.
                let dead = ctx.dead.load(Ordering::Acquire);
                let data = ctx
                    .nic
                    .read_region(c.descriptor.region, c.descriptor.offset, c.transferred)
                    .unwrap_or_default();
                // Repost the consumed descriptor immediately so the slot
                // can take another message (even while dead — a crashed
                // node must not exhaust its peers' descriptors when it
                // comes back).
                repost_recv(&ctx, peer, &c);
                if dead {
                    // Dead hosts receive nothing: no credits returned, no
                    // events forwarded. Senders time out and re-route.
                    consumed[peer] = 0;
                    continue;
                }
                if data.is_empty() && c.transferred > 0 {
                    ServerStats::bump(&ctx.stats.via_errors);
                    continue;
                }
                let Some(msg) = WireMsg::decode(&data) else {
                    continue; // malformed: drop, like a real server
                };
                if msg.kind == WireKind::Flow {
                    let _ = send_tx.send(SendJob::Credits {
                        from: peer,
                        n: msg.token as u32,
                    });
                    continue;
                }
                // Credit-consuming message: count toward a batch return.
                consumed[peer] += 1;
                if consumed[peer] >= ctx.credit_batch {
                    let n = consumed[peer];
                    consumed[peer] = 0;
                    ServerStats::bump(&ctx.stats.flow_msgs);
                    let _ = send_tx.send(SendJob::Msg {
                        to: peer,
                        msg: WireMsg {
                            kind: WireKind::Flow,
                            file: FileId(0),
                            token: n as u64,
                            sender_load: 0,
                            parent_span: 0,
                            payload: Vec::new(),
                        },
                        needs_credit: false,
                    });
                }
                let _ = main_tx.send(NodeEvent::Remote { from: peer, msg });
            }
        }
    }
}

/// Reposts a consumed receive descriptor at full slot size; a failure
/// costs one descriptor from the (slack-provisioned) pool, not the thread.
fn repost_recv(ctx: &NodeCtx, peer: usize, c: &press_via::Completion) {
    let posted = ctx.vis[peer].as_ref().map(|vi| {
        vi.post_recv(Descriptor::new(
            c.descriptor.region,
            c.descriptor.offset,
            ctx.slot_bytes,
        ))
    });
    if !matches!(posted, Some(Ok(()))) {
        ServerStats::bump(&ctx.stats.via_errors);
    }
}

/// The disk thread: sleeps for the modeled access time, then notifies the
/// main thread. Uses a scaled-down latency so tests stay fast while
/// preserving the "disk is slow" ordering.
pub(crate) fn disk_loop(
    jobs: Receiver<(FileId, u64)>,
    main_tx: Sender<NodeEvent>,
    fixed: Duration,
    bytes_per_sec: f64,
) {
    while let Ok((file, bytes)) = jobs.recv() {
        let transfer = Duration::from_secs_f64(bytes as f64 / bytes_per_sec);
        std::thread::sleep(fixed + transfer);
        if main_tx.send(NodeEvent::DiskDone { file }).is_err() {
            break;
        }
    }
}

/// Upper bound on wire size for a file of `bytes` (header + payload).
pub(crate) fn slot_bytes_for(max_file_bytes: u64) -> usize {
    HEADER_BYTES + max_file_bytes as usize
}

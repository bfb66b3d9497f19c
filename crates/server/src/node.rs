//! The one host thread of a live node: a non-blocking main thread that
//! also posts to its VIs, drains its own completion queue and runs its
//! disk as a timed FIFO queue ([`Disk`]). Figure 2's send, receive and
//! disk helper threads are folded into it (the crate docs say why). A
//! peer's post, which runs its transfer on the peer's main thread, wakes
//! a parked main thread through [`wake_hook`].
//!
//! The main thread's state is one [`NodeState`], with one method per
//! event. Each request path is written once: `forward` sends every
//! attempt of a forwarded request, `serve_local` answers from the cache
//! or queues a disk read (for a local client, a failover, or a peer's
//! forward), and `complete_forward` finishes a forward whether its data
//! came as a message or in a file ring. Every attempt's `Retry` or
//! `Failover` chains to the previous attempt's send, so a request's
//! causal chain reaches back to its `Arrive`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use press_cluster::{FileCache, NodeId};
use press_collect::{sample_peers, select_topology, DetRng, TreeView};
use press_core::policy::{self, view_load};
use press_core::{
    decide, decorrelated_jitter_micros, CircuitBreaker, CreditReturns, CreditWindow, Decision,
    OverloadConfig, PolicyConfig, RequestView,
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
    /// completes and wakes the main thread through its completion queue
    /// (versions V0–V2).
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
        reply: SyncSender<Reply>,
        /// The client's latency budget; overload protection sheds the
        /// request when the budget cannot cover the modeled service time.
        deadline: Option<Instant>,
    },
    /// A mid-run content update: every cached copy of `file` is stale and
    /// must be discarded (re-read from disk on next access).
    Invalidate { file: FileId },
    /// The completion-queue drain decoded an intra-cluster message.
    Remote { from: usize, msg: WireMsg },
    /// A completion was queued on this node's completion queue, or a
    /// remote write landed in one of its file rings. Only a wake-up: the
    /// drain and ring poll at the end of every loop pass consume it.
    Wake,
    /// A peer crashed or rejoined: restore its credit window to full and
    /// discard messages queued toward it (they would be stale on
    /// arrival). Applied as soon as the main loop reads it off the
    /// channel, even while this node is crashed, so every message decoded
    /// after it already sees the fresh window.
    ResetPeer { peer: usize },
    /// Fault injection: this node crashes. In-flight state is lost and
    /// events are discarded until [`NodeEvent::Recover`].
    Crash,
    /// Fault injection: a crashed node rejoins with a cold cache.
    Recover,
    /// Stop the main loop.
    Shutdown,
}

impl NodeEvent {
    /// Whether this is a reply to one of our forwards: file data from
    /// the service node.
    fn is_reply(&self) -> bool {
        matches!(self, NodeEvent::Remote { msg, .. } if msg.kind == WireKind::FileData)
    }
}

/// A node's VIA resources and fixed configuration.
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
    /// Cluster-wide view of which nodes are alive.
    pub membership: Arc<Membership>,
    /// This node's crash switch: while set, its completion-queue drain
    /// drops all traffic (the node is unreachable, like a dead host).
    pub dead: Arc<AtomicBool>,
    /// Main-thread telemetry handle (wall-clock spans); None when tracing
    /// is off, leaving the hot path a single branch.
    pub trace: Option<TraceHandle>,
    /// Sparse load dissemination: RDMA-write the periodic load update to
    /// only this many sampled live peers (0 = all live peers).
    pub load_write_fanout: u32,
    /// Set by [`wake_hook`] while a `Wake` is queued, so a burst queues
    /// one event; cleared by the main loop before each drain.
    pub wake_pending: Arc<AtomicBool>,
}

/// The wake hook installed on a node's completion queue and on each of
/// its file rings: a queued completion or landed write queues one
/// [`NodeEvent::Wake`] unless one is already pending. It runs inside the
/// post that delivered the completion or write, usually on a peer's main
/// thread, and never blocks it: the event channel is unbounded.
pub(crate) fn wake_hook(
    pending: Arc<AtomicBool>,
    events: Sender<NodeEvent>,
) -> Arc<dyn Fn() + Send + Sync> {
    Arc::new(move || {
        // The swap reads the latest value, so a completion or write
        // after the main loop's clear always queues a fresh wake-up.
        // ordering: Release — publishes the queued completion or landed
        // ring bytes to the main loop's Acquire swap that clears the flag.
        if !pending.swap(true, Ordering::Release) {
            let _ = events.send(NodeEvent::Wake);
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
    /// Fixed disk access time.
    pub disk_fixed: Duration,
    /// Disk transfer rate in bytes/second.
    pub disk_bytes_per_sec: f64,
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

/// Who gets a file once this node has it, with the trace request id and
/// causal parent span its completion events chain to.
struct Waiter {
    req: u64,
    parent: u32,
    to: ReplyTo,
}

/// Where a served file goes.
enum ReplyTo {
    /// A client of this node.
    Client(SyncSender<Reply>),
    /// Back to the peer that forwarded the request; the wire token is
    /// the waiter's `req`.
    Peer(usize),
}

/// One file's outstanding disk read plus everyone waiting on it. The
/// first waiter issued the read; later ones piggy-back on it.
struct DiskWait {
    /// Tracer nanoseconds when the read was queued (0 when tracing off).
    start_ns: u64,
    waiters: Vec<Waiter>,
}

/// A forwarded request awaiting its file data, with the recovery state
/// needed to re-route it if the service node stops answering.
struct Pending {
    reply: SyncSender<Reply>,
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
    /// The latest attempt's `ViaSend` span: a `Retry` or `Failover`
    /// names it as parent, so the chain walks back to `Arrive`.
    span: u32,
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

/// How long the main loop polls its event channel after a pass that
/// handled an event, before it parks. A peer's reply or forward usually
/// lands within this window, and a poll that catches it saves the futex
/// wake of a parked thread. The paper's main thread polls and never
/// parks; this one parks once the budget runs out, so an idle node costs
/// no CPU.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Channel tries between yields while the main loop polls.
const POLL_TRIES: u32 = 64;

/// The main thread's state: it parses requests, decides locally-vs-
/// forward, manages the cache, tracks pending forwards, posts through its
/// [`Outbox`] and drains its completion queue. [`NodeState::run`] feeds
/// it one event per loop pass; each kind of event has its own method.
pub(crate) struct NodeState {
    ctx: Arc<NodeCtx>,
    cfg: MainConfig,
    events: Receiver<NodeEvent>,
    cq: CompletionQueue,
    cache: FileCache,
    /// Per file, the bitmask of nodes believed to cache it.
    cachers: Vec<u128>,
    /// Forwarded requests awaiting file data, by wire token.
    pending: HashMap<u64, Pending>,
    waiting_disk: HashMap<FileId, DiskWait>,
    disk: Disk,
    /// Requests open on this node: the admission bound's count and the
    /// load peers see.
    load: u32,
    /// Peer loads as last observed; refreshed from the RDMA region.
    loads: Vec<u32>,
    /// Loads are read on every dispatch, into this one buffer.
    load_bytes: Vec<u8>,
    /// Per-peer circuit breakers (empty when overload protection is off,
    /// so the protection-off build never touches them).
    breakers: Vec<CircuitBreaker>,
    /// Breaker time is micros since `t0` — monotonic, per-node, and never
    /// compared across nodes.
    t0: Instant,
    next_token: u64,
    events_since_load_write: u32,
    /// Set while fault injection has this node down: every event except
    /// Recover/Shutdown is discarded, like a host that stopped executing.
    crashed: bool,
    out: Outbox,
    /// Messages the completion-queue drain decoded, behind the channel
    /// events it moved here first (see `take_events`); a pass takes from
    /// here before it reads the event channel.
    inbox: VecDeque<NodeEvent>,
    /// Credits owed to each peer for the messages consumed from the
    /// completion queue and from its file ring.
    cq_consumed: Vec<CreditReturns>,
    ring_expected: Vec<u64>,
    ring_consumed: Vec<CreditReturns>,
}

impl NodeState {
    pub(crate) fn new(
        ctx: Arc<NodeCtx>,
        cfg: MainConfig,
        events: Receiver<NodeEvent>,
        cq: CompletionQueue,
        prefill: &[(FileId, u64)],
        cachers: Vec<u128>,
    ) -> NodeState {
        let mut cache = FileCache::new(cfg.cache_bytes);
        for &(file, size) in prefill {
            cache.insert(file, size);
        }
        let n = ctx.nodes;
        NodeState {
            cache,
            cachers,
            pending: HashMap::new(),
            waiting_disk: HashMap::new(),
            disk: Disk {
                free_at: Instant::now(),
                queue: VecDeque::new(),
            },
            load: 0,
            loads: vec![0; n],
            load_bytes: vec![0; 4 * n],
            breakers: if cfg.overload.enabled {
                vec![CircuitBreaker::new(cfg.overload.breaker); n]
            } else {
                Vec::new()
            },
            t0: Instant::now(),
            next_token: (ctx.id as u64) << 48 | 1,
            events_since_load_write: 0,
            crashed: false,
            out: Outbox::new(Arc::clone(&ctx)),
            inbox: VecDeque::new(),
            cq_consumed: vec![CreditReturns::new(ctx.credit_batch); n],
            ring_expected: vec![1; n],
            ring_consumed: vec![CreditReturns::new(ctx.credit_batch); n],
            ctx,
            cfg,
            events,
            cq,
        }
    }

    /// The main loop. It waits only on its event channel, never on I/O,
    /// and no longer than until the disk's head read completes. After a
    /// pass that handled an event it polls the channel for up to
    /// [`POLL_BUDGET`] before it parks, so a peer's wake-up that comes
    /// soon is taken without a futex wake ([`NodeState::wait_event`]).
    pub(crate) fn run(mut self) {
        // The tick only bounds how late a retry deadline is noticed.
        // Nothing else waits for it: every completion and landed ring
        // write wakes the loop, and the park ends when a disk read does.
        let tick = Duration::from_millis(1);
        // The last pass took an event off the inbox or the channel.
        let mut busy = false;
        loop {
            let mut ticked = false;
            let event = match self.inbox.pop_front() {
                Some(ev) => Some(ev),
                None => match self.events.try_recv() {
                    Ok(ev) => Some(ev),
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {
                        // Drain-on-idle batching: ring every staged
                        // doorbell before parking, so a batch only
                        // coalesces messages that were already queued and
                        // a lone message never waits for a later one.
                        self.out.wire.flush_all();
                        match self.wait_event(busy, tick) {
                            Ok(ev) => Some(ev),
                            Err(RecvTimeoutError::Timeout) => {
                                ticked = true;
                                None
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                },
            };
            // Neither a wake-up nor a peer reset advances the load-write
            // cadence, so load writes per request do not depend on how
            // many wake-ups the completions raised.
            let got_event = event
                .as_ref()
                .is_some_and(|ev| !matches!(ev, NodeEvent::Wake | NodeEvent::ResetPeer { .. }));
            busy = event.is_some();
            match event {
                Some(NodeEvent::Shutdown) => break,
                Some(event) => self.handle(event),
                None => {}
            }
            // Clear the wake flag before draining: any completion or ring
            // write after this finds it clear and queues a fresh `Wake`.
            // ordering: Acquire — pairs with `wake_hook`'s Release swap,
            // so every completion or write whose hook saw the flag set is
            // visible.
            let woken = self.ctx.wake_pending.swap(false, Ordering::Acquire);
            drain_cq(
                &self.ctx,
                &self.cq,
                &self.events,
                &mut self.out,
                &mut self.cq_consumed,
                &mut self.inbox,
            );
            // A reply found after the tick ran out waited for the tick if
            // no hook ran for it: none since the last drain, and none by
            // the end of this one (a hook still finishing its post is
            // late, not missing).
            let missed = ticked && !woken;
            let mut found_reply = missed && self.inbox.iter().any(NodeEvent::is_reply);
            if self.ctx.file_mode == FileTransferMode::RemoteWrite {
                found_reply |= self.poll_file_rings() && missed;
            }
            // ordering: Acquire — as for the swap above.
            if found_reply && !self.ctx.wake_pending.load(Ordering::Acquire) {
                ServerStats::bump(&self.ctx.stats.replies_found_by_tick);
            }
            if !self.pending.is_empty() && !self.crashed {
                self.retry_expired();
            }
            if got_event {
                self.count_event();
            }
            // Disk reads complete in FIFO order once their time has
            // passed, each counted as an event.
            while let Some(file) = self.disk.pop_done() {
                self.on_disk_done(file);
                self.count_event();
            }
        }
        // Drain whatever is still staged so no slab slot leaks its
        // in-flight mark across shutdown.
        self.out.wire.flush_all();
    }

    /// Waits for the next channel event until the park deadline: the
    /// tick, or the disk's head read if it completes sooner. After a
    /// `busy` pass it first polls the channel for up to [`POLL_BUDGET`],
    /// yielding between batches of tries so that a runnable peer still
    /// gets the core, then parks for the rest of the time. The wait ends
    /// at the same instant with or without the poll. Only the channel is
    /// polled, so every completion and ring write still reaches the loop
    /// through its wake hook. A node whose last pass handled nothing (the
    /// first pass, or one whose wait timed out) parks at once.
    fn wait_event(&self, busy: bool, tick: Duration) -> Result<NodeEvent, RecvTimeoutError> {
        if !busy {
            return self.events.recv_timeout(self.disk.park_timeout(tick));
        }
        ServerStats::bump(&self.ctx.stats.polls);
        let start = Instant::now();
        let poll_end = start + POLL_BUDGET.min(self.disk.park_timeout(tick));
        loop {
            for _ in 0..POLL_TRIES {
                match self.events.try_recv() {
                    Ok(ev) => {
                        ServerStats::bump(&self.ctx.stats.poll_hits);
                        return Ok(ev);
                    }
                    Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                }
            }
            let now = Instant::now();
            if now >= poll_end {
                // Recomputed: the park ends when the head read completes
                // or the tick started at `start` runs out, as without the
                // poll.
                let rest = tick.saturating_sub(now - start);
                return self.events.recv_timeout(self.disk.park_timeout(rest));
            }
            std::thread::yield_now();
        }
    }

    /// Periodic load dissemination through remote memory writes: no
    /// receiver involvement, overwritable — the paper's ideal use. The
    /// load table is written after every `load_write_period` events.
    fn count_event(&mut self) {
        if self.crashed {
            return;
        }
        self.events_since_load_write += 1;
        if self.events_since_load_write >= self.cfg.load_write_period {
            self.events_since_load_write = 0;
            self.out.wire.rdma_load(self.load);
        }
    }

    fn handle(&mut self, event: NodeEvent) {
        match event {
            NodeEvent::Crash => self.on_crash(),
            NodeEvent::Recover => self.crashed = false,
            NodeEvent::ResetPeer { peer } => self.out.reset_peer(peer),
            NodeEvent::Wake | NodeEvent::Shutdown => {}
            // A dead host executes nothing. Client requests routed here
            // before the membership change are lost (their reply channel
            // drops).
            NodeEvent::Client { .. } if self.crashed => {
                ServerStats::bump(&self.ctx.stats.requests_lost);
            }
            _ if self.crashed => {}
            NodeEvent::Client {
                file,
                reply,
                deadline,
            } => self.on_client(file, reply, deadline),
            NodeEvent::Invalidate { file } => {
                // The old bytes are stale everywhere: drop our cached copy
                // and forget who else held one (their copies are being
                // dropped by the same broadcast).
                if self.cache.remove(file) {
                    ServerStats::bump(&self.ctx.stats.invalidations);
                }
                self.cachers[file.0 as usize] = 0;
            }
            NodeEvent::Remote { from, msg } => self.on_remote(from, msg),
        }
    }

    fn on_crash(&mut self) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        // Everything in flight on this host is gone.
        let lost = self.pending.len()
            // press::allow(hash-iter): commutative sum — the visit order
            // cannot reach the total.
            + self.waiting_disk.values().map(|w| w.waiters.len()).sum::<usize>();
        ServerStats::add(&self.ctx.stats.requests_lost, lost as u64);
        self.pending.clear();
        self.waiting_disk.clear();
        // Reads in flight complete into the void, as in the simulator:
        // the disk stays busy until they would have ended, but a
        // recovered node neither caches nor announces them.
        self.disk.queue.clear();
        // A restarted host comes back with a cold cache, and no longer
        // serves the files it used to hold.
        self.cache = FileCache::new(self.cfg.cache_bytes);
        let bit = 1u128 << self.ctx.id;
        for c in self.cachers.iter_mut() {
            *c &= !bit;
        }
        self.load = 0;
    }

    /// A client request arrived: shed it, serve it here, or forward it.
    fn on_client(&mut self, file: FileId, reply: SyncSender<Reply>, deadline: Option<Instant>) {
        let ov = &self.cfg.overload;
        let admission_full =
            ov.enabled && ov.admission_limit > 0 && self.load >= ov.admission_limit;
        // A request whose remaining budget cannot cover even the modeled
        // service time is rejected now, while it is cheap, rather than
        // after consuming resources.
        let hopeless = !admission_full
            && ov.enabled
            && deadline.is_some_and(|dl| {
                let est = if self.cache.contains(file) {
                    Duration::ZERO
                } else {
                    Duration::from_micros(ov.service_estimate_micros)
                };
                Instant::now() + est > dl
            });
        if admission_full || hopeless {
            ServerStats::bump(if admission_full {
                &self.ctx.stats.shed_admission
            } else {
                &self.ctx.stats.shed_deadline
            });
            let _ = reply.send(Reply::Shed);
            return;
        }
        self.load += 1;
        let id = self.ctx.id;
        let bytes = self.cfg.catalog.size(file);
        // Every admitted request gets a token: forwards use it on the
        // wire, and it keys the request's trace spans on every node it
        // touches.
        let treq = self.next_token;
        self.next_token += 1;
        let arrive = self
            .ctx
            .trace_event(EventKind::Arrive, treq, file.0 as u64, bytes);
        self.read_loads();
        // Crashed peers drop out of the candidate set the moment the
        // membership view changes, whatever the dissemination strategy
        // populated `cachers` with.
        let live = self.ctx.membership.snapshot().1 as u128;
        let file_cachers = self.cachers[file.0 as usize] & live;
        let decision = decide(
            &self.cfg.policy,
            &RequestView {
                initial: NodeId(id as u16),
                file_bytes: bytes,
                cached_locally: self.cache.contains(file),
                first_request: self.cachers[file.0 as usize] == 0,
                cachers: file_cachers,
                loads: &self.loads,
                load_balancing: true,
            },
        );
        // The breaker says a peer stopped answering: steer to the best
        // admissible alternative cacher, or absorb the work locally
        // rather than feed a black hole.
        let now_us = self.t0.elapsed().as_micros() as u64;
        let (decision, diverted) = policy::divert(
            decision,
            NodeId(id as u16),
            file_cachers,
            view_load(&self.loads),
            |i| breaker_allows(&self.breakers, i as usize, now_us),
        );
        if diverted {
            ServerStats::bump(&self.ctx.stats.breaker_diverts);
        }
        match decision {
            Decision::ServeLocal => {
                let parent =
                    self.ctx
                        .trace_event_in(EventKind::Dispatch, treq, 0, id as u64, arrive);
                self.serve_local(file, treq, parent, ReplyTo::Client(reply));
            }
            Decision::Forward(target) => {
                let target = usize::from(target.0);
                let disp =
                    self.ctx
                        .trace_event_in(EventKind::Dispatch, treq, 1, target as u64, arrive);
                ServerStats::bump(&self.ctx.stats.forwarded);
                self.forward(reply, file, treq, target, 0, disp);
            }
        }
    }

    /// Sends attempt `attempt` of a client request to `target` and tracks
    /// it until its file data comes back or its deadline passes.
    fn forward(
        &mut self,
        reply: SyncSender<Reply>,
        file: FileId,
        trace_req: u64,
        target: usize,
        attempt: u32,
        parent: u32,
    ) {
        // The token minted at arrival doubles as the first attempt's wire
        // token; a retry mints a fresh one, so a late answer to an
        // abandoned attempt finds no pending entry.
        let token = if attempt == 0 {
            trace_req
        } else {
            self.next_token += 1;
            self.next_token - 1
        };
        let mut msg = WireMsg {
            kind: WireKind::Forward,
            file,
            token,
            sender_load: self.load,
            parent_span: 0,
            payload: Vec::new(),
        };
        msg.parent_span = self.trace_send(&msg, trace_req, target, parent);
        let deadline = retry_deadline(
            Instant::now(),
            self.cfg.retry_timeout,
            self.cfg.jitter_seed,
            token,
            attempt,
        );
        self.pending.insert(
            token,
            Pending {
                reply,
                file,
                target,
                attempt,
                deadline,
                trace_req,
                span: msg.parent_span,
            },
        );
        if let Some(b) = self.breakers.get_mut(target) {
            b.on_send(self.t0.elapsed().as_micros() as u64);
        }
        ServerStats::bump(&self.ctx.stats.forward_msgs);
        self.out.send(target, msg, true);
    }

    /// Records the `ViaSend` of `msg` to `to` and returns its span, the
    /// causal context the message carries. Its `a` is the wire size, as
    /// the simulator records it, on every attempt.
    fn trace_send(&self, msg: &WireMsg, req: u64, to: usize, parent: u32) -> u32 {
        self.ctx.trace_event_in(
            EventKind::ViaSend,
            req,
            msg.wire_len() as u64,
            to as u64,
            parent,
        )
    }

    /// Sends `file` to `to` from the cache, or queues a disk read for it.
    /// `req` and `parent` are the trace request id and causal parent the
    /// completion events chain to.
    fn serve_local(&mut self, file: FileId, req: u64, parent: u32, to: ReplyTo) {
        let bytes = self.cfg.catalog.size(file);
        if self.cache.touch(file) {
            let parent =
                self.ctx
                    .trace_event_in(EventKind::CacheHit, req, file.0 as u64, bytes, parent);
            self.answer(file, bytes, Waiter { req, parent, to });
        } else {
            self.enqueue_disk(file, bytes, Waiter { req, parent, to });
        }
    }

    /// Hands `file`, now in this node's cache, to `w`.
    fn answer(&mut self, file: FileId, bytes: u64, w: Waiter) {
        match w.to {
            ReplyTo::Client(reply) => {
                ServerStats::bump(&self.ctx.stats.served_local);
                let _ = reply.send(Reply::Data(file_contents(file, bytes as usize)));
                self.load = self.load.saturating_sub(1);
                self.ctx
                    .trace_event_in(EventKind::Done, w.req, file.0 as u64, bytes, w.parent);
            }
            ReplyTo::Peer(to) => {
                ServerStats::bump(&self.ctx.stats.file_msgs);
                let mut msg = WireMsg {
                    kind: WireKind::FileData,
                    file,
                    token: w.req,
                    sender_load: self.load,
                    parent_span: 0,
                    payload: file_contents(file, bytes as usize),
                };
                // The send span becomes the wire-carried causal context,
                // so the origin's ViaRecv stitches straight onto this
                // node's chain.
                msg.parent_span = self.trace_send(&msg, w.req, to, w.parent);
                self.out.send(to, msg, true);
            }
        }
    }

    /// Queues a waiter on an in-flight (or newly issued) disk read. The
    /// first waiter for a file actually issues the read and owns the
    /// trace context the eventual `DiskRead` span is charged to.
    fn enqueue_disk(&mut self, file: FileId, bytes: u64, w: Waiter) {
        use std::collections::hash_map::Entry;
        match self.waiting_disk.entry(file) {
            Entry::Occupied(mut e) => e.get_mut().waiters.push(w),
            Entry::Vacant(e) => {
                e.insert(DiskWait {
                    start_ns: self.ctx.trace.as_ref().map(|t| t.now_ns()).unwrap_or(0),
                    waiters: vec![w],
                });
                ServerStats::bump(&self.ctx.stats.disk_reads);
                let transfer = Duration::from_secs_f64(bytes as f64 / self.cfg.disk_bytes_per_sec);
                self.disk.read(file, self.cfg.disk_fixed + transfer);
            }
        }
    }

    fn on_remote(&mut self, from: usize, msg: WireMsg) {
        // Piggy-backed load keeps our view of the sender fresh even
        // between RDMA load writes.
        self.loads[from] = msg.sender_load;
        match msg.kind {
            WireKind::Forward => {
                // Stitch to the origin's ViaSend span via the message's
                // wire-carried causal context.
                let parent = self.ctx.trace_event_in(
                    EventKind::ViaRecv,
                    msg.token,
                    msg.file.0 as u64,
                    from as u64,
                    msg.parent_span,
                );
                self.serve_local(msg.file, msg.token, parent, ReplyTo::Peer(from));
            }
            WireKind::FileData => {
                self.complete_forward(msg.token, from, msg.payload, msg.parent_span);
            }
            WireKind::Caching => {
                // Low byte: 0 = now caches, 1 = evicted. High bits:
                // origin+1 when tree-routed (0 = legacy flat send, where
                // the sender IS the origin).
                let action = msg.token & 0xFF;
                let origin_enc = msg.token >> 8;
                let origin = if origin_enc == 0 {
                    from
                } else {
                    (origin_enc - 1) as usize
                };
                let bit = 1u128 << origin;
                if action == 0 {
                    self.cachers[msg.file.0 as usize] |= bit;
                } else {
                    self.cachers[msg.file.0 as usize] &= !bit;
                }
                if origin_enc != 0 {
                    tree_caching_fanout(
                        &self.ctx,
                        &mut self.out,
                        msg.file,
                        msg.token,
                        msg.sender_load,
                        origin,
                    );
                }
            }
            // Flow is consumed by the completion-queue drain.
            WireKind::Flow => {}
        }
    }

    /// A forwarded request's file data arrived from `from`, by message or
    /// in a file ring, stitched to the sender's span `parent`. Replies to
    /// retried tokens already removed from `pending` (first answer won)
    /// fall through harmlessly.
    fn complete_forward(&mut self, token: u64, from: usize, payload: Vec<u8>, parent: u32) {
        let Some(p) = self.pending.remove(&token) else {
            return;
        };
        if let Some(b) = self.breakers.get_mut(p.target) {
            b.record_success();
        }
        let file = p.file.0 as u64;
        let bytes = payload.len() as u64;
        let recv =
            self.ctx
                .trace_event_in(EventKind::ViaRecv, p.trace_req, file, from as u64, parent);
        let _ = p.reply.send(Reply::Data(payload));
        // The forwarded request is no longer open on this node; without
        // this the load counter (and the admission bound fed by it)
        // ratchets upward forever.
        self.load = self.load.saturating_sub(1);
        self.ctx
            .trace_event_in(EventKind::Done, p.trace_req, file, bytes, recv);
    }

    fn on_disk_done(&mut self, file: FileId) {
        let bytes = self.cfg.catalog.size(file);
        // Every queued read has its waiters: both are dropped together.
        let Some(wait) = self.waiting_disk.remove(&file) else {
            return;
        };
        // Charge the whole disk residency (enqueue to completion) as one
        // span on the request that caused the read; piggy-backed waiters
        // chain off it too.
        if let (Some(t), Some(w)) = (&self.ctx.trace, wait.waiters.first()) {
            t.span_in(
                wait.start_ns,
                EventKind::DiskRead,
                w.req,
                file.0 as u64,
                bytes,
                w.parent,
            );
        }
        // Cache the file and broadcast the caching information (insertion
        // plus any evictions), as in Section 2.2.
        let evicted = self.cache.insert(file, bytes);
        let bit = 1u128 << self.ctx.id;
        self.cachers[file.0 as usize] |= bit;
        let (load, tree) = (self.load, self.cfg.tree_caching);
        broadcast_caching(&self.ctx, &mut self.out, file, 0, load, tree);
        for ev in evicted {
            self.cachers[ev.0 as usize] &= !bit;
            broadcast_caching(&self.ctx, &mut self.out, ev, 1, load, tree);
        }
        for w in wait.waiters {
            self.answer(file, bytes, w);
        }
    }

    /// Forwarded requests whose service node stopped answering: retry
    /// against the next-best live cacher with decorrelated-jitter
    /// backoff, then fall back to local service.
    fn retry_expired(&mut self) {
        let now = Instant::now();
        let mut expired: Vec<u64> = self
            .pending
            // press::allow(hash-iter): sorted below — tokens are issued
            // monotonically, so retries run in arrival order regardless of
            // hash order.
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        expired.sort_unstable();
        let now_us = self.t0.elapsed().as_micros() as u64;
        let id = self.ctx.id;
        let live = self.ctx.membership.snapshot().1 as u128;
        for token in expired {
            let Some(p) = self.pending.remove(&token) else {
                continue;
            };
            // A missed deadline is the breaker's failure signal: enough of
            // them in a row opens the peer's breaker and new forwards
            // steer around it until a probe succeeds.
            if !self.breakers.is_empty() && p.target != id {
                self.breakers[p.target].record_failure(now_us);
            }
            let target = if p.attempt >= self.cfg.max_retries {
                None
            } else {
                self.read_loads();
                let admits = |i: u16| breaker_allows(&self.breakers, i as usize, now_us);
                let others = self.cachers[p.file.0 as usize] & live & !(1 << id) & !(1 << p.target);
                policy::least_loaded(others, view_load(&self.loads), admits)
                    .map(|n| usize::from(n.0))
                    // No alternative cacher, but the target still looks
                    // alive: the *message* may have been lost rather than
                    // the node — retransmit to the same peer (backoff
                    // rising) until retries run out or the membership
                    // evicts it. Only the live node does this; the sim
                    // fails over.
                    .or(
                        (p.target != id && live & (1 << p.target) != 0 && admits(p.target as u16))
                            .then_some(p.target),
                    )
            };
            let (file, req) = (p.file.0 as u64, p.trace_req);
            match target {
                // Out of options elsewhere: serve from our own cache or
                // disk so the client still gets an answer.
                None => {
                    ServerStats::bump(&self.ctx.stats.failovers);
                    let parent = self.ctx.trace_event_in(
                        EventKind::Failover,
                        req,
                        file,
                        p.attempt as u64,
                        p.span,
                    );
                    self.serve_local(p.file, req, parent, ReplyTo::Client(p.reply));
                }
                Some(target) => {
                    ServerStats::bump(&self.ctx.stats.retries);
                    let attempt = p.attempt + 1;
                    // The wire token changes on retry, but the trace
                    // request id stays stable so all attempts stitch into
                    // one causal chain.
                    let retry = self.ctx.trace_event_in(
                        EventKind::Retry,
                        req,
                        attempt as u64,
                        target as u64,
                        p.span,
                    );
                    self.forward(p.reply, p.file, req, target, attempt, retry);
                }
            }
        }
    }

    /// Drains every inbound file ring: reads the sequence number at each
    /// slot's last bytes, and when the next expected number has landed,
    /// consumes the entry (completing the pending client request) and
    /// returns credits in batches. This is PRESS's version-3 receive
    /// path, run at the end of every loop pass as in the paper: no
    /// completion is involved, and the rings' write hook only wakes the
    /// main loop so that this poll runs. A crashed node still advances
    /// sequence numbers (entries vanish into the dead host) so the rings
    /// stay aligned for recovery, but it returns no credits and completes
    /// nothing. Returns whether it completed any forward.
    fn poll_file_rings(&mut self) -> bool {
        let mut completed = false;
        let (window, slot_bytes) = (self.ctx.window as u64, self.ctx.ring_slot_bytes);
        for src in 0..self.ctx.nodes {
            let Some(ring) = self.ctx.own_rings[src] else {
                continue;
            };
            loop {
                let slot = ((self.ring_expected[src] - 1) % window) as usize;
                let trailer_off = slot * slot_bytes + slot_bytes - RING_TRAILER_BYTES;
                let mut trailer = [0u8; RING_TRAILER_BYTES];
                if self
                    .ctx
                    .nic
                    .read_region_into(ring, trailer_off, &mut trailer)
                    .is_err()
                {
                    break;
                }
                let Some((len, token, parent, seq)) = decode_ring_trailer(&trailer) else {
                    break;
                };
                if seq != self.ring_expected[src] {
                    break;
                }
                self.ring_expected[src] += 1;
                if self.crashed {
                    // Sequence advances, data is lost, no credits flow
                    // back: the sender sees a peer that stopped consuming.
                    self.ring_consumed[src].forget();
                    continue;
                }
                let Ok(payload) = self.ctx.nic.read_region(ring, slot * slot_bytes, len) else {
                    ServerStats::bump(&self.ctx.stats.via_errors);
                    continue;
                };
                // The ring trailer carried the remote sender's span id:
                // stitch the zero-copy arrival into the causal chain.
                self.complete_forward(token, src, payload, parent);
                completed = true;
                return_credits(&self.ctx, &mut self.out, src, &mut self.ring_consumed[src]);
            }
        }
        completed
    }

    /// Refreshes `loads` from this node's RDMA-written load table.
    fn read_loads(&mut self) {
        let ctx = &self.ctx;
        if ctx
            .nic
            .read_region_into(ctx.load_region, 0, &mut self.load_bytes)
            .is_ok()
        {
            for (i, chunk) in self.load_bytes.chunks_exact(4).enumerate() {
                self.loads[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        self.loads[ctx.id] = self.load;
    }
}

/// Counts one consumed credit-bearing message from `peer` and, once a
/// batch has accumulated, returns the credits in one flow message.
fn return_credits(ctx: &NodeCtx, out: &mut Outbox, peer: usize, returns: &mut CreditReturns) {
    if let Some(n) = returns.count_consumed() {
        ServerStats::bump(&ctx.stats.flow_msgs);
        out.send(
            peer,
            WireMsg {
                kind: WireKind::Flow,
                file: FileId(0),
                token: n as u64,
                sender_load: 0,
                parent_span: 0,
                payload: Vec::new(),
            },
            false,
        );
    }
}

fn broadcast_caching(
    ctx: &NodeCtx,
    out: &mut Outbox,
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
        tree_caching_fanout(ctx, out, file, token, load, ctx.id);
    } else {
        for peer in 0..ctx.nodes {
            if peer == ctx.id || !ctx.membership.is_live(peer) {
                continue;
            }
            ServerStats::bump(&ctx.stats.caching_msgs);
            out.send(
                peer,
                WireMsg {
                    kind: WireKind::Caching,
                    file,
                    token: action,
                    sender_load: load,
                    parent_span: 0,
                    payload: Vec::new(),
                },
                true,
            );
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
    out: &mut Outbox,
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
        out.send(
            c as usize,
            WireMsg {
                kind: WireKind::Caching,
                file,
                token,
                sender_load: load,
                parent_span: 0,
                payload: Vec::new(),
            },
            true,
        );
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
/// The completion-queue drain releases the slot when the send completion
/// is reaped ([`reap_slab`]).
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
    // staged list inside `post`, and the completion must find the slot
    // in flight whenever the drain reaps it.
    let _ = pool.mark_in_flight(slot);
    if let Err(e) = bell.post(desc) {
        // Never reached the NIC: a validation error stages nothing, and
        // the only flush error on a VI attached to a completion queue is
        // shutdown, after which no flush goes out. Unwind the state
        // machine and rejoin the free list.
        let _ = pool.mark_complete(slot).and_then(|_| pool.free(slot));
        return Err(e);
    }
    if msg.kind == WireKind::Flow {
        bell.flush()?;
    }
    Ok(())
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

/// The send side of a node, owned by its main loop: a credit window per
/// peer over the messages queued behind it, and the [`Wire`] that posts
/// them. Nothing here blocks.
struct Outbox {
    windows: Vec<CreditWindow<WireMsg>>,
    wire: Wire,
}

impl Outbox {
    fn new(ctx: Arc<NodeCtx>) -> Outbox {
        Outbox {
            windows: vec![CreditWindow::new(ctx.window); ctx.nodes],
            wire: Wire::new(ctx),
        }
    }

    /// Transmits `msg` to `to`. A `needs_credit` message takes one credit
    /// from the peer's window, or waits in its queue while the window is
    /// shut.
    fn send(&mut self, to: usize, msg: WireMsg, needs_credit: bool) {
        if !needs_credit {
            self.wire.transmit(to, &msg);
        } else if let Some(msg) = self.windows[to].admit(msg) {
            self.wire.transmit(to, &msg);
        } else {
            // Credit stall: push staged traffic out now, or the peer can
            // never consume it and return the credits this queue is
            // waiting on.
            self.wire.flush_peer(to);
        }
    }

    /// Applies `n` credits returned by `from` and releases as many queued
    /// messages as they cover. The window clamps a stale return (consumed
    /// before the peer crashed) that arrives after a `reset_peer` repair,
    /// or sends would overwrite unconsumed ring slots; press-analyze's
    /// credit-repair interleaving model found that case.
    fn credits(&mut self, from: usize, n: u32) {
        for msg in self.windows[from].grant(n) {
            self.wire.transmit(from, &msg);
        }
    }

    /// The peer lost (or never saw) everything in flight: a fresh credit
    /// window against its freshly reposted descriptors, and nothing stale
    /// queued toward it. Staged batches are flushed (not dropped) so
    /// their slab slots still complete and return to the pool.
    fn reset_peer(&mut self, peer: usize) {
        self.wire.flush_peer(peer);
        self.windows[peer].refill();
    }
}

/// Posts a node's messages: slot and ring cursors, the staging buffer,
/// the sparse load sampler and the V6 doorbells. It is apart from the
/// credit windows so that a grant posts the messages it releases while
/// it still holds the window.
struct Wire {
    ctx: Arc<NodeCtx>,
    next_slot: Vec<usize>,
    next_flow_slot: Vec<usize>,
    next_ring_seq: Vec<u64>,
    buf: Vec<u8>,
    /// Sparse load dissemination: deterministic per-node stream, so a
    /// given (seed, fanout) config replays the same peer samples.
    load_rng: DetRng,
    /// V6 fast path: one doorbell per peer coalescing descriptor posts,
    /// fed from the shared slab pool. All None when doorbell_batch is 1,
    /// leaving the V0–V5 path byte-for-byte untouched. No staleness
    /// bound: the main loop rings them all before it parks.
    bells: Vec<Option<Doorbell>>,
}

impl Wire {
    fn new(ctx: Arc<NodeCtx>) -> Wire {
        let n = ctx.nodes;
        let bells = (0..n)
            .map(|peer| {
                (ctx.doorbell_batch > 1)
                    .then(|| ctx.vis[peer].clone())
                    .flatten()
                    .map(|vi| Doorbell::new(vi, ctx.doorbell_batch as usize, Duration::MAX))
            })
            .collect();
        Wire {
            next_slot: vec![0; n],
            next_flow_slot: vec![0; n],
            next_ring_seq: vec![1; n],
            buf: vec![0; ctx.slot_bytes.max(ctx.ring_slot_bytes)],
            load_rng: DetRng::new(0x10AD_u64 ^ ctx.id as u64),
            bells,
            ctx,
        }
    }

    /// Rings one peer's doorbell.
    fn flush_peer(&mut self, peer: usize) {
        flush_bell(&self.ctx, &mut self.bells[peer]);
    }

    /// RDMA-writes `load` into every live peer's load table, or into a
    /// sampled few of them under sparse dissemination.
    fn rdma_load(&mut self, load: u32) {
        let ctx: &NodeCtx = &self.ctx;
        if ctx
            .nic
            .write_region(ctx.scratch_region, 0, &load.to_le_bytes())
            .is_err()
        {
            ServerStats::bump(&ctx.stats.via_errors);
            return;
        }
        // Sparse mode: write the load to a random sample of live peers
        // instead of all of them (power-of-two-choices reads tolerate
        // stale views elsewhere). Fanout 0 keeps the dense legacy
        // behaviour.
        let sparse_targets = if ctx.load_write_fanout > 0 {
            let (_, mask) = ctx.membership.snapshot();
            Some(sample_peers(
                &mut self.load_rng,
                ctx.id as u16,
                mask as u128,
                ctx.nodes as u16,
                ctx.load_write_fanout as usize,
            ))
        } else {
            None
        };
        for (peer, bell) in self.bells.iter_mut().enumerate() {
            if peer == ctx.id || !ctx.membership.is_live(peer) {
                continue;
            }
            if let Some(ts) = &sparse_targets {
                if !ts.contains(&(peer as u16)) {
                    continue;
                }
            }
            // RDMA bypasses the doorbell; keep per-VI ordering.
            flush_bell(ctx, bell);
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

    /// Rings every staged doorbell.
    fn flush_all(&mut self) {
        for bell in self.bells.iter_mut() {
            flush_bell(&self.ctx, bell);
        }
    }

    /// Transmits one message, fresh or released by returned credits: a file
    /// transfer in remote-write mode as an RDMA ring write ([`rmw_file`]);
    /// anything else on the V6 fast path when enabled (falling back to the
    /// classic per-peer slot regions if the pool is momentarily exhausted),
    /// the classic path otherwise.
    fn transmit(&mut self, peer: usize, msg: &WireMsg) {
        let ctx: &NodeCtx = &self.ctx;
        if ctx.file_mode == FileTransferMode::RemoteWrite && msg.kind == WireKind::FileData {
            // RDMA bypasses the doorbell; keep per-VI ordering.
            flush_bell(ctx, &mut self.bells[peer]);
            rmw_file(
                ctx,
                peer,
                msg,
                &mut self.next_slot,
                &mut self.next_ring_seq,
                &mut self.buf,
            );
            return;
        }
        if let (Some(bell), Some(pool)) = (self.bells[peer].as_mut(), ctx.send_pool.as_deref()) {
            match slab_post(ctx, pool, bell, msg, &mut self.buf) {
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
            flush_bell(ctx, &mut self.bells[peer]);
        }
        post_legacy(
            ctx,
            peer,
            msg,
            &mut self.next_slot,
            &mut self.next_flow_slot,
            &mut self.buf,
        );
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

/// Drains the node's completion queue, as the paper's main thread polls
/// before it blocks: releases the slab slots of completed fast-path
/// sends, decodes arrivals and reposts their descriptors, applies
/// returned credits to the outbox, returns credits in batches, and
/// queues every other message on `inbox` for the following passes.
fn drain_cq(
    ctx: &NodeCtx,
    cq: &CompletionQueue,
    events: &Receiver<NodeEvent>,
    out: &mut Outbox,
    consumed: &mut [CreditReturns],
    inbox: &mut VecDeque<NodeEvent>,
) {
    while let Some(c) = cq.poll() {
        let Some(&peer) = ctx.vi_peers.get(&c.vi_id) else {
            continue;
        };
        if c.status.is_err() {
            // Injected transport failures and genuine VIA errors surface
            // here; the message is gone, recovery is the sender's retry
            // problem. Failed receive descriptors are consumed, so repost
            // to keep the window intact; failed fast-path sends still
            // release their slot.
            ServerStats::bump(&ctx.stats.via_errors);
            if c.kind == CompletionKind::Recv {
                repost_recv(ctx, peer, &c);
            } else {
                reap_slab(ctx, &c);
            }
            continue;
        }
        // Send-side and RDMA completions need no further action — except
        // a fast-path send, whose slab slot the NIC owned until this
        // completion.
        if c.kind != CompletionKind::Recv {
            reap_slab(ctx, &c);
            continue;
        }
        // ordering: Acquire — pairs with the Release stores in
        // crash/recover/hang so a flipped flag is seen before any traffic
        // sent after the transition.
        let dead = ctx.dead.load(Ordering::Acquire);
        let data = ctx
            .nic
            .read_region(c.descriptor.region, c.descriptor.offset, c.transferred)
            .unwrap_or_default();
        // Repost the consumed descriptor immediately so the slot can take
        // another message (even while dead — a crashed node must not
        // exhaust its peers' descriptors when it comes back).
        repost_recv(ctx, peer, &c);
        if dead {
            // Dead hosts receive nothing: no credits returned, no events
            // queued. Senders time out and re-route.
            consumed[peer].forget();
            continue;
        }
        // Whatever the channel held when `dead` read false (a recovery's
        // `ResetPeer`s and `Recover` among it) goes first.
        take_events(events, out, inbox);
        if data.is_empty() && c.transferred > 0 {
            ServerStats::bump(&ctx.stats.via_errors);
            continue;
        }
        let Some(msg) = WireMsg::decode(&data) else {
            continue; // malformed: drop, like a real server
        };
        if msg.kind == WireKind::Flow {
            out.credits(peer, msg.token as u32);
            continue;
        }
        return_credits(ctx, out, peer, &mut consumed[peer]);
        inbox.push_back(NodeEvent::Remote { from: peer, msg });
    }
}

/// Moves every event waiting on the channel onto `inbox`, in arrival
/// order, so the node handles them before any message decoded after
/// them: crash recovery relies on that order (DESIGN.md § 11, "Event
/// order rule"). A `ResetPeer` is applied here instead: the credits and
/// sends that follow it must already see the fresh window.
fn take_events(events: &Receiver<NodeEvent>, out: &mut Outbox, inbox: &mut VecDeque<NodeEvent>) {
    while let Ok(event) = events.try_recv() {
        match event {
            NodeEvent::ResetPeer { peer } => out.reset_peer(peer),
            event => inbox.push_back(event),
        }
    }
}

/// Reposts a consumed receive descriptor at full slot size; a failure
/// costs one descriptor from the (slack-provisioned) pool, not the node.
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

/// A node's disk: a single-server FIFO station, as the simulator models
/// it (`press_sim::Resource` over `press_cluster::DiskModel`, the
/// paper's µd), with a scaled-down latency so tests stay fast while the
/// "disk is slow" ordering holds. It does no I/O. A read queued at `now`
/// completes at `max(now, free_at) + service`, with `service` the fixed
/// access time plus `bytes / rate`, so FIFO order keeps the completion
/// times monotone and the head is always the next read to finish.
struct Disk {
    /// When the last read queued completes.
    free_at: Instant,
    /// Queued reads with their completion times.
    queue: VecDeque<(Instant, FileId)>,
}

impl Disk {
    /// Queues a read behind every read already queued.
    fn read(&mut self, file: FileId, service: Duration) {
        self.free_at = self.free_at.max(Instant::now()) + service;
        self.queue.push_back((self.free_at, file));
    }

    /// How long the main loop may park: `tick`, or less when the head
    /// read completes sooner.
    fn park_timeout(&self, tick: Duration) -> Duration {
        match self.queue.front() {
            Some(&(done, _)) => done.saturating_duration_since(Instant::now()).min(tick),
            None => tick,
        }
    }

    /// Dequeues the head read once its completion time has passed.
    fn pop_done(&mut self) -> Option<FileId> {
        let &(done, file) = self.queue.front()?;
        if done > Instant::now() {
            return None;
        }
        self.queue.pop_front();
        Some(file)
    }
}

/// Upper bound on wire size for a file of `bytes` (header + payload).
pub(crate) fn slot_bytes_for(max_file_bytes: u64) -> usize {
    HEADER_BYTES + max_file_bytes as usize
}

//! The event-driven PRESS cluster: nodes, messages, and the request
//! lifecycle, as a [`press_sim::Model`].
//!
//! Each node follows the architecture of Figure 2: a main thread that
//! parses requests, makes distribution decisions and sends replies; helper
//! threads for disk access and for sending/receiving intra-cluster
//! messages. In the simulation those threads appear as calibrated CPU
//! demands (the fixed send/receive costs include the thread hand-offs) on
//! a single CPU resource per node, plus disk and NIC resources.

use std::collections::HashMap;
use std::sync::Arc;

use press_cluster::{CpuCategory, FileCache, Node, NodeId, ServiceRates};
use press_collect::{sample_peers, select_topology, DetRng, TreeView};
use press_net::{
    fastpath_recv_cost, fastpath_send_cost, recv_cost, send_cost, wire_bytes, CostModel,
    DeliveryMode, EndpointCost, MessageType, MsgCounters, FILE_SEGMENT_BYTES,
};
use press_sim::{FaultInjector, FaultPlan, Histogram, MeanVar, Model, Scheduler, SimTime};
use press_telem::{lane, EventKind, FlightRecorder, Trace, TraceBuffer, TraceEvent};
use press_trace::{FileCatalog, FileId, RequestLog, ScenarioOp, ScenarioPlan, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::credit::{CreditReturns, CreditWindow};
use crate::load::Dissemination;
use crate::overload::{CircuitBreaker, OverloadConfig};
use crate::policy::{self, view_load, Decision, PolicyConfig, RequestView};
use crate::version::ServerVersion;

/// Mean wire size of a client HTTP request (GET line + headers).
const CLIENT_REQUEST_BYTES: u64 = 256;
/// HTTP response header bytes added to each client reply.
const REPLY_HEADER_BYTES: u64 = 128;
/// Per-channel flow-control window (descriptors posted per VI pair).
const CREDIT_WINDOW: u32 = 32;
/// Receiver returns credits after consuming this many messages
/// (calibrated against Table 2: roughly one flow message per four
/// credit-consuming messages).
const CREDIT_BATCH: u32 = 4;
/// Mean delay before a polled (RMW) message is noticed by the main loop.
const POLL_DELAY: SimTime = SimTime::from_micros(30);
/// Main-loop polling period used for the background-overhead estimate.
const POLL_INTERVAL_NS: f64 = 100_000.0;
/// CPU cost of checking one RMW circular buffer for a new sequence number.
const POLL_COST_NS: f64 = 150.0;
/// Delay before a client whose node crashed reconnects elsewhere.
const RECONNECT_DELAY: SimTime = SimTime::from_micros(1_000);
/// Delay before a client whose request was shed (admission or deadline)
/// retries; long enough that rejected clients don't hammer, short enough
/// that capacity freed by shedding is re-offered quickly.
const SHED_RETRY_DELAY: SimTime = SimTime::from_micros(5_000);
/// Stagger between the arrivals of a scenario's surge clients (matches
/// the driver's initial client stagger).
const SURGE_STAGGER: SimTime = SimTime::from_micros(97);
/// Doorbell batch size modeled for the V6 fast path (matches the live
/// engine's default): the per-doorbell CPU cost is amortized over this
/// many coalesced sends.
const DOORBELL_BATCH: usize = 4;
/// How long a power-of-two-choices decision waits for probe replies
/// before falling back to whatever replies have arrived. Generous
/// relative to the probe round trip (~100 µs of send/receive CPU plus
/// wire latency) because under load the replies queue behind other
/// communication work; it only bounds the rare lost-probe case, and is
/// still small against multi-millisecond response times.
const PROBE_TIMEOUT: SimTime = SimTime::from_micros(2_000);
/// Seed perturbation for the dissemination engine's own RNG stream:
/// new strategies draw sampling decisions from it without touching the
/// legacy `StdRng` stream, keeping legacy runs byte-identical.
const COLLECT_SEED_XOR: u64 = 0xC011_EC75;

/// Immutable parameters of one simulation run.
#[derive(Debug, Clone)]
pub(crate) struct RunParams {
    pub nodes: usize,
    pub cost: CostModel,
    pub version: ServerVersion,
    pub dissemination: Dissemination,
    pub policy: PolicyConfig,
    pub rates: ServiceRates,
    pub rmw_load_broadcast: bool,
    pub warmup_requests: u64,
    pub measure_requests: u64,
    pub faults: FaultPlan,
    pub overload: OverloadConfig,
    pub scenario: ScenarioPlan,
}

/// One in-flight client request.
#[derive(Debug, Clone)]
struct Request {
    file: FileId,
    bytes: u64,
    initial: NodeId,
    started: SimTime,
    forwarded: bool,
    /// Intra-cluster file messages still to be consumed before the reply.
    pending_file_msgs: u32,
    /// Delivery attempt, bumped on every retry; stale messages and timers
    /// carry an older attempt and are discarded.
    attempt: u32,
    /// The node currently responsible for producing the content.
    server: Option<u16>,
    /// The reply has started streaming to the client; retries are moot.
    replying: bool,
    /// Absolute deadline granted at admission; `None` when overload
    /// protection is off or deadline shedding is disabled.
    deadline: Option<SimTime>,
    /// Probe replies the dispatch decision is still waiting for
    /// (power-of-two-choices only; 0 otherwise and once dispatched).
    pending_probes: u32,
    /// `(peer, load)` replies collected so far for this decision.
    probed: Vec<(u16, u32)>,
}

/// One intra-cluster message.
#[derive(Debug, Clone)]
pub struct Msg {
    ty: MessageType,
    from: u16,
    to: u16,
    wire: u64,
    /// Request this message belongs to (forward, file), if any.
    req: Option<u64>,
    /// Credits carried by a Flow message.
    credits: u32,
    /// Sender's load at transmit time (piggy-backing / load broadcast).
    sender_load: u32,
    /// The request's delivery attempt when this message was sent.
    attempt: u32,
    /// Causal context: the sender-side span that produced this message
    /// (with `req`, the compact `(request_id, parent_span)` pair every
    /// inter-node message carries). Zero when tracing is off; never read
    /// by simulation logic, only copied into trace events.
    parent_span: u32,
    /// The node that originated this broadcast (== `from` for direct
    /// sends; differs on tree-relayed hops).
    origin: u16,
    /// The origin's load at broadcast time, carried through relays so a
    /// relayed Load still refreshes the receiver's view of the origin.
    origin_load: u32,
    /// Sparse-probe marker: 0 = not a probe, 1 = query, 2 = reply.
    probe: u8,
}

/// Simulation events.
#[derive(Debug, Clone)]
pub enum Event {
    /// A client opens a connection to `node` and sends a request.
    NewRequest { node: u16 },
    /// The initial node finished parsing request `req`.
    Parsed { req: u64 },
    /// The disk at `node` finished reading the file of request `req`.
    DiskDone { req: u64, node: u16 },
    /// An intra-cluster message finished arriving at the receiver's NIC.
    MsgDelivered(Msg),
    /// The receiver's CPU finished consuming the message.
    MsgConsumed(Msg),
    /// The initial node's CPU finished sending the reply.
    ReplyCpuDone { req: u64 },
    /// The external NIC finished transmitting the reply.
    ReplyDelivered { req: u64 },
    /// The failure detector announces a membership change to all survivors.
    Membership { node: u16, alive: bool },
    /// A forwarded request's per-peer timeout expired.
    RetryTimeout { req: u64, attempt: u32 },
    /// A power-of-two-choices decision stopped waiting for probe replies.
    ProbeTimeout { req: u64, attempt: u32 },
}

/// Degraded-mode event counters, accumulated over the whole run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultCounters {
    /// Forwarded requests re-routed after a per-peer timeout.
    pub retries: u64,
    /// Requests that fell back to local disk service.
    pub failovers: u64,
    /// Requests lost outright because their client's node crashed.
    pub requests_lost: u64,
    /// Intra-cluster messages lost (injected drops + dead endpoints).
    pub dropped_messages: u64,
    /// Messages delivered but discarded as corrupted.
    pub corrupted_messages: u64,
    /// Disk accesses that failed and were retried.
    pub disk_retries: u64,
    /// Membership transitions (crashes + recoveries).
    pub membership_epochs: u64,
    /// Arrivals rejected because the node's admission bound was full.
    pub shed_admission: u64,
    /// Requests dropped because their remaining deadline could not cover
    /// the modeled service time.
    pub shed_deadline: u64,
    /// Forwards steered away from a peer whose circuit breaker was open.
    pub breaker_diverts: u64,
    /// Cached copies invalidated by scenario file updates.
    pub invalidations: u64,
}

/// Where the simulated requests come from.
///
/// Both variants hold their (immutable) workload behind an [`Arc`], so a
/// batch of runs over one trace shares a single catalog/sampler instead of
/// deep-copying it per run.
#[derive(Debug, Clone)]
pub enum SimWorkload {
    /// Sample files from a Zipf-distributed synthetic workload.
    Synthetic(Arc<Workload>),
    /// Replay a recorded request log in order, cycling at the end.
    Replay(Arc<RequestLog>),
}

impl SimWorkload {
    pub(crate) fn catalog(&self) -> &FileCatalog {
        match self {
            SimWorkload::Synthetic(wl) => Workload::catalog(wl),
            SimWorkload::Replay(log) => RequestLog::catalog(log),
        }
    }
}

/// The full cluster simulation state.
#[derive(Debug)]
pub struct ClusterSim {
    params: RunParams,
    source: SimWorkload,
    replay_next: usize,
    nodes: Vec<Node>,
    rng: StdRng,
    /// Bitmask of nodes caching each file (supports up to 128 nodes).
    cachers: Vec<u128>,
    ever_requested: Vec<bool>,
    /// `load_views[i][j]` = node i's belief about node j's load.
    load_views: Vec<Vec<u32>>,
    last_broadcast: Vec<u32>,
    /// Flow control per `from → to` channel, indexed `from * n + to`:
    /// the sender's window and the receiver's count of credits owed.
    windows: Vec<CreditWindow<Msg>>,
    credit_returns: Vec<CreditReturns>,
    requests: HashMap<u64, Request>,
    next_req: u64,
    cpu_inflation: f64,
    /// Sampling stream for the sparse dissemination strategies. Separate
    /// from `rng` so legacy strategies (which never draw from it) stay
    /// byte-identical at a fixed seed.
    collect_rng: DetRng,
    // --- fault-injection state ---
    faults: FaultPlan,
    injector: FaultInjector,
    /// Crash/recovery transitions sorted by completed-request trigger.
    fault_schedule: Vec<(u64, u16, bool)>,
    fault_next: usize,
    /// Physical truth: which nodes are up right now.
    alive: Vec<bool>,
    /// What the (delayed) failure detector has announced to survivors,
    /// as a live-member bitmask: the membership epoch every node derives
    /// its dissemination tree from.
    alive_view: u128,
    cache_bytes: u64,
    fault_stats: FaultCounters,
    crashed_now: usize,
    degraded_since: Option<SimTime>,
    time_degraded: SimTime,
    // --- overload-protection state (inert unless params.overload.enabled) ---
    /// Per-(initial, target) circuit breakers, row-major; empty when
    /// overload protection is disabled.
    breakers: Vec<CircuitBreaker>,
    // --- scenario state ---
    /// Scenario operations sorted by completed-request trigger.
    scenario_schedule: Vec<(u64, ScenarioOp)>,
    scenario_next: usize,
    /// Current working-set rotation (mod catalog size).
    drift_offset: u32,
    /// Closed-loop clients to retire: that many request completions skip
    /// re-issuing, shrinking the population deterministically.
    retire_clients: u32,
    // --- measurement state ---
    counters: MsgCounters,
    forwarded: u64,
    served: u64,
    resp_ms: MeanVar,
    resp_hist: Histogram,
    total_completed: u64,
    measured_completed: u64,
    measuring: bool,
    measure_start: SimTime,
    measure_end: SimTime,
    stop_arrivals: bool,
    /// Time and completion count at 75% of the measured window, for the
    /// post-recovery tail-throughput metric.
    tail_start: Option<(SimTime, u64)>,
    /// Span recorder, present only when tracing is enabled. Recording is
    /// passive — it never reads the RNG or mutates simulation state — so
    /// traced and untraced same-seed runs stay byte-identical.
    trace: Option<Box<TraceBuffer>>,
    /// Flight recorder, present only when enabled. Like `trace` it is
    /// passive (deterministic request-id sampling, no RNG reads); it
    /// keeps the last N complete request timelines and snapshots them
    /// when a circuit breaker opens.
    flight: Option<Box<FlightRecorder>>,
}

/// The warm start both engines begin from: each file is placed at a
/// pseudo-random node (as a random first touch would), while that node's
/// `cache_bytes` budget lasts. A multiplicative hash rather than
/// `rank % nodes` keeps the placement realistically uneven: popular files
/// can cluster on a node, which is exactly what load balancing must
/// compensate for.
///
/// Returns each node's files in insertion order — least popular first, so
/// the hottest end most recently used — and each file's cacher bitmask.
pub fn warm_placement(
    catalog: &FileCatalog,
    nodes: usize,
    cache_bytes: u64,
) -> (Vec<Vec<(FileId, u64)>>, Vec<u128>) {
    let mut placement: Vec<Vec<(FileId, u64)>> = vec![Vec::new(); nodes];
    let mut used = vec![0u64; nodes];
    let mut cachers = vec![0u128; catalog.len()];
    for (file, size) in catalog.iter() {
        let node = ((file.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nodes;
        if used[node] + size <= cache_bytes {
            used[node] += size;
            placement[node].push((file, size));
            cachers[file.0 as usize] |= 1 << node;
        }
    }
    for files in &mut placement {
        files.reverse();
    }
    (placement, cachers)
}

impl ClusterSim {
    /// Builds the cluster with warm (pre-filled) caches.
    pub(crate) fn new(params: RunParams, source: SimWorkload, cache_bytes: u64, seed: u64) -> Self {
        assert!(params.nodes >= 1 && params.nodes <= 128, "1..=128 nodes");
        let n = params.nodes;
        if let SimWorkload::Replay(log) = &source {
            assert!(
                !log.requests().is_empty(),
                "replay log must contain requests"
            );
        }
        let catalog = source.catalog();
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| Node::new(NodeId(i as u16), cache_bytes))
            .collect();
        let (placement, cachers) = warm_placement(catalog, n, cache_bytes);
        for (node, files) in placement.into_iter().enumerate() {
            for (file, size) in files {
                let evicted = nodes[node].cache.insert(file, size);
                debug_assert!(evicted.is_empty());
            }
        }
        let ever_requested = cachers.iter().map(|&c| c != 0).collect();

        let rmw_queues = if params.cost.supports_rmw {
            params.version.rmw_queues(n)
        } else {
            1
        };
        let poll_frac = (POLL_COST_NS * rmw_queues as f64 / POLL_INTERVAL_NS).min(0.5);
        let cpu_inflation = 1.0 / (1.0 - poll_frac);

        let faults = params.faults.clone();
        faults.assert_valid(n);
        let breakers = if params.overload.enabled {
            vec![CircuitBreaker::new(params.overload.breaker); n * n]
        } else {
            Vec::new()
        };
        let scenario_schedule = params.scenario.schedule().to_vec();
        ClusterSim {
            nodes,
            source,
            replay_next: 0,
            rng: StdRng::seed_from_u64(seed),
            cachers,
            ever_requested,
            load_views: vec![vec![0; n]; n],
            last_broadcast: vec![0; n],
            windows: vec![CreditWindow::new(CREDIT_WINDOW); n * n],
            credit_returns: vec![CreditReturns::new(CREDIT_BATCH); n * n],
            requests: HashMap::new(),
            next_req: 1,
            cpu_inflation,
            collect_rng: DetRng::new(seed ^ COLLECT_SEED_XOR),
            injector: faults.injector(),
            fault_schedule: faults.schedule(),
            fault_next: 0,
            alive: vec![true; n],
            alive_view: u128::MAX >> (128 - n),
            cache_bytes,
            fault_stats: FaultCounters::default(),
            crashed_now: 0,
            degraded_since: None,
            time_degraded: SimTime::ZERO,
            breakers,
            scenario_schedule,
            scenario_next: 0,
            drift_offset: 0,
            retire_clients: 0,
            faults,
            counters: MsgCounters::default(),
            forwarded: 0,
            served: 0,
            resp_ms: MeanVar::default(),
            resp_hist: Histogram::new(),
            total_completed: 0,
            measured_completed: 0,
            measuring: false,
            measure_start: SimTime::ZERO,
            measure_end: SimTime::ZERO,
            stop_arrivals: false,
            tail_start: None,
            trace: None,
            flight: None,
            params,
        }
    }

    /// Turns on span recording with the default event capacity. Call
    /// before the run starts; recording is passive and does not perturb
    /// the simulation.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Box::new(TraceBuffer::new(press_telem::DEFAULT_TRACE_CAP)));
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take().map(|b| b.into_trace())
    }

    /// Turns on the flight recorder (bounded, deterministic sampling;
    /// passive like span recording). Call before the run starts.
    pub fn enable_flight(&mut self, keep: usize, sample: u64) {
        self.flight = Some(Box::new(FlightRecorder::new(keep, sample)));
    }

    /// Takes the flight recorder, if it was enabled.
    pub fn take_flight(&mut self) -> Option<FlightRecorder> {
        self.flight.take().map(|b| *b)
    }

    /// The next requested file: replayed from the log, or Zipf-sampled,
    /// then rotated by the scenario's current working-set drift.
    fn next_file(&mut self) -> FileId {
        let file = match &self.source {
            SimWorkload::Synthetic(wl) => wl.sample(&mut self.rng),
            SimWorkload::Replay(log) => {
                let requests = log.requests();
                let file = requests[self.replay_next % requests.len()];
                self.replay_next += 1;
                file
            }
        };
        if self.drift_offset == 0 {
            file
        } else {
            let len = self.source.catalog().len() as u32;
            FileId((file.0 + self.drift_offset) % len)
        }
    }

    /// Whether the measured request target has been reached.
    pub fn finished(&self) -> bool {
        self.stop_arrivals
    }

    /// Nodes, for metric extraction.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub(crate) fn counters(&self) -> &MsgCounters {
        &self.counters
    }

    pub(crate) fn measurement_window(&self) -> (SimTime, SimTime) {
        (self.measure_start, self.measure_end)
    }

    pub(crate) fn measured_completed(&self) -> u64 {
        self.measured_completed
    }

    pub(crate) fn response_stats(&self) -> MeanVar {
        self.resp_ms
    }

    pub(crate) fn response_histogram(&self) -> &Histogram {
        &self.resp_hist
    }

    /// Messages still waiting for flow-control credits — nonzero after a
    /// completed run would indicate a credit leak (deadlock).
    pub(crate) fn stuck_messages(&self) -> usize {
        self.windows.iter().map(CreditWindow::queued_len).sum()
    }

    pub(crate) fn fault_stats(&self) -> FaultCounters {
        self.fault_stats
    }

    /// Simulated seconds (within the run) spent with at least one node
    /// down, closed at the end of the measurement window.
    pub(crate) fn degraded_seconds(&self) -> f64 {
        let mut t = self.time_degraded;
        if let Some(s) = self.degraded_since {
            if self.measure_end > s {
                t += self.measure_end - s;
            }
        }
        t.as_secs_f64()
    }

    /// Throughput over the last quarter of the measured requests — the
    /// post-recovery comparison metric for availability experiments.
    pub(crate) fn tail_throughput(&self) -> f64 {
        match self.tail_start {
            Some((t0, c0)) if self.measure_end > t0 => {
                (self.measured_completed - c0) as f64 / (self.measure_end - t0).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    pub(crate) fn forward_fraction(&self) -> f64 {
        let total = self.forwarded + self.served;
        if total == 0 {
            0.0
        } else {
            self.forwarded as f64 / total as f64
        }
    }

    // ----- helpers -----

    fn channel(&self, from: u16, to: u16) -> usize {
        from as usize * self.params.nodes + to as usize
    }

    /// Charges CPU demand (inflated by the background polling overhead)
    /// and returns the completion time.
    fn cpu(&mut self, node: u16, now: SimTime, demand: SimTime, cat: CpuCategory) -> SimTime {
        let inflated = self.inflated(demand);
        self.nodes[node as usize]
            .cpu
            .submit(now, inflated, cat as usize)
    }

    /// The CPU demand after the background-polling inflation that
    /// [`Self::cpu`] applies internally; used to reconstruct span starts
    /// from completion times.
    fn inflated(&self, demand: SimTime) -> SimTime {
        SimTime::from_secs_f64(demand.as_secs_f64() * self.cpu_inflation)
    }

    /// Records one causal trace event into the buffer (when tracing is
    /// on) and the flight recorder (when enabled), returning the span id
    /// assigned to it — 0 when tracing is off. `parent` 0 lets the
    /// buffer auto-chain to the request's previous span; a nonzero
    /// parent (a wire-carried context) wins.
    fn trace_event(&mut self, mut ev: TraceEvent) -> u32 {
        if let Some(t) = self.trace.as_mut() {
            ev = t.record_causal(ev);
            if let Some(f) = self.flight.as_mut() {
                f.observe(ev);
            }
            ev.span
        } else {
            if let Some(f) = self.flight.as_mut() {
                f.observe(ev);
            }
            0
        }
    }

    /// Records an instant trace event; a no-op when tracing is disabled.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event fields
    fn trace_instant(
        &mut self,
        at: SimTime,
        node: u16,
        lane: u16,
        kind: EventKind,
        req: u64,
        a: u64,
        b: u64,
    ) -> u32 {
        self.trace_event(TraceEvent {
            ts_ns: at.as_nanos(),
            dur_ns: 0,
            node,
            lane,
            kind,
            req,
            a,
            b,
            span: 0,
            parent: 0,
        })
    }

    /// Records a complete span covering the service period `start..done`;
    /// a no-op when tracing is disabled.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event fields
    fn trace_span(
        &mut self,
        start: SimTime,
        done: SimTime,
        node: u16,
        lane: u16,
        kind: EventKind,
        req: u64,
        a: u64,
        b: u64,
    ) -> u32 {
        self.trace_event(TraceEvent {
            ts_ns: start.as_nanos(),
            dur_ns: done.as_nanos().saturating_sub(start.as_nanos()),
            node,
            lane,
            kind,
            req,
            a,
            b,
            span: 0,
            parent: 0,
        })
    }

    /// [`Self::trace_span`] with an explicit causal parent — the
    /// receive side of a message stitches to the sender's span via the
    /// wire-carried `(req, parent_span)` context instead of the local
    /// per-request chain.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event fields
    fn trace_span_in(
        &mut self,
        start: SimTime,
        done: SimTime,
        node: u16,
        lane: u16,
        kind: EventKind,
        req: u64,
        a: u64,
        b: u64,
        parent: u32,
    ) -> u32 {
        self.trace_event(TraceEvent {
            ts_ns: start.as_nanos(),
            dur_ns: done.as_nanos().saturating_sub(start.as_nanos()),
            node,
            lane,
            kind,
            req,
            a,
            b,
            span: 0,
            parent,
        })
    }

    fn mode_of(&self, ty: MessageType) -> DeliveryMode {
        if !self.params.cost.supports_rmw {
            return DeliveryMode::Regular;
        }
        if ty == MessageType::Load && self.params.rmw_load_broadcast {
            return DeliveryMode::Rmw;
        }
        self.params.version.mode(ty)
    }

    fn piggyback(&self) -> bool {
        self.params.dissemination == Dissemination::Piggyback
    }

    /// Whether this run uses the press-collect dissemination engine
    /// (tree fan-out for broadcasts, sparse sampling for load). Legacy
    /// strategies return false and execute the unmodified flat paths.
    fn uses_collect(&self) -> bool {
        matches!(
            self.params.dissemination,
            Dissemination::TreeBroadcast(_)
                | Dissemination::PowerOfTwoChoices(_)
                | Dissemination::SparsePull { .. }
        )
    }

    fn needs_credit(&self, ty: MessageType) -> bool {
        self.params.cost.explicit_flow_control
            && matches!(
                ty,
                MessageType::Forward | MessageType::Caching | MessageType::File
            )
    }

    fn tx_copy(&self, ty: MessageType) -> bool {
        // Only file payloads are big enough for copies to matter; TCP's
        // per-byte stack cost already covers its copies.
        ty == MessageType::File
            && self.params.cost.supports_rmw
            && self.params.version.file_tx_copy()
    }

    fn rx_copy(&self, ty: MessageType) -> bool {
        ty == MessageType::File
            && self.params.cost.supports_rmw
            && self.params.version.file_rx_copy()
    }

    /// Whether intra-cluster messages ride the V6 fast path (lock-free
    /// rings, slab pool, doorbell batching). Requires both the version
    /// and a protocol that supports user-level communication.
    fn fast_path(&self) -> bool {
        self.params.cost.supports_rmw && self.params.version.fast_path()
    }

    /// Send-side cost of one intra-cluster message under the active
    /// version: V6 posts lock-free with the doorbell amortized over
    /// [`DOORBELL_BATCH`]; everything else pays the classic path.
    fn send_cost_of(&self, ty: MessageType, wire: u64) -> EndpointCost {
        if self.fast_path() {
            fastpath_send_cost(&self.params.cost, wire, DOORBELL_BATCH)
        } else {
            send_cost(&self.params.cost, wire, self.tx_copy(ty))
        }
    }

    /// Receive-side cost of one intra-cluster message under the active
    /// version.
    fn recv_cost_of(&self, ty: MessageType, wire: u64) -> EndpointCost {
        if self.fast_path() {
            fastpath_recv_cost(&self.params.cost, wire, self.mode_of(ty))
        } else {
            recv_cost(&self.params.cost, wire, self.mode_of(ty), self.rx_copy(ty))
        }
    }

    /// The first alive node at or after `node` (wrapping). The fault plan
    /// guarantees at least one node survives.
    fn route_alive(&self, node: u16) -> u16 {
        let n = self.params.nodes as u16;
        (0..n)
            .map(|off| (node + off) % n)
            .find(|&i| self.alive[i as usize])
            .expect("at least one node alive")
    }

    /// Whether overload protection is live for this run.
    fn protected(&self) -> bool {
        self.params.overload.enabled
    }

    /// Whether `from` may currently forward to `to` per its breaker.
    fn breaker_allows(&self, from: u16, to: u16, now: SimTime) -> bool {
        if self.breakers.is_empty() {
            return true;
        }
        let n = self.params.nodes;
        self.breakers[from as usize * n + to as usize].allow(now.as_micros())
    }

    /// Marks a send on the `from → to` breaker (half-open probe
    /// accounting); a no-op when protection is off.
    fn breaker_on_send(&mut self, from: u16, to: u16, now: SimTime) {
        if self.breakers.is_empty() {
            return;
        }
        let n = self.params.nodes;
        self.breakers[from as usize * n + to as usize].on_send(now.as_micros());
    }

    /// Records a deadline miss on the `from → to` breaker. A closed→open
    /// transition trips the flight recorder: the last complete sampled
    /// traces are frozen under a `breaker-open` reason.
    fn breaker_failure(&mut self, from: u16, to: u16, now: SimTime) {
        if self.breakers.is_empty() {
            return;
        }
        let n = self.params.nodes;
        let b = &mut self.breakers[from as usize * n + to as usize];
        let was_open = b.is_open(now.as_micros());
        b.record_failure(now.as_micros());
        let is_open = b.is_open(now.as_micros());
        if !was_open && is_open {
            if let Some(f) = self.flight.as_mut() {
                f.trip(&format!("breaker-open {from}->{to}"), now.as_nanos());
            }
        }
    }

    /// Records a timely answer on the `from → to` breaker.
    fn breaker_success(&mut self, from: u16, to: u16) {
        if self.breakers.is_empty() {
            return;
        }
        let n = self.params.nodes;
        self.breakers[from as usize * n + to as usize].record_success();
    }

    /// The modeled completion time the deadline shedder assumes for this
    /// request at `node`: the current CPU backlog, plus reply
    /// transmission, plus the disk backlog and one access when the
    /// content is not locally cached. Including the *queueing* terms is
    /// what gives the shedder teeth under overload — the per-request
    /// work barely changes when a flash crowd hits, the backlog is what
    /// explodes, and a request that would spend its whole deadline in a
    /// queue is exactly the one worth refusing.
    fn modeled_service(&self, now: SimTime, node: u16, file: FileId, bytes: u64) -> SimTime {
        let st = &self.nodes[node as usize];
        let backlog = |busy_until: SimTime| {
            if busy_until > now {
                busy_until - now
            } else {
                SimTime::ZERO
            }
        };
        let reply = self.params.rates.reply_time(bytes + REPLY_HEADER_BYTES);
        let est = backlog(st.cpu.busy_until()) + reply;
        if st.cache.contains(file) {
            est
        } else {
            est + backlog(st.disk.busy_until()) + st.disk_model.access_time(bytes)
        }
    }

    /// A shed client's closed loop continues after a backoff: the client
    /// saw an explicit rejection and retries later.
    fn requeue_shed_client(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        if !self.stop_arrivals {
            let next = self.rng.gen_range(0..self.params.nodes) as u16;
            sched.schedule(now + SHED_RETRY_DELAY, Event::NewRequest { node: next });
        }
    }

    /// Applies every scenario operation whose completed-request trigger
    /// has been reached (mirrors [`Self::process_fault_schedule`]).
    fn process_scenario_schedule(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        while let Some(&(at, op)) = self.scenario_schedule.get(self.scenario_next) {
            if self.total_completed < at {
                break;
            }
            self.scenario_next += 1;
            match op {
                ScenarioOp::ClientsDelta(d) if d > 0 => {
                    // A surge: d new closed-loop clients connect, their
                    // arrivals staggered like the driver's initial ramp.
                    for k in 0..d as u64 {
                        if self.stop_arrivals {
                            break;
                        }
                        let node = self.rng.gen_range(0..self.params.nodes) as u16;
                        let at = now + SimTime::from_nanos(SURGE_STAGGER.as_nanos() * k);
                        sched.schedule(at, Event::NewRequest { node });
                    }
                }
                ScenarioOp::ClientsDelta(d) => {
                    self.retire_clients += (-d) as u32;
                }
                ScenarioOp::Drift(offset) => {
                    let len = self.source.catalog().len() as u32;
                    self.drift_offset = offset % len.max(1);
                }
                ScenarioOp::FileUpdate(raw) => {
                    let len = self.source.catalog().len() as u32;
                    let file = FileId(raw % len.max(1));
                    self.invalidate_file(now, file, sched);
                }
            }
        }
    }

    /// The file's content changed: drop every cached copy cluster-wide
    /// and clear the caching knowledge, so the next request re-reads it.
    fn invalidate_file(&mut self, _now: SimTime, file: FileId, _sched: &mut Scheduler<Event>) {
        let mask = self.cachers[file.0 as usize];
        for node in 0..self.params.nodes as u16 {
            if mask & (1 << node) != 0 && self.nodes[node as usize].cache.remove(file) {
                self.fault_stats.invalidations += 1;
            }
        }
        self.cachers[file.0 as usize] = 0;
    }

    /// Grants `credits` to the `from → to` channel and transmits any
    /// messages they unblock (the Flow-consumption path, also used as the
    /// modeled NACK repair when a Flow message itself is lost).
    fn grant_credits(
        &mut self,
        now: SimTime,
        from: u16,
        to: u16,
        credits: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let ch = self.channel(from, to);
        let released: Vec<Msg> = self.windows[ch].grant(credits).collect();
        self.trace_instant(
            now,
            from,
            lane::MAIN,
            EventKind::CreditGrant,
            0,
            credits as u64,
            to as u64,
        );
        // Pop everything before sending anything: a send that is lost
        // calls back into this window through `credit_back`.
        for m in released {
            self.transmit(now, m, sched);
        }
    }

    /// Returns one credit to the `from → to` channel after a message it
    /// paid for was lost; the credit immediately funds the next queued
    /// message if one is waiting.
    fn credit_back(&mut self, now: SimTime, from: u16, to: u16, sched: &mut Scheduler<Event>) {
        let ch = self.channel(from, to);
        // A non-empty queue means no credits: one credit releases at most
        // one message.
        let released = self.windows[ch].grant(1).next();
        if let Some(m) = released {
            self.transmit(now, m, sched);
        }
    }

    /// Builds and sends one intra-cluster message, respecting flow control.
    #[allow(clippy::too_many_arguments)] // mirrors the wire-message fields
    fn send_msg(
        &mut self,
        now: SimTime,
        ty: MessageType,
        from: u16,
        to: u16,
        data_len: u64,
        req: Option<u64>,
        credits: u32,
        sched: &mut Scheduler<Event>,
    ) {
        self.send_msg_ext(now, ty, from, to, data_len, req, credits, from, 0, 0, sched);
    }

    /// [`Self::send_msg`] with explicit dissemination routing: `origin`
    /// (the broadcast's root, ≠ `from` on tree-relayed hops), the
    /// origin's load at broadcast time, and the sparse-probe marker.
    #[allow(clippy::too_many_arguments)] // mirrors the wire-message fields
    fn send_msg_ext(
        &mut self,
        now: SimTime,
        ty: MessageType,
        from: u16,
        to: u16,
        data_len: u64,
        req: Option<u64>,
        credits: u32,
        origin: u16,
        origin_load: u32,
        probe: u8,
        sched: &mut Scheduler<Event>,
    ) {
        debug_assert_ne!(from, to, "no self-messages");
        let mode = self.mode_of(ty);
        let wire = wire_bytes(ty, data_len, mode, self.piggyback());
        let attempt = req
            .and_then(|id| self.requests.get(&id))
            .map_or(0, |r| r.attempt);
        let msg = Msg {
            ty,
            from,
            to,
            wire,
            req,
            credits,
            sender_load: self.nodes[from as usize].open_connections,
            attempt,
            parent_span: 0,
            origin,
            origin_load,
            probe,
        };
        if !self.needs_credit(ty) {
            self.transmit(now, msg, sched);
            return;
        }
        let ch = self.channel(from, to);
        match self.windows[ch].admit(msg) {
            Some(msg) => self.transmit(now, msg, sched),
            None => {
                let depth = self.windows[ch].queued_len() as u64;
                self.trace_instant(
                    now,
                    from,
                    lane::MAIN,
                    EventKind::CreditStall,
                    req.unwrap_or(0),
                    depth,
                    to as u64,
                );
            }
        }
    }

    /// Pays the send-side costs and schedules delivery.
    fn transmit(&mut self, now: SimTime, mut msg: Msg, sched: &mut Scheduler<Event>) {
        // Load is piggy-backed at the instant of transmission.
        msg.sender_load = self.nodes[msg.from as usize].open_connections;
        self.counters.record(msg.ty, msg.wire);
        let sc = self.send_cost_of(msg.ty, msg.wire);
        let cpu_done = self.cpu(msg.from, now, sc.cpu, CpuCategory::IntComm);
        if self.fast_path() {
            // Fast-path post: one doorbell rung per DOORBELL_BATCH
            // coalesced sends. The instant makes the coalescing factor
            // visible in traces next to the ViaSend span.
            self.trace_instant(
                cpu_done,
                msg.from,
                lane::MAIN,
                EventKind::ViaPost,
                msg.req.unwrap_or(0),
                msg.wire,
                DOORBELL_BATCH as u64,
            );
        }
        let nic_done = self.nodes[msg.from as usize]
            .nic_int_tx
            .submit(cpu_done, sc.nic, 0);
        let req = msg.req.unwrap_or(0);
        // The ViaSend span is the causal context this message carries on
        // the wire: the receive side stitches its ViaRecv to it.
        msg.parent_span = self.trace_span(
            cpu_done - self.inflated(sc.cpu),
            cpu_done,
            msg.from,
            lane::MAIN,
            EventKind::ViaSend,
            req,
            msg.wire,
            msg.ty as u64,
        );
        self.trace_span(
            nic_done - sc.nic,
            nic_done,
            msg.from,
            lane::NIC_INT,
            EventKind::NicTx,
            req,
            msg.wire,
            msg.to as u64,
        );
        if self.mode_of(msg.ty) == DeliveryMode::Rmw {
            self.trace_instant(
                cpu_done,
                msg.from,
                lane::MAIN,
                EventKind::RdmaWrite,
                req,
                msg.wire,
                msg.to as u64,
            );
        }
        // Injected loss: the sender has paid its costs, the wire delivers
        // nothing. Credits the message consumed are repaired out-of-band
        // (the modeled NACK/retransmit of the tiny control path) so flow
        // control degrades instead of deadlocking.
        if self.injector.drop_message() {
            self.fault_stats.dropped_messages += 1;
            if self.needs_credit(msg.ty) {
                self.credit_back(now, msg.from, msg.to, sched);
            }
            if msg.ty == MessageType::Flow && msg.credits > 0 {
                self.grant_credits(now, msg.to, msg.from, msg.credits, sched);
            }
            return;
        }
        let mut arrive = nic_done + self.params.cost.wire_latency;
        if let Some(extra) = self.injector.delay_message() {
            arrive += SimTime::from_micros(extra);
        }
        let rc = self.recv_cost_of(msg.ty, msg.wire);
        let rx_done = self.nodes[msg.to as usize]
            .nic_int_rx
            .submit(arrive, rc.nic, 0);
        sched.schedule(rx_done, Event::MsgDelivered(msg));
    }

    /// Fans a broadcast one hop down the dissemination tree rooted at
    /// `origin`: sends to `me`'s children in the tree derived from the
    /// current membership epoch. Every hop rebuilds the tree from its own
    /// live mask, so a crash or rejoin between hops re-routes the
    /// remainder of the broadcast automatically (epoch-aware repair).
    fn tree_fanout(
        &mut self,
        now: SimTime,
        ty: MessageType,
        me: u16,
        origin: u16,
        origin_load: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let topo = select_topology(self.alive_view.count_ones(), 0);
        let tree = TreeView::build(topo, origin, self.alive_view, self.params.nodes as u16);
        let children = tree.children(me);
        if children.is_empty() {
            return;
        }
        self.trace_instant(
            now,
            me,
            lane::MAIN,
            EventKind::TreeRelay,
            0,
            origin as u64,
            children.len() as u64,
        );
        for c in children {
            self.send_msg_ext(now, ty, me, c, 0, None, 0, origin, origin_load, 0, sched);
        }
    }

    /// Threshold-triggered sparse pull: instead of broadcasting its load
    /// to everyone, `node` probes a few sampled live peers. The query
    /// carries the puller's load (refreshing the peer's view of us), the
    /// reply carries the peer's (refreshing ours) — a bidirectional view
    /// refresh at `2 × fanout` messages instead of `N - 1`.
    fn sparse_pull(&mut self, now: SimTime, node: u16, fanout: u32, sched: &mut Scheduler<Event>) {
        let targets = sample_peers(
            &mut self.collect_rng,
            node,
            self.alive_view,
            self.params.nodes as u16,
            fanout as usize,
        );
        for t in targets {
            self.trace_instant(now, node, lane::MAIN, EventKind::LoadProbe, 0, t as u64, 0);
            self.send_msg_ext(
                now,
                MessageType::Load,
                node,
                t,
                0,
                None,
                0,
                node,
                0,
                1,
                sched,
            );
        }
    }

    /// A connection opened or closed at `node`: update the local view and
    /// broadcast under threshold dissemination.
    fn load_changed(&mut self, now: SimTime, node: u16, sched: &mut Scheduler<Event>) {
        let load = self.nodes[node as usize].open_connections;
        self.load_views[node as usize][node as usize] = load;
        if self
            .params
            .dissemination
            .should_broadcast(load, self.last_broadcast[node as usize])
        {
            self.last_broadcast[node as usize] = load;
            match self.params.dissemination {
                Dissemination::TreeBroadcast(_) => {
                    self.tree_fanout(now, MessageType::Load, node, node, load, sched);
                }
                Dissemination::SparsePull { fanout, .. } => {
                    self.sparse_pull(now, node, fanout, sched);
                }
                _ => {
                    for peer in 0..self.params.nodes as u16 {
                        if peer != node {
                            self.send_msg(now, MessageType::Load, node, peer, 0, None, 0, sched);
                        }
                    }
                }
            }
        }
    }

    /// Inserts a freshly read file into `node`'s cache and broadcasts the
    /// caching information (insertions and the evictions they caused share
    /// one broadcast, as replacement notices).
    fn cache_insert(
        &mut self,
        now: SimTime,
        node: u16,
        file: FileId,
        sched: &mut Scheduler<Event>,
    ) {
        let bytes = self.source.catalog().size(file);
        let evicted = self.nodes[node as usize].cache.insert(file, bytes);
        let bit = 1u128 << node;
        self.cachers[file.0 as usize] |= bit;
        for ev in &evicted {
            self.cachers[ev.0 as usize] &= !bit;
        }
        if self.uses_collect() {
            // Caching info still reaches everyone, but along the tree:
            // the origin pays O(fan-out) sends instead of N - 1.
            self.tree_fanout(now, MessageType::Caching, node, node, 0, sched);
        } else {
            for peer in 0..self.params.nodes as u16 {
                if peer != node {
                    self.send_msg(now, MessageType::Caching, node, peer, 0, None, 0, sched);
                }
            }
        }
    }

    /// Sends the file of `req` from `from` to the request's initial node:
    /// data segments plus, for RMW transfers, one metadata message.
    fn send_file(&mut self, now: SimTime, req_id: u64, from: u16, sched: &mut Scheduler<Event>) {
        let (to, bytes) = {
            let Some(req) = self.requests.get(&req_id) else {
                return;
            };
            (req.initial.0, req.bytes)
        };
        let segments = bytes.div_ceil(FILE_SEGMENT_BYTES).max(1);
        let metadata = self.mode_of(MessageType::File) == DeliveryMode::Rmw
            && self.params.version.file_metadata_message();
        let total = segments as u32 + u32::from(metadata);
        if let Some(req) = self.requests.get_mut(&req_id) {
            req.pending_file_msgs = total;
        }
        let mut remaining = bytes;
        for _ in 0..segments {
            let seg = remaining.min(FILE_SEGMENT_BYTES);
            remaining -= seg;
            self.send_msg(
                now,
                MessageType::File,
                from,
                to,
                seg,
                Some(req_id),
                0,
                sched,
            );
        }
        if metadata {
            // The metadata message: file id + offset + length, no payload.
            self.send_msg(now, MessageType::File, from, to, 0, Some(req_id), 0, sched);
        }
    }

    /// The initial node starts sending the reply to the client.
    fn start_reply(&mut self, now: SimTime, req_id: u64, sched: &mut Scheduler<Event>) {
        let (node, bytes) = {
            let Some(req) = self.requests.get_mut(&req_id) else {
                return;
            };
            req.replying = true;
            (req.initial.0, req.bytes)
        };
        let demand = self.params.rates.reply_time(bytes + REPLY_HEADER_BYTES);
        let done = self.cpu(node, now, demand, CpuCategory::ExtCommService);
        self.trace_span(
            done - self.inflated(demand),
            done,
            node,
            lane::MAIN,
            EventKind::ReplyCpu,
            req_id,
            bytes,
            0,
        );
        sched.schedule(done, Event::ReplyCpuDone { req: req_id });
    }

    /// Serves `req` at `node` from cache or disk, then replies/transfers.
    fn service_request(
        &mut self,
        now: SimTime,
        req_id: u64,
        node: u16,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        let (file, bytes) = (req.file, req.bytes);
        if self.nodes[node as usize].cache.touch(file) {
            self.trace_instant(now, node, lane::MAIN, EventKind::CacheHit, req_id, bytes, 0);
            self.after_content_ready(now, req_id, node, sched);
        } else {
            let demand = self.nodes[node as usize].disk_model.access_time(bytes);
            let done = self.nodes[node as usize].disk.submit(now, demand, 0);
            self.trace_span(
                done - demand,
                done,
                node,
                lane::DISK,
                EventKind::DiskRead,
                req_id,
                bytes,
                0,
            );
            sched.schedule(done, Event::DiskDone { req: req_id, node });
        }
    }

    /// The content is in `node`'s memory: reply (if initial) or transfer.
    fn after_content_ready(
        &mut self,
        now: SimTime,
        req_id: u64,
        node: u16,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        if req.initial.0 == node {
            self.start_reply(now, req_id, sched);
        } else {
            self.send_file(now, req_id, node, sched);
        }
    }

    fn complete_request(&mut self, now: SimTime, req_id: u64, sched: &mut Scheduler<Event>) {
        let Some(req) = self.requests.remove(&req_id) else {
            return;
        };
        let node = req.initial.0;
        self.trace_instant(
            now,
            node,
            lane::MAIN,
            EventKind::Done,
            req_id,
            (now - req.started).as_nanos() / 1_000,
            req.bytes,
        );
        let oc = &mut self.nodes[node as usize].open_connections;
        *oc = oc.saturating_sub(1);
        self.load_changed(now, node, sched);
        self.total_completed += 1;
        if self.measuring && !self.stop_arrivals {
            self.measured_completed += 1;
            let ms = (now - req.started).as_secs_f64() * 1e3;
            self.resp_ms.push(ms);
            self.resp_hist.record(ms);
            if req.forwarded {
                self.forwarded += 1;
            } else {
                self.served += 1;
            }
            if self.tail_start.is_none()
                && self.measured_completed >= self.params.measure_requests * 3 / 4
            {
                self.tail_start = Some((now, self.measured_completed));
            }
            if self.measured_completed >= self.params.measure_requests && !self.stop_arrivals {
                self.measure_end = now;
                self.stop_arrivals = true;
            }
        } else if !self.measuring && self.total_completed >= self.params.warmup_requests {
            self.begin_measurement(now);
        }
        self.process_fault_schedule(now, sched);
        self.process_scenario_schedule(now, sched);
        // Closed loop: the client immediately issues its next request to a
        // uniformly random node — unless the scenario is retiring clients,
        // in which case this one leaves the population.
        if !self.stop_arrivals {
            if self.retire_clients > 0 {
                self.retire_clients -= 1;
            } else {
                let next = self.rng.gen_range(0..self.params.nodes) as u16;
                sched.schedule(now, Event::NewRequest { node: next });
            }
        }
    }

    fn begin_measurement(&mut self, now: SimTime) {
        self.measuring = true;
        self.measure_start = now;
        self.counters = MsgCounters::default();
        self.resp_ms = MeanVar::default();
        self.resp_hist = Histogram::new();
        self.forwarded = 0;
        self.served = 0;
        for n in &mut self.nodes {
            n.reset_stats();
        }
    }

    /// Arms the per-peer timeout for a forwarded request. Only runs when
    /// the fault plan is active or overload protection is on (the breaker
    /// needs timeouts to observe deadline misses), so default runs
    /// schedule no extra events and stay byte-identical to the pre-fault
    /// code paths.
    fn schedule_retry(
        &mut self,
        now: SimTime,
        req_id: u64,
        attempt: u32,
        sched: &mut Scheduler<Event>,
    ) {
        if self.faults.is_active() || self.protected() {
            let at = now + SimTime::from_micros(self.faults.backoff_micros(req_id, attempt));
            sched.schedule(
                at,
                Event::RetryTimeout {
                    req: req_id,
                    attempt,
                },
            );
        }
    }

    /// A forwarded request timed out: re-route it to the next-best caching
    /// node the initial node believes is alive, or fall back to local disk
    /// service once candidates or retries run out.
    fn retry_request(&mut self, now: SimTime, req_id: u64, sched: &mut Scheduler<Event>) {
        let (initial, file, attempt, prev_server) = {
            let r = &self.requests[&req_id];
            (r.initial.0, r.file, r.attempt, r.server)
        };
        let next_attempt = attempt + 1;
        // Next-best: alive (as far as the initial node knows), caching the
        // file, not the peer that just failed us, and not behind an open
        // circuit breaker.
        let target = if next_attempt > self.faults.max_retries {
            None
        } else {
            let failed = prev_server.map_or(0, |s| 1 << s);
            policy::least_loaded(
                self.cachers[file.0 as usize] & self.alive_view & !(1 << initial) & !failed,
                view_load(&self.load_views[initial as usize]),
                |c| self.breaker_allows(initial, c, now),
            )
        };
        let Some(NodeId(target)) = target else {
            self.fault_stats.failovers += 1;
            self.trace_instant(
                now,
                initial,
                lane::MAIN,
                EventKind::Failover,
                req_id,
                next_attempt as u64,
                initial as u64,
            );
            if let Some(r) = self.requests.get_mut(&req_id) {
                r.attempt = next_attempt;
                r.server = Some(initial);
                r.pending_file_msgs = 0;
            }
            self.service_request(now, req_id, initial, sched);
            return;
        };
        self.fault_stats.retries += 1;
        self.trace_instant(
            now,
            initial,
            lane::MAIN,
            EventKind::Retry,
            req_id,
            next_attempt as u64,
            target as u64,
        );
        if let Some(r) = self.requests.get_mut(&req_id) {
            r.attempt = next_attempt;
            r.server = Some(target);
            r.pending_file_msgs = 0;
        }
        self.breaker_on_send(initial, target, now);
        self.send_msg(
            now,
            MessageType::Forward,
            initial,
            target,
            0,
            Some(req_id),
            0,
            sched,
        );
        self.schedule_retry(now, req_id, next_attempt, sched);
    }

    /// One probe reply arrived for a deferred power-of-two-choices
    /// decision; dispatch once the last expected reply is in.
    fn probe_reply(
        &mut self,
        now: SimTime,
        req_id: u64,
        from: u16,
        load: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let ready = {
            let Some(r) = self.requests.get_mut(&req_id) else {
                return;
            };
            // Already dispatched (timeout beat us) or never probing.
            if r.pending_probes == 0 {
                return;
            }
            r.probed.push((from, load));
            r.pending_probes -= 1;
            r.pending_probes == 0
        };
        if ready {
            self.dispatch_probed(now, req_id, sched);
        }
    }

    /// Acts on a probed decision with whatever replies arrived: forward
    /// to the least-loaded probed peer (fresh loads, not a lagging view)
    /// or serve locally.
    fn dispatch_probed(&mut self, now: SimTime, req_id: u64, sched: &mut Scheduler<Event>) {
        let (node, file, probed) = {
            let Some(r) = self.requests.get_mut(&req_id) else {
                return;
            };
            r.pending_probes = 0;
            (r.initial.0, r.file, std::mem::take(&mut r.probed))
        };
        let decision = if probed.is_empty() {
            // Every probe timed out (lost or badly delayed). Serving
            // locally would replicate the file through a disk read; the
            // NLB-style fallback — lowest-numbered live cacher — keeps
            // the request on a cached copy.
            policy::lowest(self.cachers[file.0 as usize] & self.alive_view & !(1 << node))
        } else {
            let own = self.nodes[node as usize].open_connections;
            policy::decide_probed(&self.params.policy, NodeId(node), own, &probed)
        };
        // Steer to the best probed peer the breaker still admits.
        let checked = policy::divert(
            decision,
            NodeId(node),
            policy::probed_mask(&probed),
            policy::probed_load(&probed),
            |c| self.breaker_allows(node, c, now),
        );
        self.act_on(now, req_id, node, checked, sched);
    }

    /// Acts on a breaker-checked decision at `node`, counting a
    /// diversion: serve the request there or forward it (the acting half
    /// shared by the view-based and probed paths).
    fn act_on(
        &mut self,
        now: SimTime,
        req_id: u64,
        node: u16,
        (decision, diverted): (Decision, bool),
        sched: &mut Scheduler<Event>,
    ) {
        self.fault_stats.breaker_diverts += u64::from(diverted);
        let (forward, server) = match decision {
            Decision::ServeLocal => (false, node),
            Decision::Forward(t) => (true, t.0),
        };
        self.trace_instant(
            now,
            node,
            lane::MAIN,
            EventKind::Dispatch,
            req_id,
            u64::from(forward),
            server as u64,
        );
        if let Some(r) = self.requests.get_mut(&req_id) {
            r.forwarded |= forward;
            r.server = Some(server);
        }
        if !forward {
            self.service_request(now, req_id, node, sched);
            return;
        }
        self.breaker_on_send(node, server, now);
        self.send_msg(
            now,
            MessageType::Forward,
            node,
            server,
            0,
            Some(req_id),
            0,
            sched,
        );
        self.schedule_retry(now, req_id, 0, sched);
    }

    /// Makes the distribution decision for a parsed request (Section 2.2)
    /// and acts on it. Factored out of the `Parsed` event so the probing
    /// strategies can defer the decision and re-enter the acting half
    /// from [`Self::dispatch_probed`] once replies arrive.
    fn dispatch_request(&mut self, now: SimTime, req_id: u64, sched: &mut Scheduler<Event>) {
        let (node, file, bytes) = {
            let Some(req) = self.requests.get(&req_id) else {
                return;
            };
            (req.initial.0, req.file, req.bytes)
        };
        let first = !self.ever_requested[file.0 as usize];
        self.ever_requested[file.0 as usize] = true;
        // Peers the failure detector has evicted are not
        // forwarding candidates, whatever the caching info says.
        let cachers = self.cachers[file.0 as usize] & self.alive_view;
        // Power-of-two-choices: a request that would consult the lagging
        // load view instead probes a few sampled cachers for their live
        // load and defers the decision to the replies. The guards mirror
        // policy steps 1–2, which never look at loads.
        if self.params.dissemination.probes_on_decision()
            && !first
            && bytes < self.params.policy.large_file_cutoff
            && !self.nodes[node as usize].cache.contains(file)
        {
            let pmask = cachers & !(1 << node);
            if pmask != 0 {
                let d = self.params.dissemination.probe_fanout() as usize;
                let targets = sample_peers(
                    &mut self.collect_rng,
                    node,
                    pmask,
                    self.params.nodes as u16,
                    d,
                );
                let attempt = self.requests.get(&req_id).map_or(0, |r| r.attempt);
                if let Some(r) = self.requests.get_mut(&req_id) {
                    r.pending_probes = targets.len() as u32;
                    r.probed.clear();
                }
                for &t in &targets {
                    self.trace_instant(
                        now,
                        node,
                        lane::MAIN,
                        EventKind::LoadProbe,
                        req_id,
                        t as u64,
                        0,
                    );
                    self.send_msg_ext(
                        now,
                        MessageType::Load,
                        node,
                        t,
                        0,
                        Some(req_id),
                        0,
                        node,
                        0,
                        1,
                        sched,
                    );
                }
                sched.schedule(
                    now + PROBE_TIMEOUT,
                    Event::ProbeTimeout {
                        req: req_id,
                        attempt,
                    },
                );
                return;
            }
        }
        let decision = policy::decide(
            &self.params.policy,
            &RequestView {
                initial: NodeId(node),
                file_bytes: bytes,
                cached_locally: self.nodes[node as usize].cache.contains(file),
                first_request: first,
                cachers,
                loads: &self.load_views[node as usize],
                load_balancing: self.params.dissemination.load_balancing(),
            },
        );
        // Circuit breaker: a peer that keeps missing deadlines is not a
        // forwarding target. Steer to the best-admissible cacher, or
        // serve locally rather than pile onto a saturated one.
        let checked = policy::divert(
            decision,
            NodeId(node),
            cachers,
            view_load(&self.load_views[node as usize]),
            |c| self.breaker_allows(node, c, now),
        );
        self.act_on(now, req_id, node, checked, sched);
    }

    /// Applies every crash/recovery transition whose completed-request
    /// trigger has been reached.
    fn process_fault_schedule(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        while let Some(&(at, node, alive)) = self.fault_schedule.get(self.fault_next) {
            if self.total_completed < at {
                break;
            }
            self.fault_next += 1;
            if alive {
                self.recover_node(now, node, sched);
            } else {
                self.crash_node(now, node, sched);
            }
        }
    }

    /// Resets both flow-control directions between `node` and every peer
    /// (fresh VI connections after a crash or a rejoin). Queued messages
    /// never consumed credits, so clearing them is loss, not leak.
    fn reset_channels(&mut self, node: u16) {
        for peer in 0..self.params.nodes as u16 {
            if peer == node {
                continue;
            }
            for (a, b) in [(node, peer), (peer, node)] {
                let ch = self.channel(a, b);
                self.credit_returns[ch].forget();
                self.fault_stats.dropped_messages += self.windows[ch].refill() as u64;
            }
        }
    }

    fn crash_node(&mut self, now: SimTime, node: u16, sched: &mut Scheduler<Event>) {
        if !self.alive[node as usize] {
            return;
        }
        self.alive[node as usize] = false;
        self.crashed_now += 1;
        self.trace_instant(now, node, lane::MAIN, EventKind::Crash, 0, 0, 0);
        self.fault_stats.membership_epochs += 1;
        if self.degraded_since.is_none() {
            self.degraded_since = Some(now);
        }
        self.nodes[node as usize].open_connections = 0;
        self.reset_channels(node);
        // Requests whose client connection terminated at the dead node are
        // lost; their closed-loop clients reconnect elsewhere. Requests
        // merely *serviced* by the dead node stay alive — their retry
        // timers re-route them. Sorted iteration keeps same-seed runs
        // byte-identical (HashMap order is process-random).
        let mut doomed: Vec<u64> = self
            .requests
            // press::allow(hash-iter): sorted below before any effect.
            .iter()
            .filter(|(_, r)| r.initial.0 == node)
            .map(|(&id, _)| id)
            .collect();
        doomed.sort_unstable();
        for id in doomed {
            self.requests.remove(&id);
            self.fault_stats.requests_lost += 1;
            if !self.stop_arrivals {
                let next = self.rng.gen_range(0..self.params.nodes) as u16;
                sched.schedule(now + RECONNECT_DELAY, Event::NewRequest { node: next });
            }
        }
        let detect = now + SimTime::from_micros(self.faults.detection_micros);
        sched.schedule(detect, Event::Membership { node, alive: false });
    }

    fn recover_node(&mut self, now: SimTime, node: u16, sched: &mut Scheduler<Event>) {
        if self.alive[node as usize] {
            return;
        }
        self.alive[node as usize] = true;
        self.crashed_now -= 1;
        self.trace_instant(now, node, lane::MAIN, EventKind::Recover, 0, 0, 0);
        self.fault_stats.membership_epochs += 1;
        // Cold restart: empty cache, no stale caching knowledge, fresh
        // flow-control windows, zeroed load beliefs in both directions.
        self.nodes[node as usize].cache = FileCache::new(self.cache_bytes);
        let bit = 1u128 << node;
        for m in self.cachers.iter_mut() {
            *m &= !bit;
        }
        self.reset_channels(node);
        let n = self.params.nodes;
        for view in self.load_views.iter_mut() {
            view[node as usize] = 0;
        }
        self.load_views[node as usize] = vec![0; n];
        self.last_broadcast[node as usize] = 0;
        if self.crashed_now == 0 {
            if let Some(s) = self.degraded_since.take() {
                self.time_degraded += now - s;
            }
        }
        let detect = now + SimTime::from_micros(self.faults.detection_micros);
        sched.schedule(detect, Event::Membership { node, alive: true });
    }

    fn handle_consumed(&mut self, now: SimTime, msg: Msg, sched: &mut Scheduler<Event>) {
        // The consumer crashed between delivery and consumption: the
        // message dies with it (its channels were already reset).
        if !self.alive[msg.to as usize] {
            self.fault_stats.dropped_messages += 1;
            return;
        }
        // Credit-consuming messages eventually trigger a credit return.
        // The buffer is freed whatever the payload looks like, so this
        // happens before the corruption check.
        if self.needs_credit(msg.ty) {
            let ch = self.channel(msg.from, msg.to);
            if let Some(credits) = self.credit_returns[ch].count_consumed() {
                self.send_msg(
                    now,
                    MessageType::Flow,
                    msg.to,
                    msg.from,
                    0,
                    None,
                    credits,
                    sched,
                );
            }
        }
        // Injected corruption: the content is discarded after the buffer
        // is freed. Flow messages are exempt — their one-word credit
        // update is covered by the modeled NACK path, and discarding it
        // would deadlock the window rather than degrade it.
        if msg.ty != MessageType::Flow && self.injector.corrupt_message() {
            self.fault_stats.corrupted_messages += 1;
            return;
        }
        // Piggy-backed load refreshes the receiver's view of the sender.
        if self.piggyback() || msg.ty == MessageType::Load {
            self.load_views[msg.to as usize][msg.from as usize] = msg.sender_load;
        }
        // A tree-relayed Load also refreshes the view of the broadcast's
        // origin, whose load rode along through the relay hops.
        if msg.ty == MessageType::Load && msg.probe == 0 && msg.origin != msg.from {
            self.load_views[msg.to as usize][msg.origin as usize] = msg.origin_load;
        }
        match msg.ty {
            MessageType::Load | MessageType::Caching => {
                if msg.probe == 1 {
                    // Sparse probe query: answer with our own load (the
                    // reply's sender_load, set at transmit). Echo the
                    // request id so a P2C decision can collect replies.
                    self.trace_instant(
                        now,
                        msg.to,
                        lane::MAIN,
                        EventKind::LoadProbe,
                        msg.req.unwrap_or(0),
                        msg.from as u64,
                        0,
                    );
                    self.send_msg_ext(
                        now,
                        MessageType::Load,
                        msg.to,
                        msg.from,
                        0,
                        msg.req,
                        0,
                        msg.to,
                        0,
                        2,
                        sched,
                    );
                } else if msg.probe == 2 {
                    self.trace_instant(
                        now,
                        msg.to,
                        lane::MAIN,
                        EventKind::LoadProbe,
                        msg.req.unwrap_or(0),
                        msg.from as u64,
                        1,
                    );
                    if let Some(req_id) = msg.req {
                        self.probe_reply(now, req_id, msg.from, msg.sender_load, sched);
                    }
                } else if self.uses_collect()
                    && (msg.ty == MessageType::Caching
                        || self.params.dissemination.tree_dissemination())
                {
                    // Relay the broadcast one hop further down the tree,
                    // rebuilt from our current membership epoch.
                    self.tree_fanout(now, msg.ty, msg.to, msg.origin, msg.origin_load, sched);
                }
            }
            MessageType::Flow => {
                self.grant_credits(now, msg.to, msg.from, msg.credits, sched);
            }
            MessageType::Forward => {
                let req_id = msg.req.expect("forward carries a request");
                // The request may have been lost with its client's node,
                // or already re-routed to a different attempt.
                let Some(r) = self.requests.get(&req_id) else {
                    return;
                };
                if r.attempt != msg.attempt {
                    return;
                }
                self.service_request(now, req_id, msg.to, sched);
            }
            MessageType::File => {
                let req_id = msg.req.expect("file message carries a request");
                let Some(req) = self.requests.get_mut(&req_id) else {
                    return;
                };
                if req.attempt != msg.attempt {
                    return;
                }
                req.pending_file_msgs -= 1;
                if req.pending_file_msgs == 0 {
                    // The serving peer answered: its breaker (re-)closes.
                    self.breaker_success(msg.to, msg.from);
                    self.start_reply(now, req_id, sched);
                }
            }
        }
    }
}

impl Model for ClusterSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::NewRequest { node } => {
                if self.stop_arrivals {
                    return;
                }
                // A client aimed at a dead node connects to the next one
                // up instead (alive == all nodes in fault-free runs).
                let node = self.route_alive(node);
                // Bounded admission: a node at its in-flight limit rejects
                // the arrival outright (explicit backpressure) instead of
                // growing an unbounded connection backlog.
                let limit = self.params.overload.admission_limit;
                if self.protected()
                    && limit > 0
                    && self.nodes[node as usize].open_connections >= limit
                {
                    self.fault_stats.shed_admission += 1;
                    self.requeue_shed_client(now, sched);
                    return;
                }
                let file = self.next_file();
                let bytes = self.source.catalog().size(file);
                let req_id = self.next_req;
                self.next_req += 1;
                let deadline = if self.protected() && self.params.overload.deadline_micros > 0 {
                    Some(now + SimTime::from_micros(self.params.overload.deadline_micros))
                } else {
                    None
                };
                self.requests.insert(
                    req_id,
                    Request {
                        file,
                        bytes,
                        initial: NodeId(node),
                        started: now,
                        forwarded: false,
                        pending_file_msgs: 0,
                        attempt: 0,
                        server: None,
                        replying: false,
                        deadline,
                        pending_probes: 0,
                        probed: Vec::new(),
                    },
                );
                self.nodes[node as usize].open_connections += 1;
                self.load_changed(now, node, sched);
                self.trace_instant(
                    now,
                    node,
                    lane::MAIN,
                    EventKind::Arrive,
                    req_id,
                    file.0 as u64,
                    bytes,
                );
                // Request bytes arrive on the external NIC, then parse.
                let rx_time = self.params.rates.ext_nic_time(CLIENT_REQUEST_BYTES);
                let rx_done = self.nodes[node as usize].nic_ext_rx.submit(now, rx_time, 0);
                self.trace_span(
                    rx_done - rx_time,
                    rx_done,
                    node,
                    lane::NIC_EXT,
                    EventKind::NicRx,
                    req_id,
                    CLIENT_REQUEST_BYTES,
                    0,
                );
                let parse = self.params.rates.parse;
                let parsed = self.cpu(node, rx_done, parse, CpuCategory::ExtCommService);
                self.trace_span(
                    parsed - self.inflated(parse),
                    parsed,
                    node,
                    lane::MAIN,
                    EventKind::Parse,
                    req_id,
                    0,
                    0,
                );
                sched.schedule(parsed, Event::Parsed { req: req_id });
            }
            Event::Parsed { req: req_id } => {
                let (node, file, bytes, deadline) = {
                    let Some(req) = self.requests.get(&req_id) else {
                        return;
                    };
                    (req.initial.0, req.file, req.bytes, req.deadline)
                };
                // Deadline-aware shedding: if the remaining budget cannot
                // cover the modeled service time, drop now — spending a
                // disk access on an answer the client stopped waiting for
                // only deepens the overload.
                if let Some(dl) = deadline {
                    if now + self.modeled_service(now, node, file, bytes) > dl {
                        self.fault_stats.shed_deadline += 1;
                        self.requests.remove(&req_id);
                        let oc = &mut self.nodes[node as usize].open_connections;
                        *oc = oc.saturating_sub(1);
                        self.load_changed(now, node, sched);
                        self.requeue_shed_client(now, sched);
                        return;
                    }
                }
                self.dispatch_request(now, req_id, sched);
            }
            Event::DiskDone { req: req_id, node } => {
                // The disk of a crashed node completes into the void, and
                // a request re-routed elsewhere ignores the stale read.
                if !self.alive[node as usize] {
                    return;
                }
                let Some(req) = self.requests.get(&req_id) else {
                    return;
                };
                if req.server != Some(node) {
                    return;
                }
                let (file, bytes) = (req.file, req.bytes);
                if self.injector.disk_error() {
                    self.fault_stats.disk_retries += 1;
                    self.trace_instant(now, node, lane::DISK, EventKind::DiskError, req_id, 0, 0);
                    let demand = self.nodes[node as usize].disk_model.access_time(bytes);
                    let done = self.nodes[node as usize].disk.submit(now, demand, 0);
                    self.trace_span(
                        done - demand,
                        done,
                        node,
                        lane::DISK,
                        EventKind::DiskRead,
                        req_id,
                        bytes,
                        1,
                    );
                    sched.schedule(done, Event::DiskDone { req: req_id, node });
                    return;
                }
                self.cache_insert(now, node, file, sched);
                self.after_content_ready(now, req_id, node, sched);
            }
            Event::MsgDelivered(msg) => {
                // Either endpoint died while the message was on the wire:
                // nothing arrives. The credit the sender paid is repaired
                // (dead-sender channels were reset wholesale at the crash).
                if !self.alive[msg.to as usize] || !self.alive[msg.from as usize] {
                    self.fault_stats.dropped_messages += 1;
                    if self.alive[msg.from as usize] && self.needs_credit(msg.ty) {
                        self.credit_back(now, msg.from, msg.to, sched);
                    }
                    return;
                }
                let mode = self.mode_of(msg.ty);
                let rc = self.recv_cost_of(msg.ty, msg.wire);
                let start = if mode == DeliveryMode::Rmw {
                    now + POLL_DELAY
                } else {
                    now
                };
                let done = self.cpu(msg.to, start, rc.cpu, CpuCategory::IntComm);
                // Stitch to the sender's ViaSend span via the message's
                // wire-carried causal context rather than the local chain.
                self.trace_span_in(
                    done - self.inflated(rc.cpu),
                    done,
                    msg.to,
                    lane::MAIN,
                    EventKind::ViaRecv,
                    msg.req.unwrap_or(0),
                    msg.wire,
                    msg.ty as u64,
                    msg.parent_span,
                );
                sched.schedule(done, Event::MsgConsumed(msg));
            }
            Event::MsgConsumed(msg) => self.handle_consumed(now, msg, sched),
            Event::ReplyCpuDone { req: req_id } => {
                let (node, bytes) = {
                    let Some(req) = self.requests.get(&req_id) else {
                        return;
                    };
                    (req.initial.0, req.bytes)
                };
                let tx_time = self.params.rates.ext_nic_time(bytes + REPLY_HEADER_BYTES);
                let done = self.nodes[node as usize].nic_ext_tx.submit(now, tx_time, 0);
                self.trace_span(
                    done - tx_time,
                    done,
                    node,
                    lane::NIC_EXT,
                    EventKind::ReplyTx,
                    req_id,
                    bytes + REPLY_HEADER_BYTES,
                    0,
                );
                sched.schedule(done, Event::ReplyDelivered { req: req_id });
            }
            Event::ReplyDelivered { req: req_id } => {
                self.complete_request(now, req_id, sched);
            }
            Event::Membership { node, alive } => {
                if alive {
                    self.alive_view |= 1 << node;
                } else {
                    self.alive_view &= !(1 << node);
                    // Anything still queued toward the evicted peer will
                    // never be sendable; count it as lost.
                    for peer in 0..self.params.nodes as u16 {
                        if peer != node {
                            let ch = self.channel(peer, node);
                            self.fault_stats.dropped_messages +=
                                self.windows[ch].drop_queued() as u64;
                        }
                    }
                }
            }
            Event::RetryTimeout {
                req: req_id,
                attempt,
            } => {
                let Some(r) = self.requests.get(&req_id) else {
                    return;
                };
                // Stale timer (the request moved on) or the reply is
                // already streaming: nothing to do.
                if r.attempt != attempt || r.replying {
                    return;
                }
                // A live deadline miss: feed the peer's breaker before
                // re-routing, so consecutive misses eventually open it.
                if let (initial, Some(server)) = (r.initial.0, r.server) {
                    if server != initial {
                        self.breaker_failure(initial, server, now);
                    }
                }
                self.retry_request(now, req_id, sched);
            }
            Event::ProbeTimeout {
                req: req_id,
                attempt,
            } => {
                let Some(r) = self.requests.get(&req_id) else {
                    return;
                };
                // Stale (retried meanwhile) or already dispatched by the
                // last reply: nothing to do. Otherwise decide now with
                // whatever replies arrived (possibly none → serve local).
                if r.attempt != attempt || r.pending_probes == 0 {
                    return;
                }
                self.dispatch_probed(now, req_id, sched);
            }
        }
    }
}

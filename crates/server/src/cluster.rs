//! Wiring and public API of the live cluster.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use press_core::{warm_placement, FaultPlan, OverloadConfig, PolicyConfig};
use press_telem::{lane, LiveTracer, Trace};
use press_trace::{FileCatalog, FileId};
use press_via::{
    CompletionQueue, Descriptor, Fabric, FaultConfig, MemHandle, Reliability, MAX_DOORBELL,
};

use crate::membership::Membership;
use crate::node::{
    slot_bytes_for, wake_hook, FileTransferMode, MainConfig, NodeCtx, NodeEvent, NodeState, Reply,
};
use crate::stats::ServerStats;
use crate::wire::{HEADER_BYTES, RING_TRAILER_BYTES};

/// Configuration of a live cluster.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of nodes (each one host thread, its disk a timed queue).
    pub nodes: usize,
    /// Per-peer credit window (outstanding credit-consuming messages).
    pub window: u32,
    /// Credits returned per flow-control message.
    pub credit_batch: u32,
    /// Per-node file-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Fixed disk access latency (scaled down from the paper's 18.8 ms to
    /// keep live runs quick; the ordering "disk ≫ network" is preserved).
    pub disk_fixed: Duration,
    /// Disk transfer rate in bytes/second.
    pub disk_bytes_per_sec: f64,
    /// Distribution-policy tunables (`T`, large-file cutoff).
    pub policy: PolicyConfig,
    /// RDMA-write the load table after this many main-loop events.
    pub load_write_period: u32,
    /// How file data travels back to the initial node: regular messages
    /// (V0–V2) or remote writes into polled circular buffers (V3–V6).
    pub file_transfer: FileTransferMode,
    /// Doorbell coalescing for the V6 fast path: sends are staged into a
    /// lock-free slab pool and posted `doorbell_batch` descriptors per
    /// doorbell ring. `1` (the default, V0–V5) posts every descriptor
    /// individually and allocates no pool — the pre-V6 path, unchanged.
    pub doorbell_batch: u32,
    /// Base deadline for a forwarded request's reply before it is retried
    /// against another live cacher. Later attempts wait a seeded
    /// decorrelated-jitter deadline in `[base, 8 * base]`.
    pub retry_timeout: Duration,
    /// Retries before a forwarded request is served locally instead.
    pub max_retries: u32,
    /// Optional deterministic fault plan: crash/recovery windows are
    /// applied by a monitor thread keyed on total completed requests, and
    /// the plan's message-loss probabilities become VIA-level injected
    /// faults. `None` leaves every path identical to a fault-free run.
    pub faults: Option<FaultPlan>,
    /// Overload protection: bounded admission, deadline shedding, and
    /// per-peer circuit breakers in every node's main loop. The disabled
    /// default leaves all paths identical to pre-protection builds.
    pub overload: OverloadConfig,
    /// Fan caching broadcasts out along a collective tree derived from
    /// the membership bitmask (size-switched flat/binomial/chain, origin
    /// packed into the Caching token's high bits) instead of the flat
    /// origin-sends-to-everyone loop. The disabled default keeps the
    /// wire traffic identical to pre-tree builds.
    pub tree_caching: bool,
    /// Sparse load dissemination: RDMA-write the periodic load-table
    /// update to only this many sampled live peers per period instead of
    /// all of them. `0` (the default) writes to every live peer.
    pub load_write_fanout: u32,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            nodes: 4,
            window: 16,
            credit_batch: 4,
            cache_bytes: 4 << 20,
            disk_fixed: Duration::from_millis(2),
            disk_bytes_per_sec: 30e6,
            policy: PolicyConfig::default(),
            load_write_period: 8,
            file_transfer: FileTransferMode::Regular,
            doorbell_batch: 1,
            retry_timeout: Duration::from_millis(150),
            max_retries: 3,
            faults: None,
            overload: OverloadConfig::disabled(),
            tree_caching: false,
            load_write_fanout: 0,
        }
    }
}

/// Errors surfaced to live-cluster clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// The cluster is shutting down.
    Disconnected,
    /// The request did not complete in time.
    Timeout,
    /// The file id is outside the catalog.
    UnknownFile,
    /// Overload protection rejected the request (admission bound or
    /// deadline shedding) — explicit backpressure, retry later.
    Rejected,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            LiveError::Disconnected => "cluster is shutting down",
            LiveError::Timeout => "request timed out",
            LiveError::UnknownFile => "file id outside the catalog",
            LiveError::Rejected => "request shed by overload protection",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for LiveError {}

/// A running PRESS cluster of real threads over the software VIA fabric.
///
/// Each node runs one host thread: a main thread (decisions, caching,
/// pending-request tracking) that also posts to its VIs, drains its
/// completion queue and keeps its disk as a timed FIFO queue, parking no
/// longer than until the head read completes. After a pass that handled
/// an event it polls its event channel briefly before it parks, so most
/// hand-offs between busy nodes skip the futex wake; an idle node parks
/// at once. Figure 2 of the paper adds
/// send, receive and disk helper threads; here the main thread polls
/// instead, as the paper's V3+ main thread does, because each hand-off
/// between host threads cost more than the message it carried. Load
/// information travels via remote memory writes into per-node load
/// tables; forwards, file transfers and caching broadcasts are
/// credit-controlled regular messages.
///
/// # Example
///
/// ```
/// use press_server::{LiveCluster, LiveConfig, file_contents};
/// use press_trace::{FileCatalog, FileId};
/// use std::time::Duration;
///
/// let catalog = FileCatalog::from_sizes(vec![2048; 32]);
/// let cluster = LiveCluster::start(LiveConfig::default(), catalog);
/// let data = cluster
///     .request(0, FileId(17), Duration::from_secs(5))
///     .expect("request");
/// assert_eq!(data, file_contents(FileId(17), 2048));
/// cluster.shutdown();
/// ```
pub struct LiveCluster {
    ctl: Arc<ClusterCtl>,
    stats: Arc<ServerStats>,
    catalog: Arc<FileCatalog>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    load_handles: Vec<MemHandle>,
    /// NICs must outlive the node threads (a dropped NIC's VIs take no
    /// more posts).
    nics: Vec<Arc<press_via::Nic>>,
    /// Wall-clock tracer shared by every node thread and NIC (whose
    /// events the posting node threads record); None unless tracing was
    /// requested at start.
    tracer: Option<Arc<LiveTracer>>,
}

/// The handles needed to crash and recover nodes — shared between the
/// public API and the fault-plan monitor thread.
struct ClusterCtl {
    mains: Vec<Sender<NodeEvent>>,
    dead: Vec<Arc<AtomicBool>>,
    membership: Arc<Membership>,
}

impl ClusterCtl {
    /// Kills `node`: unreachable on the wire, in-flight state lost,
    /// evicted from every peer's candidate set.
    fn crash(&self, node: usize) {
        // ordering: Release — pairs with the Acquire loads in the node
        // loops so the flag flips before the Crash event is observed.
        self.dead[node].store(true, Ordering::Release);
        self.membership.set_live(node, false);
        let _ = self.mains[node].send(NodeEvent::Crash);
    }

    /// Rejoins `node` with a cold cache: peers' credit windows toward it
    /// (and its own, drained while dead) are restored to full, stale
    /// queued traffic is discarded, and membership re-admits it.
    fn recover(&self, node: usize) {
        for (peer, tx) in self.mains.iter().enumerate() {
            if peer == node {
                for other in 0..self.mains.len() {
                    if other != node {
                        let _ = tx.send(NodeEvent::ResetPeer { peer: other });
                    }
                }
            } else {
                let _ = tx.send(NodeEvent::ResetPeer { peer: node });
            }
        }
        let _ = self.mains[node].send(NodeEvent::Recover);
        // ordering: Release — the ResetPeer repairs above must be
        // enqueued before peers can observe the node as reachable again.
        self.dead[node].store(false, Ordering::Release);
        self.membership.set_live(node, true);
    }
}

/// The ring at `dst` that `src` writes into (None for self or Regular
/// mode). Must be looked up before `dst`'s own row is consumed.
fn rings_peer_view(rings: &[Vec<Option<MemHandle>>], src: usize, dst: usize) -> Option<MemHandle> {
    if src == dst {
        return None;
    }
    rings
        .get(dst)
        .and_then(|row| row.get(src).copied().flatten())
}

impl LiveCluster {
    /// Starts the cluster: creates the fabric, NICs, VI mesh, registered
    /// regions and all node threads, with caches pre-filled by hashing
    /// files across nodes (the same placement the simulator uses).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not in `2..=64` or the configuration is
    /// internally inconsistent (e.g. window not a multiple of the batch).
    pub fn start(cfg: LiveConfig, catalog: FileCatalog) -> LiveCluster {
        // `PRESS_TRACE` turns on wall-clock span recording cluster-wide.
        let tracer = matches!(std::env::var("PRESS_TRACE"), Ok(v) if !v.is_empty() && v != "0")
            .then(LiveTracer::new);
        Self::start_with_tracer(cfg, catalog, tracer)
    }

    /// Like [`LiveCluster::start`], with an explicit tracer instead of the
    /// `PRESS_TRACE` environment check. Pass `Some` to record VIA-level
    /// (descriptor post/completion) and request-lifecycle events; drain
    /// them with [`LiveCluster::shutdown_traced`].
    pub fn start_with_tracer(
        cfg: LiveConfig,
        catalog: FileCatalog,
        tracer: Option<Arc<LiveTracer>>,
    ) -> LiveCluster {
        assert!((2..=64).contains(&cfg.nodes), "2..=64 nodes");
        assert!(cfg.window > 0 && cfg.credit_batch > 0);
        assert_eq!(
            cfg.window % cfg.credit_batch,
            0,
            "window must be a multiple of the credit batch"
        );
        assert!(
            (1..=MAX_DOORBELL as u32).contains(&cfg.doorbell_batch),
            "doorbell batch must be in 1..={MAX_DOORBELL}"
        );
        let n = cfg.nodes;
        if let Some(plan) = &cfg.faults {
            plan.assert_valid(n);
        }
        let catalog = Arc::new(catalog);
        let max_file = catalog.iter().map(|(_, s)| s).max().unwrap_or(0);
        let slot_bytes = slot_bytes_for(max_file);
        let stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let membership = Arc::new(Membership::new(n));
        let dead: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();

        let fabric = Fabric::new();
        let nics: Vec<Arc<press_via::Nic>> = (0..n)
            .map(|i| Arc::new(fabric.create_nic(&format!("press-node{i}"))))
            .collect();
        if let Some(t) = &tracer {
            for (i, nic) in nics.iter().enumerate() {
                nic.set_tracer(t.handle(i as u16, lane::NIC_INT));
            }
        }

        // Probabilistic message faults become VIA-level injections. The
        // mesh uses reliable delivery, where a real interconnect turns
        // loss into error-status completions — so both the plan's drop
        // and corruption rates surface as failed descriptors that the
        // retry machinery must absorb.
        if let Some(plan) = &cfg.faults {
            let fail = (plan.drop_probability + plan.corrupt_probability).min(1.0);
            if fail > 0.0 {
                for (i, nic) in nics.iter().enumerate() {
                    nic.set_fault(FaultConfig {
                        drop_probability: 0.0,
                        fail_probability: fail,
                        seed: plan.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    });
                }
            }
        }

        // Load tables: RDMA-writable, one u32 slot per node.
        let load_regions: Vec<MemHandle> = (0..n)
            .map(|i| {
                nics[i]
                    .register(vec![0u8; 4 * n], true)
                    .expect("register load table")
            })
            .collect();

        // Event channels, unbounded: a peer's main thread runs the wake
        // hook inside its post, which must never block.
        let (mains, main_rxs): (Vec<Sender<NodeEvent>>, Vec<_>) =
            (0..n).map(|_| channel::<NodeEvent>()).unzip();
        // One wake hook per node, shared by its completion queue and its
        // file rings: a completion or a landed reply wakes the main loop.
        let wake_pending: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let hooks: Vec<_> = (0..n)
            .map(|i| wake_hook(Arc::clone(&wake_pending[i]), mains[i].clone()))
            .collect();
        // Completion queues: one per node, aggregating all its VIs.
        let cqs: Vec<CompletionQueue> = hooks
            .iter()
            .map(|h| CompletionQueue::with_wake(Arc::clone(h)))
            .collect();

        // VI mesh + per-peer regions.
        let mut vis: Vec<Vec<Option<press_via::Vi>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut vi_peers: Vec<HashMap<u64, usize>> = (0..n).map(|_| HashMap::new()).collect();
        let mut send_regions: Vec<Vec<Option<MemHandle>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut flow_regions: Vec<Vec<Option<MemHandle>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        // Inbound file rings for the RemoteWrite transfer mode:
        // rings[dst][src] is registered at dst, written remotely by src.
        let ring_slot_bytes = max_file as usize + RING_TRAILER_BYTES;
        let mut rings: Vec<Vec<Option<MemHandle>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();

        let window = cfg.window as usize;
        // Receive descriptors must also absorb credit-free flow messages.
        let posted_per_peer = window + window / cfg.credit_batch as usize + 2;
        for i in 0..n {
            for j in (i + 1)..n {
                let (vi_i, vi_j) = fabric
                    .connect_with_cqs(
                        &nics[i],
                        &nics[j],
                        Reliability::ReliableDelivery,
                        Some(&cqs[i]),
                        Some(&cqs[j]),
                    )
                    .expect("connect mesh");
                vi_peers[i].insert(vi_i.id(), j);
                vi_peers[j].insert(vi_j.id(), i);
                vis[i][j] = Some(vi_i);
                vis[j][i] = Some(vi_j);
            }
            for j in 0..n {
                if i == j {
                    continue;
                }
                let recv = nics[i]
                    .register(vec![0u8; slot_bytes * posted_per_peer], false)
                    .expect("register recv region");
                for s in 0..posted_per_peer {
                    vis[i][j]
                        .as_ref()
                        .expect("mesh vi")
                        .post_recv(Descriptor::new(recv, s * slot_bytes, slot_bytes))
                        .expect("post recv");
                }
                send_regions[i][j] = Some(
                    nics[i]
                        .register(vec![0u8; slot_bytes * window], false)
                        .expect("register send region"),
                );
                flow_regions[i][j] = Some(
                    nics[i]
                        .register(vec![0u8; HEADER_BYTES * window], false)
                        .expect("register flow region"),
                );
                if cfg.file_transfer == FileTransferMode::RemoteWrite {
                    rings[i][j] = Some(
                        nics[i]
                            .register(vec![0u8; ring_slot_bytes * window], true)
                            .expect("register file ring"),
                    );
                }
            }
        }

        // The simulator's warm start, so both engines begin alike.
        let (mut prefill, cachers) = warm_placement(&catalog, n, cfg.cache_bytes);

        // Snapshot every node's view of peer rings before rows are moved
        // into node contexts.
        let peer_rings_all: Vec<Vec<Option<MemHandle>>> = (0..n)
            .map(|i| (0..n).map(|j| rings_peer_view(&rings, i, j)).collect())
            .collect();

        let mut threads = Vec::new();
        for (i, (cq, main_rx)) in cqs.into_iter().zip(main_rxs).enumerate() {
            let ctx = Arc::new(NodeCtx {
                id: i,
                nodes: n,
                nic: Arc::clone(&nics[i]),
                vis: std::mem::take(&mut vis[i]),
                vi_peers: std::mem::take(&mut vi_peers[i]),
                send_regions: std::mem::take(&mut send_regions[i]),
                flow_regions: std::mem::take(&mut flow_regions[i]),
                load_region: load_regions[i],
                peer_load_regions: load_regions.clone(),
                file_mode: cfg.file_transfer,
                own_rings: std::mem::take(&mut rings[i]),
                // peer_rings[j] = the ring j registered for data from us.
                peer_rings: peer_rings_all[i].clone(),
                ring_slot_bytes,
                scratch_region: nics[i]
                    .register(vec![0u8; 4], false)
                    .expect("register scratch"),
                // The V6 fast path stages every send in a lock-free slab
                // pool sized to the worst-case in-flight count (the same
                // bound the receive descriptors are provisioned for).
                send_pool: (cfg.doorbell_batch > 1).then(|| {
                    Arc::new(
                        nics[i]
                            .register_slab((n - 1) * posted_per_peer, slot_bytes, false)
                            .expect("register send slab"),
                    )
                }),
                doorbell_batch: cfg.doorbell_batch,
                window: cfg.window,
                credit_batch: cfg.credit_batch,
                slot_bytes,
                stats: Arc::clone(&stats),
                membership: Arc::clone(&membership),
                dead: Arc::clone(&dead[i]),
                trace: tracer.as_ref().map(|t| t.handle(i as u16, lane::MAIN)),
                load_write_fanout: cfg.load_write_fanout,
                wake_pending: Arc::clone(&wake_pending[i]),
            });
            // A V6 reply is a remote write and raises no completion here,
            // so it wakes our main loop through the file ring it lands in.
            for &ring in ctx.own_rings.iter().flatten() {
                nics[i]
                    .on_remote_write(ring, Arc::clone(&hooks[i]))
                    .expect("install file ring hook");
            }
            let main_cfg = MainConfig {
                catalog: Arc::clone(&catalog),
                cache_bytes: cfg.cache_bytes,
                policy: cfg.policy,
                load_write_period: cfg.load_write_period,
                disk_fixed: cfg.disk_fixed,
                disk_bytes_per_sec: cfg.disk_bytes_per_sec,
                retry_timeout: cfg.retry_timeout,
                max_retries: cfg.max_retries,
                overload: cfg.overload,
                jitter_seed: cfg.faults.as_ref().map_or(0, |p| p.seed),
                tree_caching: cfg.tree_caching,
            };
            let node_prefill = std::mem::take(&mut prefill[i]);
            let node_cachers = cachers.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("press{i}-main"))
                    .spawn(move || {
                        NodeState::new(ctx, main_cfg, main_rx, cq, &node_prefill, node_cachers)
                            .run()
                    })
                    .expect("spawn main"),
            );
        }

        let ctl = Arc::new(ClusterCtl {
            mains,
            dead,
            membership,
        });

        // The fault monitor applies the plan's crash/recovery windows.
        // Triggers are in total completed requests — the same engine-
        // agnostic unit the simulator uses — polled off the shared stats.
        if let Some(plan) = &cfg.faults {
            let schedule = plan.schedule();
            if !schedule.is_empty() {
                let ctl_mon = Arc::clone(&ctl);
                let stats_mon = Arc::clone(&stats);
                let stop = Arc::clone(&shutdown);
                threads.push(
                    std::thread::Builder::new()
                        .name("press-fault-monitor".into())
                        .spawn(move || {
                            let mut next = 0;
                            // ordering: Acquire — pairs with shutdown's
                            // Release store; everything sequenced before
                            // the stop request is visible here.
                            while next < schedule.len() && !stop.load(Ordering::Acquire) {
                                let completed = stats_mon.completed();
                                while next < schedule.len() && completed >= schedule[next].0 {
                                    let (_, node, alive) = schedule[next];
                                    next += 1;
                                    if alive {
                                        ctl_mon.recover(node as usize);
                                    } else {
                                        ctl_mon.crash(node as usize);
                                    }
                                }
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        })
                        .expect("spawn fault monitor"),
                );
            }
        }

        LiveCluster {
            ctl,
            stats,
            catalog,
            shutdown,
            threads,
            load_handles: load_regions,
            nics,
            tracer,
        }
    }

    /// Crashes `node`: it stops executing and drops off the wire, peers
    /// evict it from their candidate sets, in-flight requests it held are
    /// lost, and forwards toward it are re-routed after their timeouts.
    pub fn crash_node(&self, node: usize) {
        assert!(node < self.nodes());
        self.ctl.crash(node);
    }

    /// Recovers a crashed (or hung) node: it rejoins the membership with
    /// a cold cache and full credit windows in both directions.
    pub fn recover_node(&self, node: usize) {
        assert!(node < self.nodes());
        self.ctl.recover(node);
    }

    /// Hangs `node`: it silently drops all traffic but is *not* evicted
    /// from the membership — peers keep forwarding to it and must detect
    /// the failure through timeouts. This is the fail-silent case the
    /// per-request retry machinery exists for.
    pub fn hang_node(&self, node: usize) {
        assert!(node < self.nodes());
        // ordering: Release — same contract as `ClusterCtl::crash`.
        self.ctl.dead[node].store(true, Ordering::Release);
    }

    /// Whether `node` is currently believed alive by the cluster.
    pub fn is_live(&self, node: usize) -> bool {
        self.ctl.membership.is_live(node)
    }

    /// Membership transitions so far (crashes + recoveries).
    pub fn membership_epoch(&self) -> u64 {
        self.ctl.membership.epoch()
    }

    /// Issues one request to `node` and waits for the reply bytes.
    ///
    /// # Errors
    ///
    /// * [`LiveError::UnknownFile`] if `file` is outside the catalog;
    /// * [`LiveError::Timeout`] if no reply arrives in `timeout`;
    /// * [`LiveError::Disconnected`] during shutdown.
    pub fn request(
        &self,
        node: usize,
        file: FileId,
        timeout: Duration,
    ) -> Result<Vec<u8>, LiveError> {
        if (file.0 as usize) >= self.catalog.len() {
            return Err(LiveError::UnknownFile);
        }
        // Like a front-end load balancer, clients are steered away from
        // nodes the cluster believes dead.
        let n = self.nodes();
        let mut target = node % n;
        if !self.ctl.membership.is_live(target) {
            target = (0..n)
                .map(|d| (target + d) % n)
                .find(|&i| self.ctl.membership.is_live(i))
                .unwrap_or(target);
        }
        // Exactly one reply is ever sent, so it never blocks the node.
        let (reply_tx, reply_rx) = sync_channel(1);
        self.ctl.mains[target]
            .send(NodeEvent::Client {
                file,
                reply: reply_tx,
                // The client's patience is the deadline the shedder
                // grades against (ignored when protection is off).
                deadline: Some(std::time::Instant::now() + timeout),
            })
            .map_err(|_| LiveError::Disconnected)?;
        match reply_rx.recv_timeout(timeout) {
            Ok(Reply::Data(bytes)) => Ok(bytes),
            Ok(Reply::Shed) => Err(LiveError::Rejected),
            Err(_) => Err(LiveError::Timeout),
        }
    }

    /// Applies a mid-run content update to `file`: every node discards
    /// its cached copy (and its record of who else cached one), so the
    /// next access re-reads the new version from disk. The chaos suite's
    /// churn scenarios drive this.
    pub fn update_file(&self, file: FileId) {
        if (file.0 as usize) >= self.catalog.len() {
            return;
        }
        for tx in &self.ctl.mains {
            let _ = tx.send(NodeEvent::Invalidate { file });
        }
    }

    /// The cluster's catalog.
    pub fn catalog(&self) -> &FileCatalog {
        &self.catalog
    }

    /// Shared statistics (live; counters keep moving while requests run).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ctl.mains.len()
    }

    /// Reads node `i`'s view of every node's load, as deposited by the
    /// remote memory writes — no node involvement, just like the writes.
    pub fn load_table(&self, node: usize) -> Vec<u32> {
        match self.nics[node].read_region(self.load_handles[node], 0, 4 * self.nodes()) {
            Ok(bytes) => bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
            Err(_) => vec![0; self.nodes()],
        }
    }

    /// Stops every thread and joins them. Outstanding requests receive
    /// [`LiveError::Disconnected`] through their dropped reply channels.
    pub fn shutdown(self) {
        let _ = self.shutdown_impl();
    }

    /// Stops the cluster like [`LiveCluster::shutdown`] and returns the
    /// recorded trace (None when tracing was off). Draining happens after
    /// every node thread has quiesced, so the trace is complete and
    /// stable.
    pub fn shutdown_traced(self) -> Option<Trace> {
        self.shutdown_impl()
    }

    fn shutdown_impl(mut self) -> Option<Trace> {
        // ordering: Release — pairs with the fault monitor's Acquire
        // load; all control traffic sent before this store is visible
        // once it observes the flag.
        self.shutdown.store(true, Ordering::Release);
        for tx in &self.ctl.mains {
            let _ = tx.send(NodeEvent::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Every NIC event was recorded by a node's main thread (the post
        // runs the transfer), so the joins above establish the
        // happens-before edge the ring drain relies on.
        self.nics.clear();
        self.tracer.take().map(|t| t.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_node_runs_one_host_thread() {
        let catalog = FileCatalog::from_sizes(vec![1024; 16]);
        let cluster = LiveCluster::start(LiveConfig::default(), catalog);
        assert_eq!(cluster.threads.len(), cluster.nodes());
        cluster.shutdown();
    }
}

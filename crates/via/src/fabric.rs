//! The in-process fabric: NICs, VIs, completion queues, and the engine
//! threads that process posted descriptors asynchronously.
//!
//! # Fast-path concurrency (V6)
//!
//! The send/recv/completion paths are lock-free: posted receives and
//! completions travel through [`SpscRing`]s (see `spsc.rs` for the
//! memory-ordering argument) instead of mutexed queues or channels.
//! Each ring's producer and consumer are single threads by topology —
//! one engine thread per NIC, one host loop per endpoint — and the
//! host side is additionally guarded by an [`OwnerTag`] so a cloned
//! [`Vi`] shared across threads degrades to serialized access instead
//! of unsoundness. The control plane (region registration, VI table,
//! fault configuration) stays behind read-write locks: it is off the
//! per-message path, and message processing takes only read locks
//! there. Message payloads move region-to-region in one copy — the
//! per-send staging allocation of V0–V5 is gone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use press_macros as press;
use press_telem::{EventKind, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::descriptor::MAX_SEGMENTS;
use crate::descriptor::{Completion, CompletionKind, Descriptor, SgList};
use crate::error::ViaError;
use crate::flow::MAX_DOORBELL;
use crate::mem::{MemHandle, Region, SlabPool};
use crate::spsc::{OwnerTag, SpscRing};

/// Capacity of each VI's posted-receive ring.
const RECV_RING_CAP: usize = 1024;
/// Capacity of each VI's send/recv completion rings.
const DONE_RING_CAP: usize = 1024;

/// VIA reliability levels (Section 2.1). Giganet VIA — and this fabric —
/// supports unreliable and reliable delivery, but not reliable reception.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reliability {
    /// Messages (regular and remote writes) may be lost without being
    /// detected or retransmitted; sends still complete successfully.
    UnreliableDelivery,
    /// Data arrives exactly once and in order in the absence of errors;
    /// errors (e.g. no receive descriptor posted) are reported.
    ReliableDelivery,
}

/// Fault injection for a NIC's outgoing traffic.
///
/// Drops apply only to unreliable connections (reliable connections
/// ignore the probability, as real VIA hardware retransmits under the
/// covers). Failures apply to *any* connection: the posted descriptor
/// completes with [`ViaError::NotConnected`] status, modeling a peer
/// whose VI was torn down by a crash — the error path PRESS's recovery
/// machinery must handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that an outgoing message is dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that an outgoing send or RDMA write
    /// completes with error status instead of being delivered.
    pub fail_probability: f64,
    /// RNG seed for reproducible drop/failure patterns.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_probability: 0.0,
            fail_probability: 0.0,
            seed: 0,
        }
    }
}

/// A remote region target for [`Vi::rdma_write`]: the peer communicates
/// its registered handle (and the writer an offset) out of band, exactly
/// as PRESS exchanges circular-buffer locations at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteBuffer {
    /// The peer's registered region.
    pub region: MemHandle,
    /// Byte offset within the peer's region.
    pub offset: usize,
}

// A SendBatch carries its staged gathers inline: ~1 KiB moved through
// the channel per doorbell, deliberately, so flushing never allocates.
#[allow(clippy::large_enum_variant)]
enum EngineOp {
    Send {
        vi: u64,
        sg: SgList,
    },
    SendBatch {
        vi: u64,
        sgs: [SgList; MAX_DOORBELL],
        count: u8,
    },
    Rdma {
        vi: u64,
        desc: Descriptor,
        remote: RemoteBuffer,
    },
    Stop,
}

struct ViShared {
    id: u64,
    reliability: Reliability,
    /// The connected peer, fixed at connect time.
    peer: Option<(Weak<NicShared>, u64)>,
    /// Posted receive descriptors. Producer: the host (guarded by
    /// `recv_post`); consumer: the peer NIC's engine thread.
    recv_ring: SpscRing<Descriptor>,
    recv_post: OwnerTag,
    /// Send/RDMA completions. Producer: the owning NIC's engine;
    /// consumer: the host (guarded by `send_reap`).
    send_done: SpscRing<Completion>,
    send_reap: OwnerTag,
    /// Receive completions. Producer: the peer NIC's engine; consumer:
    /// the host (guarded by `recv_reap`).
    recv_done: SpscRing<Completion>,
    recv_reap: OwnerTag,
    /// When attached, completions go to the CQ instead of the VI rings.
    cq: Option<Sender<Completion>>,
}

/// Engine-side ring publish with backpressure: the host reaps within
/// its flow-control window, so a full ring means the consumer is
/// merely behind — yield until space opens, bailing out on teardown.
fn engine_push(nic: &NicShared, ring: &SpscRing<Completion>, c: Completion) {
    let mut c = c;
    loop {
        // SAFETY: each completion ring has exactly one producing engine
        // thread (own engine for send_done, the single peer's engine
        // for recv_done); this fn is only called from that thread.
        match unsafe { ring.push(c) } {
            Ok(()) => return,
            Err((_, back)) => {
                // ordering: Acquire pairs with the Release store in
                // `Drop for Nic` — don't spin on a ring whose consumer
                // is being torn down.
                if nic.shutdown.load(Ordering::Acquire) {
                    return;
                }
                c = back;
                // press::allow(blocking-in-hot-path): bounded producer
                // backoff while the consumer drains the ring — a yield,
                // not a park, and only on the ring-full slow branch.
                std::thread::yield_now();
            }
        }
    }
}

impl ViShared {
    /// Engine-side: deliver a send/RDMA completion. `nic` is the NIC
    /// owning this VI (whose engine is the sole producer).
    fn complete_send(&self, nic: &NicShared, c: Completion) {
        match &self.cq {
            Some(cq) => {
                let _ = cq.send(c);
            }
            None => engine_push(nic, &self.send_done, c),
        }
    }

    /// Engine-side: deliver a receive completion. `nic` is the NIC
    /// owning this VI; the producer is its single peer's engine.
    fn complete_recv(&self, nic: &NicShared, c: Completion) {
        match &self.cq {
            Some(cq) => {
                let _ = cq.send(c);
            }
            None => engine_push(nic, &self.recv_done, c),
        }
    }

    /// Engine-side: consume the next posted receive descriptor.
    fn pop_posted_recv(&self) -> Option<Descriptor> {
        // SAFETY: a VI has exactly one peer, so only that peer NIC's
        // engine thread (the caller) consumes this ring.
        unsafe { self.recv_ring.pop() }
    }
}

struct NicShared {
    #[allow(dead_code)]
    name: String,
    regions: RwLock<HashMap<u64, Region>>,
    vis: RwLock<HashMap<u64, Arc<ViShared>>>,
    ops: Sender<EngineOp>,
    /// Fast-path gate for fault injection: when clear (the default),
    /// `should_drop`/`should_fail` return without touching the mutex.
    fault_active: AtomicBool,
    fault: Mutex<(FaultConfig, StdRng)>,
    shutdown: AtomicBool,
    /// Telemetry hook, installed at most once via [`Nic::set_tracer`].
    /// Posting threads and the engine thread share the handle; when unset
    /// the instrumentation reduces to one `OnceLock::get` branch.
    trace: OnceLock<TraceHandle>,
}

impl NicShared {
    fn region(&self, h: MemHandle) -> Result<Region, ViaError> {
        self.regions
            // press::allow(blocking-in-hot-path): registration-time
            // map — written only by register/deregister on the control
            // path, so the read lock is uncontended during transfers.
            .read()
            .get(&h.0)
            .cloned()
            .ok_or(ViaError::UnknownRegion)
    }

    fn validate(&self, d: &Descriptor) -> Result<Region, ViaError> {
        let r = self.region(d.region)?;
        if d.offset + d.len > r.len() {
            return Err(ViaError::OutOfBounds);
        }
        Ok(r)
    }

    fn should_drop(&self) -> bool {
        // ordering: Acquire pairs with the Release store in `set_fault`
        // so a set flag implies the config behind it is visible.
        if !self.fault_active.load(Ordering::Acquire) {
            return false;
        }
        // press::allow(blocking-in-hot-path): behind the fault_active
        // gate above — the lock is only ever taken with faults armed,
        // i.e. in chaos runs, never on the production fast path.
        let mut g = self.fault.lock();
        let p = g.0.drop_probability;
        p > 0.0 && g.1.gen::<f64>() < p
    }

    fn should_fail(&self) -> bool {
        // ordering: Acquire — as in `should_drop`.
        if !self.fault_active.load(Ordering::Acquire) {
            return false;
        }
        // press::allow(blocking-in-hot-path): behind the fault_active
        // gate above — see `should_drop`.
        let mut g = self.fault.lock();
        let p = g.0.fail_probability;
        p > 0.0 && g.1.gen::<f64>() < p
    }

    /// Records one instant telemetry event if a tracer is installed.
    fn trace_event(&self, kind: EventKind, req: u64, a: u64, b: u64) {
        if let Some(t) = self.trace.get() {
            t.instant(kind, req, a, b);
        }
    }
}

/// The in-process network connecting NICs.
///
/// See the crate-level example for typical use.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

struct FabricInner {
    next_mr: AtomicU64,
    next_vi: AtomicU64,
}

impl Default for Fabric {
    fn default() -> Self {
        Fabric::new()
    }
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                next_mr: AtomicU64::new(1),
                next_vi: AtomicU64::new(1),
            }),
        }
    }

    /// Creates a NIC on this fabric, spawning its engine thread.
    pub fn create_nic(&self, name: &str) -> Nic {
        let (tx, rx) = unbounded();
        let shared = Arc::new(NicShared {
            name: name.to_string(),
            regions: RwLock::new(HashMap::new()),
            vis: RwLock::new(HashMap::new()),
            ops: tx,
            fault_active: AtomicBool::new(false),
            fault: Mutex::new((FaultConfig::default(), StdRng::seed_from_u64(0))),
            shutdown: AtomicBool::new(false),
            trace: OnceLock::new(),
        });
        let engine_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("via-nic-{name}"))
            .spawn(move || engine_loop(engine_shared, rx))
            .expect("spawn nic engine thread");
        Nic {
            fabric: self.clone(),
            shared,
            engine: Some(handle),
        }
    }

    /// Connects a fresh VI pair between two NICs, returning the two
    /// endpoints. The connection is bidirectional.
    pub fn connect(
        &self,
        a: &Nic,
        b: &Nic,
        reliability: Reliability,
    ) -> Result<(Vi, Vi), ViaError> {
        self.connect_inner(a, b, reliability, None, None)
    }

    /// Like [`Fabric::connect`] but directing each endpoint's completions
    /// to a [`CompletionQueue`] (pass `None` to keep per-VI queues).
    pub fn connect_with_cqs(
        &self,
        a: &Nic,
        b: &Nic,
        reliability: Reliability,
        cq_a: Option<&CompletionQueue>,
        cq_b: Option<&CompletionQueue>,
    ) -> Result<(Vi, Vi), ViaError> {
        self.connect_inner(a, b, reliability, cq_a, cq_b)
    }

    fn connect_inner(
        &self,
        a: &Nic,
        b: &Nic,
        reliability: Reliability,
        cq_a: Option<&CompletionQueue>,
        cq_b: Option<&CompletionQueue>,
    ) -> Result<(Vi, Vi), ViaError> {
        // ordering: Relaxed — unique-id allocation; RMW atomicity alone
        // guarantees distinct ids, nothing else is published through it.
        let id_a = self.inner.next_vi.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — as for `id_a`.
        let id_b = self.inner.next_vi.fetch_add(1, Ordering::Relaxed);
        let vi_a = Arc::new(ViShared {
            id: id_a,
            reliability,
            peer: Some((Arc::downgrade(&b.shared), id_b)),
            recv_ring: SpscRing::with_capacity(RECV_RING_CAP),
            recv_post: OwnerTag::new(),
            send_done: SpscRing::with_capacity(DONE_RING_CAP),
            send_reap: OwnerTag::new(),
            recv_done: SpscRing::with_capacity(DONE_RING_CAP),
            recv_reap: OwnerTag::new(),
            cq: cq_a.map(|c| c.tx.clone()),
        });
        let vi_b = Arc::new(ViShared {
            id: id_b,
            reliability,
            peer: Some((Arc::downgrade(&a.shared), id_a)),
            recv_ring: SpscRing::with_capacity(RECV_RING_CAP),
            recv_post: OwnerTag::new(),
            send_done: SpscRing::with_capacity(DONE_RING_CAP),
            send_reap: OwnerTag::new(),
            recv_done: SpscRing::with_capacity(DONE_RING_CAP),
            recv_reap: OwnerTag::new(),
            cq: cq_b.map(|c| c.tx.clone()),
        });
        a.shared.vis.write().insert(id_a, Arc::clone(&vi_a));
        b.shared.vis.write().insert(id_b, Arc::clone(&vi_b));
        Ok((
            Vi {
                shared: vi_a,
                nic: Arc::clone(&a.shared),
            },
            Vi {
                shared: vi_b,
                nic: Arc::clone(&b.shared),
            },
        ))
    }

    fn next_mr(&self) -> u64 {
        // ordering: Relaxed — unique-id allocation, as for `next_vi`.
        self.inner.next_mr.fetch_add(1, Ordering::Relaxed)
    }
}

/// A network interface: owns registered memory and an engine thread that
/// asynchronously processes posted descriptors.
pub struct Nic {
    fabric: Fabric,
    shared: Arc<NicShared>,
    engine: Option<JoinHandle<()>>,
}

impl Nic {
    /// Registers `data` as a memory region. `allow_remote_write` grants
    /// peers RDMA-write access (PRESS enables it for its circular
    /// buffers, and for all cache pages in version V5).
    pub fn register(&self, data: Vec<u8>, allow_remote_write: bool) -> Result<MemHandle, ViaError> {
        let h = self.fabric.next_mr();
        self.shared
            .regions
            .write()
            .insert(h, Region::new(data, allow_remote_write));
        Ok(MemHandle(h))
    }

    /// Registers one zeroed region of `slots * slot_len` bytes and
    /// carves it into a [`SlabPool`] of fixed-size send buffers — the
    /// V6 fast path's zero-allocation message staging.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `slot_len` is zero.
    pub fn register_slab(
        &self,
        slots: usize,
        slot_len: usize,
        allow_remote_write: bool,
    ) -> Result<SlabPool, ViaError> {
        assert!(
            slots > 0 && slot_len > 0,
            "slab dimensions must be positive"
        );
        let h = self.register(vec![0; slots * slot_len], allow_remote_write)?;
        Ok(SlabPool::over_region(h, slots, slot_len))
    }

    /// Deregisters a region. Outstanding descriptors naming it will fail.
    pub fn deregister(&self, h: MemHandle) -> Result<(), ViaError> {
        self.shared
            .regions
            .write()
            .remove(&h.0)
            .map(|_| ())
            .ok_or(ViaError::UnknownRegion)
    }

    /// Copies `len` bytes out of a registered region (a test/debug aid;
    /// a real application reads its own memory directly).
    pub fn read_region(
        &self,
        h: MemHandle,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ViaError> {
        let r = self.shared.region(h)?;
        let bytes = r.bytes.read();
        if offset + len > bytes.len() {
            return Err(ViaError::OutOfBounds);
        }
        Ok(bytes[offset..offset + len].to_vec())
    }

    /// Copies `out.len()` bytes out of a registered region into `out`:
    /// the allocation-free form of [`Nic::read_region`], for loops that
    /// poll the same bytes over and over. `out` is untouched on error.
    ///
    /// # Errors
    ///
    /// [`ViaError::UnknownRegion`] for a deregistered handle,
    /// [`ViaError::OutOfBounds`] if the range overruns the region.
    pub fn read_region_into(
        &self,
        h: MemHandle,
        offset: usize,
        out: &mut [u8],
    ) -> Result<(), ViaError> {
        let r = self.shared.region(h)?;
        let bytes = r.bytes.read();
        if offset + out.len() > bytes.len() {
            return Err(ViaError::OutOfBounds);
        }
        out.copy_from_slice(&bytes[offset..offset + out.len()]);
        Ok(())
    }

    /// Writes bytes into a registered region (local access; tests and
    /// senders preparing buffers).
    pub fn write_region(&self, h: MemHandle, offset: usize, data: &[u8]) -> Result<(), ViaError> {
        let r = self.shared.region(h)?;
        let mut bytes = r.bytes.write();
        if offset + data.len() > bytes.len() {
            return Err(ViaError::OutOfBounds);
        }
        bytes[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Installs `hook` on a registered region, replacing any earlier one.
    /// The NIC engine that performs a remote (RDMA) write into the region
    /// runs the hook on its own thread once the bytes have landed, so the
    /// region's owner can wake on arrival instead of polling on a timer.
    /// A failed, forbidden, out-of-bounds or dropped write does not run
    /// it, and neither does a local [`Nic::write_region`]. The hook runs
    /// on the engine's per-message path: keep it short and non-blocking.
    ///
    /// # Errors
    ///
    /// [`ViaError::UnknownRegion`] for a deregistered handle.
    pub fn on_remote_write(
        &self,
        h: MemHandle,
        hook: Arc<dyn Fn() + Send + Sync>,
    ) -> Result<(), ViaError> {
        let mut regions = self.shared.regions.write();
        let r = regions.get_mut(&h.0).ok_or(ViaError::UnknownRegion)?;
        r.on_remote_write = Some(hook);
        Ok(())
    }

    /// Configures fault injection for this NIC's outgoing messages.
    pub fn set_fault(&self, cfg: FaultConfig) {
        *self.shared.fault.lock() = (cfg, StdRng::seed_from_u64(cfg.seed));
        let active = cfg.drop_probability > 0.0 || cfg.fail_probability > 0.0;
        // ordering: Release pairs with the Acquire loads in
        // `should_drop`/`should_fail`: the flag is published after the
        // config write above.
        self.shared.fault_active.store(active, Ordering::Release);
    }

    /// Installs a telemetry handle: descriptor posts and completions on
    /// this NIC are recorded as `via`-category instants. At most one
    /// tracer can be installed; later calls are ignored. With no tracer
    /// the hot paths pay a single lock-free branch.
    pub fn set_tracer(&self, handle: TraceHandle) {
        let _ = self.shared.trace.set(handle);
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("name", &self.shared.name)
            .field("regions", &self.shared.regions.read().len())
            .field("vis", &self.shared.vis.read().len())
            .finish()
    }
}

impl Drop for Nic {
    fn drop(&mut self) {
        // ordering: Release — pairs with the engine thread's Acquire
        // loads; all descriptor state mutated before the drop is visible
        // to the engine before it observes the stop flag.
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.ops.send(EngineOp::Stop);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }
}

/// One endpoint of a connected Virtual Interface pair.
#[derive(Clone)]
pub struct Vi {
    shared: Arc<ViShared>,
    nic: Arc<NicShared>,
}

impl Vi {
    /// This endpoint's fabric-wide id (used in [`Completion::vi_id`]).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Posts a receive descriptor. Arriving messages consume descriptors
    /// in FIFO order.
    ///
    /// # Errors
    ///
    /// Fails if the descriptor's region is unknown or out of bounds, or
    /// with [`ViaError::RingFull`] if the posted-receive ring is full.
    #[press::hot_path]
    pub fn post_recv(&self, desc: Descriptor) -> Result<(), ViaError> {
        self.nic.validate(&desc)?;
        let _own = self.shared.recv_post.claim();
        // SAFETY: the owner tag above makes this thread the ring's sole
        // producer for the duration of the push.
        unsafe { self.shared.recv_ring.push(desc).map_err(|(e, _)| e) }
    }

    /// Posts a send descriptor; the NIC engine transfers the segment to
    /// the peer's next posted receive descriptor.
    ///
    /// # Errors
    ///
    /// Fails immediately if the region is unknown/out of bounds or the
    /// engine has shut down. Delivery errors are reported through the
    /// completion.
    #[press::hot_path]
    pub fn post_send(&self, desc: Descriptor) -> Result<(), ViaError> {
        // ordering: Acquire — pairs with the Release store in
        // `Drop for Nic`; a post racing teardown either sees the flag
        // or its op lands before the engine drains.
        if self.nic.shutdown.load(Ordering::Acquire) {
            return Err(ViaError::Shutdown);
        }
        self.nic.validate(&desc)?;
        self.nic
            .trace_event(EventKind::ViaPost, self.shared.id, desc.len as u64, 0);
        self.nic
            .ops
            .send(EngineOp::Send {
                vi: self.shared.id,
                sg: SgList::from(desc),
            })
            .map_err(|_| ViaError::Shutdown)
    }

    /// Posts a scatter-gather send: up to [`crate::MAX_SEGMENTS`]
    /// registered segments go out as one message, reported by one
    /// completion whose descriptor covers the first segment widened to
    /// the gather's total length.
    ///
    /// # Errors
    ///
    /// Fails immediately if the list is empty, any segment is
    /// unknown/out of bounds, or the engine has shut down.
    #[press::hot_path]
    pub fn post_send_sg(&self, sg: SgList) -> Result<(), ViaError> {
        // ordering: Acquire — same teardown contract as `post_send`.
        if self.nic.shutdown.load(Ordering::Acquire) {
            return Err(ViaError::Shutdown);
        }
        self.validate_sg(&sg)?;
        let total = sg.total_len() as u64;
        self.nic
            .trace_event(EventKind::ViaPost, self.shared.id, total, sg.len() as u64);
        self.nic
            .ops
            .send(EngineOp::Send {
                vi: self.shared.id,
                sg,
            })
            .map_err(|_| ViaError::Shutdown)
    }

    /// Crate-internal batched post used by [`crate::Doorbell`]: all
    /// `count` gathers ride one engine op (one doorbell). Segments were
    /// validated when staged. The ViaPost trace event carries the batch
    /// size so doorbell coalescing is visible in traces.
    #[press::hot_path]
    pub(crate) fn post_send_batch(
        &self,
        sgs: [SgList; MAX_DOORBELL],
        count: u8,
        total_bytes: u64,
    ) -> Result<(), ViaError> {
        // ordering: Acquire — same teardown contract as `post_send`.
        if self.nic.shutdown.load(Ordering::Acquire) {
            return Err(ViaError::Shutdown);
        }
        self.nic.trace_event(
            EventKind::ViaPost,
            self.shared.id,
            total_bytes,
            count as u64,
        );
        self.nic
            .ops
            .send(EngineOp::SendBatch {
                vi: self.shared.id,
                sgs,
                count,
            })
            .map_err(|_| ViaError::Shutdown)
    }

    /// Crate-internal validation of a gather list (also used when
    /// staging into a [`crate::Doorbell`]).
    pub(crate) fn validate_sg(&self, sg: &SgList) -> Result<(), ViaError> {
        if sg.is_empty() {
            return Err(ViaError::OutOfBounds);
        }
        for seg in sg.segments() {
            self.nic.validate(seg)?;
        }
        Ok(())
    }

    /// Posts a remote memory write: the local segment is written into the
    /// peer's registered region without any receiver involvement.
    ///
    /// # Errors
    ///
    /// Fails immediately on local validation problems; remote validation
    /// problems (unknown region, bounds, permission) are reported through
    /// the completion.
    #[press::hot_path]
    pub fn rdma_write(&self, desc: Descriptor, remote: RemoteBuffer) -> Result<(), ViaError> {
        // ordering: Acquire — same teardown contract as `post_send`.
        if self.nic.shutdown.load(Ordering::Acquire) {
            return Err(ViaError::Shutdown);
        }
        self.nic.validate(&desc)?;
        self.nic
            .trace_event(EventKind::RdmaWrite, self.shared.id, desc.len as u64, 0);
        self.nic
            .ops
            .send(EngineOp::Rdma {
                vi: self.shared.id,
                desc,
                remote,
            })
            .map_err(|_| ViaError::Shutdown)
    }

    /// Waits for the next send (or RDMA-write) completion.
    ///
    /// # Errors
    ///
    /// [`ViaError::Timeout`] if nothing completes in time. Not available
    /// when the VI is attached to a [`CompletionQueue`].
    #[press::hot_path]
    pub fn wait_send_completion(&self, timeout: Duration) -> Result<Completion, ViaError> {
        let _own = self.shared.send_reap.claim();
        // press::allow(blocking-in-hot-path): this *is* the explicit
        // VipWaitDone-style wait API — blocking is its contract; the
        // non-blocking alternative is `poll_send_completion`.
        // SAFETY: the owner tag above makes this thread the ring's sole
        // consumer for the duration of the wait.
        unsafe { self.shared.send_done.pop_wait(timeout) }.ok_or(ViaError::Timeout)
    }

    /// Waits for the next receive completion.
    ///
    /// # Errors
    ///
    /// [`ViaError::Timeout`] if nothing arrives in time.
    #[press::hot_path]
    pub fn wait_recv_completion(&self, timeout: Duration) -> Result<Completion, ViaError> {
        let _own = self.shared.recv_reap.claim();
        // press::allow(blocking-in-hot-path): the explicit wait API —
        // blocking is its contract; see `wait_send_completion`.
        // SAFETY: the owner tag above makes this thread the ring's sole
        // consumer for the duration of the wait.
        unsafe { self.shared.recv_done.pop_wait(timeout) }.ok_or(ViaError::Timeout)
    }

    /// Non-blocking poll of the receive completion queue.
    #[press::hot_path]
    pub fn poll_recv_completion(&self) -> Option<Completion> {
        let _own = self.shared.recv_reap.claim();
        // SAFETY: the owner tag above makes this thread the ring's sole
        // consumer for the duration of the poll.
        unsafe { self.shared.recv_done.pop() }
    }

    /// Number of receive descriptors currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.shared.recv_ring.len()
    }

    /// Crate-internal region access for helpers layered over a `Vi`
    /// (e.g. [`crate::CreditChannel`]): reads registered memory of the
    /// owning NIC.
    pub(crate) fn region_read(
        &self,
        region: MemHandle,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ViaError> {
        let r = self.nic.region(region)?;
        let bytes = r.bytes.read();
        if offset + len > bytes.len() {
            return Err(ViaError::OutOfBounds);
        }
        Ok(bytes[offset..offset + len].to_vec())
    }

    /// Crate-internal write into the owning NIC's registered memory.
    pub(crate) fn region_write(
        &self,
        region: MemHandle,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ViaError> {
        let r = self.nic.region(region)?;
        let mut bytes = r.bytes.write();
        if offset + data.len() > bytes.len() {
            return Err(ViaError::OutOfBounds);
        }
        bytes[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }
}

impl std::fmt::Debug for Vi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vi")
            .field("id", &self.shared.id)
            .field("posted_recvs", &self.posted_recvs())
            .finish()
    }
}

/// Aggregates descriptor completions of multiple VIs into one queue
/// (Section 2.1's CQs).
pub struct CompletionQueue {
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
}

impl Default for CompletionQueue {
    fn default() -> Self {
        CompletionQueue::new()
    }
}

impl CompletionQueue {
    /// Creates an empty completion queue.
    pub fn new() -> Self {
        let (tx, rx) = unbounded();
        CompletionQueue { tx, rx }
    }

    /// Non-blocking poll.
    pub fn poll(&self) -> Option<Completion> {
        self.rx.try_recv().ok()
    }

    /// Blocking wait.
    ///
    /// # Errors
    ///
    /// [`ViaError::Timeout`] if nothing completes in time.
    pub fn wait(&self, timeout: Duration) -> Result<Completion, ViaError> {
        self.rx.recv_timeout(timeout).map_err(|_| ViaError::Timeout)
    }

    /// Number of completions waiting.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether no completions are waiting.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("pending", &self.rx.len())
            .finish()
    }
}

/// The engine: processes this NIC's posted sends and remote writes, in
/// order, against peers' receive queues and regions.
fn engine_loop(nic: Arc<NicShared>, ops: Receiver<EngineOp>) {
    while let Ok(op) = ops.recv() {
        match op {
            EngineOp::Stop => break,
            EngineOp::Send { vi, sg } => process_send(&nic, vi, sg),
            EngineOp::SendBatch { vi, sgs, count } => {
                // One doorbell, `count` messages: process in post order.
                for sg in sgs.iter().take(count as usize) {
                    process_send(&nic, vi, *sg);
                }
            }
            EngineOp::Rdma { vi, desc, remote } => process_rdma(&nic, vi, desc, remote),
        }
    }
}

/// A resolved peer endpoint: the owning NIC plus the VI state.
type PeerRef = (Arc<NicShared>, Arc<ViShared>);

fn lookup(nic: &Arc<NicShared>, vi: u64) -> Option<(Arc<ViShared>, Reliability, Option<PeerRef>)> {
    // press::allow(blocking-in-hot-path): the VI table is written only
    // by connect/disconnect on the control path; data-path readers
    // never contend with each other on this RwLock.
    let local = nic.vis.read().get(&vi).cloned()?;
    let reliability = local.reliability;
    let peer = local.peer.as_ref().and_then(|(w, id)| {
        let peer_nic = w.upgrade()?;
        let peer_vi = peer_nic.vis.read().get(id).cloned()?;
        Some((peer_nic, peer_vi))
    });
    Some((local, reliability, peer))
}

/// One-copy transfer between registered regions: no staging buffer.
///
/// Distinct regions are locked in address order so two engines copying
/// in opposite directions cannot deadlock; a same-region copy takes the
/// single write lock once and uses `copy_within`.
fn copy_between(
    src: &Region,
    src_off: usize,
    dst: &Region,
    dst_off: usize,
    len: usize,
) -> Result<(), ViaError> {
    if Arc::ptr_eq(&src.bytes, &dst.bytes) {
        // press::allow(blocking-in-hot-path): region locks model DMA —
        // one writer per transfer, taken in address order below, and
        // the simulated wire is the only contender.
        let mut b = dst.bytes.write();
        if src_off + len > b.len() || dst_off + len > b.len() {
            return Err(ViaError::OutOfBounds);
        }
        b.copy_within(src_off..src_off + len, dst_off);
        return Ok(());
    }
    let src_first =
        std::ptr::addr_of!(*src.bytes) as usize <= std::ptr::addr_of!(*dst.bytes) as usize;
    let (sb, mut db);
    if src_first {
        sb = src.bytes.read(); // press::allow(blocking-in-hot-path): address-ordered DMA pair
        db = dst.bytes.write(); // press::allow(blocking-in-hot-path): address-ordered DMA pair
    } else {
        db = dst.bytes.write(); // press::allow(blocking-in-hot-path): address-ordered DMA pair
        sb = src.bytes.read(); // press::allow(blocking-in-hot-path): address-ordered DMA pair
    }
    if src_off + len > sb.len() || dst_off + len > db.len() {
        return Err(ViaError::OutOfBounds);
    }
    db[dst_off..dst_off + len].copy_from_slice(&sb[src_off..src_off + len]);
    Ok(())
}

#[press::hot_path]
fn process_send(nic: &Arc<NicShared>, vi: u64, sg: SgList) {
    let Some((local, reliability, peer)) = lookup(nic, vi) else {
        return;
    };
    let done_desc = sg.completion_descriptor();
    let total = sg.total_len();
    let fail = |err: ViaError| {
        nic.trace_event(EventKind::ViaComplete, vi, 0, 1);
        local.complete_send(
            nic,
            Completion {
                vi_id: vi,
                descriptor: done_desc,
                kind: CompletionKind::Send,
                transferred: 0,
                status: Err(err),
            },
        );
    };
    let Some((peer_nic, peer_vi)) = peer else {
        fail(ViaError::NotConnected);
        return;
    };
    // Injected transport failure: the descriptor completes with error
    // status and nothing reaches the peer.
    if nic.should_fail() {
        fail(ViaError::NotConnected);
        return;
    }
    // Resolve every source segment up front; a region deregistered
    // after posting surfaces here, as an error completion.
    let mut srcs: [Option<Region>; MAX_SEGMENTS] = std::array::from_fn(|_| None);
    for (i, seg) in sg.segments().iter().enumerate() {
        match nic.region(seg.region) {
            Ok(r) => srcs[i] = Some(r),
            Err(e) => {
                fail(e);
                return;
            }
        }
    }
    // Fault injection: unreliable delivery drops silently — the send
    // still completes successfully and the peer's descriptor stays
    // posted (the "message lost without being detected" of Section 2.1).
    if reliability == Reliability::UnreliableDelivery && nic.should_drop() {
        nic.trace_event(EventKind::ViaComplete, vi, total as u64, 0);
        local.complete_send(
            nic,
            Completion {
                vi_id: vi,
                descriptor: done_desc,
                kind: CompletionKind::Send,
                transferred: total,
                status: Ok(()),
            },
        );
        return;
    }
    let Some(rd) = peer_vi.pop_posted_recv() else {
        match reliability {
            // Lost: nobody was listening, nobody is told.
            Reliability::UnreliableDelivery => {
                nic.trace_event(EventKind::ViaComplete, vi, total as u64, 0);
                local.complete_send(
                    nic,
                    Completion {
                        vi_id: vi,
                        descriptor: done_desc,
                        kind: CompletionKind::Send,
                        transferred: total,
                        status: Ok(()),
                    },
                );
            }
            Reliability::ReliableDelivery => fail(ViaError::ReceiverNotReady),
        }
        return;
    };
    if rd.len < total {
        fail(ViaError::RecvBufferTooSmall);
        peer_vi.complete_recv(
            &peer_nic,
            Completion {
                vi_id: peer_vi.id,
                descriptor: rd,
                kind: CompletionKind::Recv,
                transferred: 0,
                status: Err(ViaError::RecvBufferTooSmall),
            },
        );
        return;
    }
    // Gather the segments into the receive buffer, region to region —
    // one copy, no staging.
    let mut status = Ok(());
    match peer_nic.region(rd.region) {
        Ok(dst) => {
            let mut dst_off = rd.offset;
            for (i, seg) in sg.segments().iter().enumerate() {
                let Some(src) = srcs[i].as_ref() else {
                    break;
                };
                if let Err(e) = copy_between(src, seg.offset, &dst, dst_off, seg.len) {
                    status = Err(e);
                    break;
                }
                dst_off += seg.len;
            }
        }
        Err(e) => status = Err(e),
    }
    let transferred = if status.is_ok() { total } else { 0 };
    nic.trace_event(
        EventKind::ViaComplete,
        vi,
        transferred as u64,
        status.is_err() as u64,
    );
    local.complete_send(
        nic,
        Completion {
            vi_id: vi,
            descriptor: done_desc,
            kind: CompletionKind::Send,
            transferred,
            status,
        },
    );
    peer_nic.trace_event(
        EventKind::ViaRecv,
        peer_vi.id,
        transferred as u64,
        status.is_err() as u64,
    );
    peer_vi.complete_recv(
        &peer_nic,
        Completion {
            vi_id: peer_vi.id,
            descriptor: rd,
            kind: CompletionKind::Recv,
            transferred,
            status,
        },
    );
}

#[press::hot_path]
fn process_rdma(nic: &Arc<NicShared>, vi: u64, desc: Descriptor, remote: RemoteBuffer) {
    let Some((local, reliability, peer)) = lookup(nic, vi) else {
        return;
    };
    let complete = |status: Result<(), ViaError>, transferred: usize| {
        nic.trace_event(
            EventKind::ViaComplete,
            vi,
            transferred as u64,
            status.is_err() as u64,
        );
        local.complete_send(
            nic,
            Completion {
                vi_id: vi,
                descriptor: desc,
                kind: CompletionKind::RdmaWrite,
                transferred,
                status,
            },
        );
    };
    let Some((peer_nic, _peer_vi)) = peer else {
        complete(Err(ViaError::NotConnected), 0);
        return;
    };
    if nic.should_fail() {
        complete(Err(ViaError::NotConnected), 0);
        return;
    }
    let src = match nic.region(desc.region) {
        Ok(r) => r,
        Err(e) => {
            complete(Err(e), 0);
            return;
        }
    };
    if reliability == Reliability::UnreliableDelivery && nic.should_drop() {
        complete(Ok(()), desc.len);
        return;
    }
    let status = match peer_nic.region(remote.region) {
        Ok(dst) if !dst.allow_remote_write => Err(ViaError::RemoteWriteForbidden),
        Ok(dst) => {
            let copied = copy_between(&src, desc.offset, &dst, remote.offset, desc.len);
            // The bytes have landed: wake the region's owner before the
            // sender's completion is delivered.
            if let (Ok(()), Some(hook)) = (&copied, &dst.on_remote_write) {
                hook();
            }
            copied
        }
        Err(e) => Err(e),
    };
    let ok = status.is_ok();
    complete(status, if ok { desc.len } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(2);

    fn pair(reliability: Reliability) -> (Nic, Nic, Vi, Vi) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (va, vb) = fabric.connect(&a, &b, reliability).expect("connect");
        (a, b, va, vb)
    }

    #[test]
    fn send_recv_round_trip() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(b"hello via".to_vec(), false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 64)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 9)).unwrap();
        let s = va.wait_send_completion(T).unwrap();
        assert!(s.is_ok());
        assert_eq!(s.kind, CompletionKind::Send);
        let r = vb.wait_recv_completion(T).unwrap();
        assert_eq!(r.bytes_transferred(), 9);
        assert_eq!(b.read_region(mb, 0, 9).unwrap(), b"hello via");
    }

    #[test]
    fn tracer_records_post_and_completion_events() {
        use press_telem::LiveTracer;
        let tracer = LiveTracer::new();
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        a.set_tracer(tracer.handle(0, press_telem::lane::SEND));
        b.set_tracer(tracer.handle(1, press_telem::lane::RECV));
        let ma = a.register(b"traced".to_vec(), false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 64)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 6)).unwrap();
        assert!(va.wait_send_completion(T).unwrap().is_ok());
        assert!(vb.wait_recv_completion(T).unwrap().is_ok());
        drop(va);
        drop(vb);
        drop(a);
        drop(b);
        let trace = tracer.drain();
        let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::ViaPost), "{kinds:?}");
        assert!(kinds.contains(&EventKind::ViaComplete), "{kinds:?}");
        assert!(kinds.contains(&EventKind::ViaRecv), "{kinds:?}");
        // Both NICs contributed, under their respective node ids.
        assert_eq!(trace.nodes(), vec![0, 1]);
        assert!(trace.count_cat("via") >= 3);
    }

    #[test]
    fn bidirectional_transfers() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![7; 16], false).unwrap();
        let mb = b.register(vec![9; 16], false).unwrap();
        va.post_recv(Descriptor::new(ma, 8, 8)).unwrap();
        vb.post_recv(Descriptor::new(mb, 8, 8)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 8)).unwrap();
        vb.post_send(Descriptor::new(mb, 0, 8)).unwrap();
        assert!(va.wait_recv_completion(T).unwrap().is_ok());
        assert!(vb.wait_recv_completion(T).unwrap().is_ok());
        assert_eq!(a.read_region(ma, 8, 8).unwrap(), vec![9; 8]);
        assert_eq!(b.read_region(mb, 8, 8).unwrap(), vec![7; 8]);
    }

    #[test]
    fn reliable_in_order_delivery() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register((0..=255).collect(), false).unwrap();
        let mb = b.register(vec![0; 256], false).unwrap();
        for i in 0..8 {
            vb.post_recv(Descriptor::new(mb, i * 32, 32)).unwrap();
        }
        for i in 0..8 {
            va.post_send(Descriptor::new(ma, i * 32, 32)).unwrap();
        }
        for _ in 0..8 {
            assert!(vb.wait_recv_completion(T).unwrap().is_ok());
        }
        // In-order: receive buffers filled in posting order.
        let got = b.read_region(mb, 0, 256).unwrap();
        let want: Vec<u8> = (0..=255).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reliable_send_without_recv_reports_error() {
        let (a, _b, va, _vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![1; 8], false).unwrap();
        va.post_send(Descriptor::new(ma, 0, 8)).unwrap();
        let c = va.wait_send_completion(T).unwrap();
        assert_eq!(c.status, Err(ViaError::ReceiverNotReady));
    }

    #[test]
    fn unreliable_send_without_recv_is_silent() {
        let (a, _b, va, _vb) = pair(Reliability::UnreliableDelivery);
        let ma = a.register(vec![1; 8], false).unwrap();
        va.post_send(Descriptor::new(ma, 0, 8)).unwrap();
        let c = va.wait_send_completion(T).unwrap();
        assert!(c.is_ok(), "unreliable sends complete even when lost");
    }

    #[test]
    fn unreliable_drops_with_fault_injection() {
        let (a, b, va, vb) = pair(Reliability::UnreliableDelivery);
        a.set_fault(FaultConfig {
            drop_probability: 1.0,
            fail_probability: 0.0,
            seed: 1,
        });
        let ma = a.register(vec![5; 8], false).unwrap();
        let mb = b.register(vec![0; 8], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 8)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 8)).unwrap();
        assert!(va.wait_send_completion(T).unwrap().is_ok());
        // Nothing arrives; the recv descriptor stays posted.
        assert_eq!(
            vb.wait_recv_completion(Duration::from_millis(100)),
            Err(ViaError::Timeout)
        );
        assert_eq!(vb.posted_recvs(), 1);
        assert_eq!(b.read_region(mb, 0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn reliable_ignores_fault_injection() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        a.set_fault(FaultConfig {
            drop_probability: 1.0,
            fail_probability: 0.0,
            seed: 1,
        });
        let ma = a.register(vec![5; 8], false).unwrap();
        let mb = b.register(vec![0; 8], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 8)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 8)).unwrap();
        assert_eq!(vb.wait_recv_completion(T).unwrap().bytes_transferred(), 8);
    }

    #[test]
    fn rdma_write_without_receiver_involvement() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(b"rdma!".to_vec(), false).unwrap();
        let mb = b.register(vec![0; 32], true).unwrap();
        // No post_recv on vb at all.
        va.rdma_write(
            Descriptor::new(ma, 0, 5),
            RemoteBuffer {
                region: mb,
                offset: 10,
            },
        )
        .unwrap();
        let c = va.wait_send_completion(T).unwrap();
        assert!(c.is_ok());
        assert_eq!(c.kind, CompletionKind::RdmaWrite);
        assert_eq!(b.read_region(mb, 10, 5).unwrap(), b"rdma!");
        let _ = vb;
    }

    #[test]
    fn rdma_write_requires_permission() {
        let (a, b, va, _vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![1; 4], false).unwrap();
        let mb = b.register(vec![0; 4], false).unwrap(); // no remote write
        va.rdma_write(
            Descriptor::new(ma, 0, 4),
            RemoteBuffer {
                region: mb,
                offset: 0,
            },
        )
        .unwrap();
        let c = va.wait_send_completion(T).unwrap();
        assert_eq!(c.status, Err(ViaError::RemoteWriteForbidden));
        assert_eq!(b.read_region(mb, 0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn rdma_write_bounds_checked_remotely() {
        let (a, b, va, _vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![1; 16], false).unwrap();
        let mb = b.register(vec![0; 8], true).unwrap();
        va.rdma_write(
            Descriptor::new(ma, 0, 16),
            RemoteBuffer {
                region: mb,
                offset: 0,
            },
        )
        .unwrap();
        let c = va.wait_send_completion(T).unwrap();
        assert_eq!(c.status, Err(ViaError::OutOfBounds));
    }

    /// A hook that counts its runs.
    fn counting_hook() -> (Arc<AtomicU64>, Arc<dyn Fn() + Send + Sync>) {
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        // ordering: Relaxed — a test counter, read after the write's
        // completion, which the engine delivers after the hook returns.
        let hook = Arc::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        (runs, hook)
    }

    fn rdma(vi: &Vi, src: MemHandle, len: usize, dst: MemHandle) -> Completion {
        vi.rdma_write(
            Descriptor::new(src, 0, len),
            RemoteBuffer {
                region: dst,
                offset: 0,
            },
        )
        .unwrap();
        vi.wait_send_completion(T).unwrap()
    }

    #[test]
    fn remote_write_hook_runs_once_per_landed_write() {
        let (a, b, va, _vb) = pair(Reliability::ReliableDelivery);
        let b = Arc::new(b);
        let ma = a.register(b"hooked".to_vec(), false).unwrap();
        let watched = b.register(vec![0; 8], true).unwrap();
        let other = b.register(vec![0; 8], true).unwrap();
        // The hook reads the watched region itself: the landed bytes must
        // already be there when it runs.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (nic, log) = (Arc::downgrade(&b), Arc::clone(&seen));
        b.on_remote_write(
            watched,
            Arc::new(move || {
                if let Some(nic) = nic.upgrade() {
                    log.lock().push(nic.read_region(watched, 0, 6).unwrap());
                }
            }),
        )
        .unwrap();
        for _ in 0..3 {
            assert!(rdma(&va, ma, 6, watched).is_ok());
        }
        assert_eq!(*seen.lock(), vec![b"hooked".to_vec(); 3]);
        // A write into another region, and a local write into the watched
        // one, leave the hook alone.
        assert!(rdma(&va, ma, 6, other).is_ok());
        b.write_region(watched, 0, b"local!").unwrap();
        assert_eq!(seen.lock().len(), 3);
    }

    #[test]
    fn remote_write_hook_skips_writes_that_do_not_land() {
        let (a, b, va, _vb) = pair(Reliability::UnreliableDelivery);
        let ma = a.register(vec![7; 16], false).unwrap();
        let watched = b.register(vec![0; 8], true).unwrap();
        let forbidden = b.register(vec![0; 8], false).unwrap();
        let (runs, hook) = counting_hook();
        b.on_remote_write(watched, Arc::clone(&hook)).unwrap();
        b.on_remote_write(forbidden, hook).unwrap();
        assert_eq!(
            rdma(&va, ma, 8, forbidden).status,
            Err(ViaError::RemoteWriteForbidden)
        );
        assert_eq!(
            rdma(&va, ma, 16, watched).status,
            Err(ViaError::OutOfBounds)
        );
        let fault = |drop_probability, fail_probability| FaultConfig {
            drop_probability,
            fail_probability,
            seed: 1,
        };
        a.set_fault(fault(0.0, 1.0));
        assert_eq!(
            rdma(&va, ma, 8, watched).status,
            Err(ViaError::NotConnected)
        );
        // A dropped write completes successfully but never lands.
        a.set_fault(fault(1.0, 0.0));
        assert!(rdma(&va, ma, 8, watched).is_ok());
        assert_eq!(b.read_region(watched, 0, 8).unwrap(), vec![0; 8]);
        // ordering: Relaxed — see `counting_hook`.
        assert_eq!(runs.load(Ordering::Relaxed), 0);
        a.set_fault(fault(0.0, 0.0));
        assert!(rdma(&va, ma, 8, watched).is_ok());
        // ordering: Relaxed — see `counting_hook`.
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn remote_write_hook_needs_a_registered_region() {
        let (_a, b, _va, _vb) = pair(Reliability::ReliableDelivery);
        let (_, hook) = counting_hook();
        assert_eq!(
            b.on_remote_write(MemHandle(999), hook),
            Err(ViaError::UnknownRegion)
        );
    }

    #[test]
    fn local_validation_errors_are_synchronous() {
        let (a, _b, va, _vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![0; 8], false).unwrap();
        assert_eq!(
            va.post_send(Descriptor::new(ma, 4, 8)),
            Err(ViaError::OutOfBounds)
        );
        assert_eq!(
            va.post_send(Descriptor::new(MemHandle(999), 0, 1)),
            Err(ViaError::UnknownRegion)
        );
        assert_eq!(
            va.post_recv(Descriptor::new(ma, 0, 16)),
            Err(ViaError::OutOfBounds)
        );
    }

    #[test]
    fn recv_buffer_too_small_fails_both_sides() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![1; 64], false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 16)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 32)).unwrap();
        assert_eq!(
            va.wait_send_completion(T).unwrap().status,
            Err(ViaError::RecvBufferTooSmall)
        );
        assert_eq!(
            vb.wait_recv_completion(T).unwrap().status,
            Err(ViaError::RecvBufferTooSmall)
        );
    }

    #[test]
    fn completion_queue_aggregates_vis() {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let cq = CompletionQueue::new();
        let (va1, vb1) = fabric
            .connect_with_cqs(&a, &b, Reliability::ReliableDelivery, None, Some(&cq))
            .unwrap();
        let (va2, vb2) = fabric
            .connect_with_cqs(&a, &b, Reliability::ReliableDelivery, None, Some(&cq))
            .unwrap();
        let ma = a.register(vec![3; 32], false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb1.post_recv(Descriptor::new(mb, 0, 16)).unwrap();
        vb2.post_recv(Descriptor::new(mb, 16, 16)).unwrap();
        va1.post_send(Descriptor::new(ma, 0, 16)).unwrap();
        va2.post_send(Descriptor::new(ma, 16, 16)).unwrap();
        let c1 = cq.wait(T).unwrap();
        let c2 = cq.wait(T).unwrap();
        let mut ids = vec![c1.vi_id, c2.vi_id];
        ids.sort_unstable();
        let mut expect = vec![vb1.id(), vb2.id()];
        expect.sort_unstable();
        assert_eq!(ids, expect);
        assert!(cq.is_empty());
    }

    #[test]
    fn deregister_invalidates_handle() {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let ma = a.register(vec![0; 8], false).unwrap();
        a.deregister(ma).unwrap();
        assert_eq!(a.read_region(ma, 0, 1), Err(ViaError::UnknownRegion));
        assert_eq!(a.deregister(ma), Err(ViaError::UnknownRegion));
    }

    #[test]
    fn read_region_into_matches_read_region() {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let m = a.register((0..64).collect(), false).unwrap();
        let mut out = [0u8; 16];
        a.read_region_into(m, 8, &mut out).unwrap();
        assert_eq!(out.to_vec(), a.read_region(m, 8, 16).unwrap());
        // An overrun is refused before anything is copied.
        let mut out = [0xEE; 16];
        assert_eq!(
            a.read_region_into(m, 56, &mut out),
            Err(ViaError::OutOfBounds)
        );
        assert_eq!(a.read_region(m, 56, 16), Err(ViaError::OutOfBounds));
        assert_eq!(out, [0xEE; 16]);
    }

    #[test]
    fn shutdown_fails_pending_posts() {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (va, _vb) = fabric
            .connect(&a, &b, Reliability::ReliableDelivery)
            .unwrap();
        let ma = a.register(vec![0; 8], false).unwrap();
        drop(a);
        // The engine is gone: posting reports shutdown.
        assert_eq!(
            va.post_send(Descriptor::new(ma, 0, 8)),
            Err(ViaError::Shutdown)
        );
    }

    #[test]
    fn many_concurrent_transfers() {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (va, vb) = fabric
            .connect(&a, &b, Reliability::ReliableDelivery)
            .unwrap();
        let ma = a.register(vec![0xAB; 1 << 16], false).unwrap();
        let mb = b.register(vec![0; 1 << 16], false).unwrap();
        for i in 0..256 {
            vb.post_recv(Descriptor::new(mb, i * 256, 256)).unwrap();
        }
        for i in 0..256 {
            va.post_send(Descriptor::new(ma, i * 256, 256)).unwrap();
        }
        for _ in 0..256 {
            assert!(vb.wait_recv_completion(T).unwrap().is_ok());
        }
        assert_eq!(b.read_region(mb, 0, 1 << 16).unwrap(), vec![0xAB; 1 << 16]);
    }

    #[test]
    fn sg_send_gathers_segments_into_one_message() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let hdr = a.register(b"HDR|".to_vec(), false).unwrap();
        let body = a.register(b"0123456789abcdef".to_vec(), false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 64)).unwrap();
        let mut sg = SgList::new();
        sg.push(Descriptor::new(hdr, 0, 4)).unwrap();
        sg.push(Descriptor::new(body, 0, 8)).unwrap();
        sg.push(Descriptor::new(body, 12, 4)).unwrap();
        va.post_send_sg(sg).unwrap();
        let s = va.wait_send_completion(T).unwrap();
        assert!(s.is_ok());
        assert_eq!(s.transferred, 16);
        let r = vb.wait_recv_completion(T).unwrap();
        assert_eq!(r.bytes_transferred(), 16);
        assert_eq!(b.read_region(mb, 0, 16).unwrap(), b"HDR|01234567cdef");
    }

    #[test]
    fn sg_send_too_big_for_recv_fails_both_sides() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let ma = a.register(vec![1; 64], false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 16)).unwrap();
        let mut sg = SgList::new();
        sg.push(Descriptor::new(ma, 0, 12)).unwrap();
        sg.push(Descriptor::new(ma, 32, 12)).unwrap();
        va.post_send_sg(sg).unwrap();
        assert_eq!(
            va.wait_send_completion(T).unwrap().status,
            Err(ViaError::RecvBufferTooSmall)
        );
        assert_eq!(
            vb.wait_recv_completion(T).unwrap().status,
            Err(ViaError::RecvBufferTooSmall)
        );
    }

    #[test]
    fn empty_sg_rejected_synchronously() {
        let (_a, _b, va, _vb) = pair(Reliability::ReliableDelivery);
        assert_eq!(va.post_send_sg(SgList::new()), Err(ViaError::OutOfBounds));
    }

    #[test]
    fn slab_slots_feed_sends_without_fresh_registration() {
        let (a, b, va, vb) = pair(Reliability::ReliableDelivery);
        let pool = a.register_slab(4, 32, false).unwrap();
        let mb = b.register(vec![0; 64], false).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 64)).unwrap();
        let slot = pool.alloc().unwrap();
        a.write_region(pool.handle(), slot.offset, b"from the slab")
            .unwrap();
        let d = pool.descriptor(slot, 13).unwrap();
        pool.mark_in_flight(slot).unwrap();
        va.post_send(d).unwrap();
        assert!(va.wait_send_completion(T).unwrap().is_ok());
        assert_eq!(b.read_region(mb, 0, 13).unwrap(), b"from the slab");
        pool.mark_complete(slot).unwrap();
        pool.free(slot).unwrap();
        assert_eq!(pool.free_slots(), 4);
    }

    #[test]
    fn same_region_send_copies_within() {
        // Loopback-style transfer where source and destination share a
        // region: exercises the copy_within path (and must not deadlock
        // on the region lock).
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let (va, vb) = fabric
            .connect(&a, &a, Reliability::ReliableDelivery)
            .unwrap();
        let m = a.register(vec![0; 64], false).unwrap();
        a.write_region(m, 0, b"ping").unwrap();
        vb.post_recv(Descriptor::new(m, 32, 16)).unwrap();
        va.post_send(Descriptor::new(m, 0, 4)).unwrap();
        assert!(vb.wait_recv_completion(T).unwrap().is_ok());
        assert_eq!(a.read_region(m, 32, 4).unwrap(), b"ping");
    }
}

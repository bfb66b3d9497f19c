//! The in-process fabric: NICs, VIs and completion queues. A send or
//! RDMA post runs its transfer in the posting thread, as cLAN's NIC runs
//! one once its doorbell rings: there is no engine thread to hand it to.
//!
//! # Fast-path concurrency (V6)
//!
//! The send/recv/completion paths are lock-free: posted receives and
//! completions travel through [`SpscRing`]s (see `spsc.rs` for the
//! memory-ordering argument) instead of mutexed queues or channels.
//! Each ring end is held by one thread at a time through an
//! [`OwnerTag`]: the host's post-receive and reap tags, and one send tag
//! per VI that every send and RDMA post takes for its whole transfer. A
//! cloned [`Vi`] shared across threads thus degrades to serialized
//! access instead of unsoundness. A post never waits for ring space: it
//! fails with [`ViaError::RingFull`] before transferring anything. The
//! control plane (region registration, VI table, fault configuration)
//! stays behind read-write locks: it is off the per-message path, and
//! message processing takes only read locks there. Message payloads
//! move region-to-region in one copy — the per-send staging allocation
//! of V0–V5 is gone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use press_macros as press;
use press_telem::{EventKind, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::descriptor::MAX_SEGMENTS;
use crate::descriptor::{Completion, CompletionKind, Descriptor, SgList};
use crate::error::ViaError;
use crate::mem::{MemHandle, Region, SlabPool};
use crate::spsc::{OwnerGuard, OwnerTag, SpscRing};

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

struct ViShared {
    id: u64,
    reliability: Reliability,
    /// The connected peer's NIC and VI id, fixed at connect time.
    peer: (Weak<NicShared>, u64),
    /// Posted receive descriptors. Producer: the host (guarded by
    /// `recv_post`); consumer: the peer VI's send and RDMA posts
    /// (guarded by the peer's `send_post`).
    recv_ring: SpscRing<Descriptor>,
    recv_post: OwnerTag,
    /// Held by every send and RDMA post on this VI for the whole
    /// transfer: its holder is the only producer of `send_done` and of
    /// the peer's `recv_done`, and the only consumer of the peer's
    /// `recv_ring`. VIs connect 1:1, so no other post touches them.
    send_post: OwnerTag,
    /// Send/RDMA completions. Producer: this VI's posts (guarded by
    /// `send_post`); consumer: the host (guarded by `send_reap`).
    send_done: SpscRing<Completion>,
    send_reap: OwnerTag,
    /// Receive completions. Producer: the peer VI's sends (guarded by
    /// the peer's `send_post`); consumer: the host (guarded by
    /// `recv_reap`).
    recv_done: SpscRing<Completion>,
    recv_reap: OwnerTag,
    /// When attached, completions go to the CQ instead of the VI rings.
    cq: Option<CqSink>,
}

impl ViShared {
    fn new(
        id: u64,
        reliability: Reliability,
        peer: (Weak<NicShared>, u64),
        cq: Option<&CompletionQueue>,
    ) -> Self {
        ViShared {
            id,
            reliability,
            peer,
            recv_ring: SpscRing::with_capacity(RECV_RING_CAP),
            recv_post: OwnerTag::new(),
            send_post: OwnerTag::new(),
            send_done: SpscRing::with_capacity(DONE_RING_CAP),
            send_reap: OwnerTag::new(),
            recv_done: SpscRing::with_capacity(DONE_RING_CAP),
            recv_reap: OwnerTag::new(),
            cq: cq.map(|c| c.sink.clone()),
        }
    }

    /// The connected peer: its NIC and VI, while that NIC is alive.
    fn peer_ref(&self) -> Option<PeerRef> {
        let (nic, id) = &self.peer;
        let peer_nic = nic.upgrade()?;
        // The VI table is written only by connect, on the control path:
        // posts only read it, so the read lock is uncontended.
        let peer_vi = peer_nic.vis.read().get(id).cloned()?;
        Some((peer_nic, peer_vi))
    }

    /// Whether `n` more completions fit in `ring`, one of this VI's
    /// completion rings. A VI attached to a [`CompletionQueue`] always
    /// has room: its completions go to the unbounded queue instead.
    fn has_room(&self, ring: &SpscRing<Completion>, n: usize) -> bool {
        self.cq.is_some() || n <= ring.vacant()
    }

    /// Delivers a send/RDMA completion. The caller holds this VI's
    /// `send_post` and checked `has_room` before the transfer.
    fn complete_send(&self, c: Completion) {
        match &self.cq {
            Some(cq) => cq.push(c),
            None => {
                // SAFETY: the caller holds `send_post`, which makes it
                // the ring's sole producer.
                let pushed = unsafe { self.send_done.push(c) };
                debug_assert!(pushed.is_ok(), "room was checked before the post");
            }
        }
    }

    /// Delivers a receive completion. The caller holds the peer VI's
    /// `send_post` and checked `has_room` before the transfer.
    fn complete_recv(&self, c: Completion) {
        match &self.cq {
            Some(cq) => cq.push(c),
            None => {
                // SAFETY: the caller holds the single peer's
                // `send_post`, which makes it the ring's sole producer.
                let pushed = unsafe { self.recv_done.push(c) };
                debug_assert!(pushed.is_ok(), "room was checked before the post");
            }
        }
    }

    /// Consumes the next posted receive descriptor. The caller holds the
    /// peer VI's `send_post`.
    fn pop_posted_recv(&self) -> Option<Descriptor> {
        // SAFETY: a VI has exactly one peer, and the caller holds that
        // peer's `send_post`, so it is this ring's sole consumer.
        unsafe { self.recv_ring.pop() }
    }
}

struct NicShared {
    #[allow(dead_code)]
    name: String,
    regions: RwLock<HashMap<u64, Region>>,
    vis: RwLock<HashMap<u64, Arc<ViShared>>>,
    /// Fast-path gate for fault injection: when clear (the default),
    /// `should_drop`/`should_fail` return without touching the mutex.
    fault_active: AtomicBool,
    fault: Mutex<(FaultConfig, StdRng)>,
    /// Set when the [`Nic`] drops: later posts fail with
    /// [`ViaError::Shutdown`].
    shutdown: AtomicBool,
    /// Telemetry hook, installed at most once via [`Nic::set_tracer`].
    /// Every thread that posts on this NIC's VIs, or on their peers,
    /// records through it; when unset the instrumentation reduces to one
    /// `OnceLock::get` branch.
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

    /// Creates a NIC on this fabric. It starts no thread: each post runs
    /// its transfer in the posting thread.
    pub fn create_nic(&self, name: &str) -> Nic {
        Nic {
            fabric: self.clone(),
            shared: Arc::new(NicShared {
                name: name.to_string(),
                regions: RwLock::new(HashMap::new()),
                vis: RwLock::new(HashMap::new()),
                fault_active: AtomicBool::new(false),
                fault: Mutex::new((FaultConfig::default(), StdRng::seed_from_u64(0))),
                shutdown: AtomicBool::new(false),
                trace: OnceLock::new(),
            }),
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
        let vi_a = Arc::new(ViShared::new(
            id_a,
            reliability,
            (Arc::downgrade(&b.shared), id_b),
            cq_a,
        ));
        let vi_b = Arc::new(ViShared::new(
            id_b,
            reliability,
            (Arc::downgrade(&a.shared), id_a),
            cq_b,
        ));
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

/// A network interface: owns registered memory and the VIs connected on
/// it. It has no thread of its own. As cLAN's NIC runs a transfer once
/// its doorbell rings, with no host thread in between, a post here runs
/// its transfer in the posting thread before it returns.
pub struct Nic {
    fabric: Fabric,
    shared: Arc<NicShared>,
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
    /// A remote (RDMA) write into the region runs the hook on the posting
    /// thread once the bytes have landed, so the region's owner can wake
    /// on arrival instead of polling on a timer. A failed, forbidden,
    /// out-of-bounds or dropped write does not run it, and neither does a
    /// local [`Nic::write_region`]. The hook runs inside the writer's
    /// post, with its send tag held: keep it short and non-blocking, and
    /// never post from it.
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
        // ordering: Release — pairs with the Acquire load in
        // `Vi::claim_send`: a post that sees the flag fails.
        self.shared.shutdown.store(true, Ordering::Release);
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

    /// Posts a send descriptor. The segment is copied into the peer's
    /// next posted receive descriptor, and both completions delivered,
    /// before this returns.
    ///
    /// # Errors
    ///
    /// Fails at once, having transferred nothing, if the region is
    /// unknown/out of bounds, the NIC has shut down, or a per-VI
    /// completion ring the post could push into is full
    /// ([`ViaError::RingFull`]: reap, then post again; a VI attached to a
    /// [`CompletionQueue`] never hits this). Delivery errors are reported
    /// through the completion.
    #[press::hot_path]
    pub fn post_send(&self, desc: Descriptor) -> Result<(), ViaError> {
        self.nic.validate(&desc)?;
        self.post_sends(&[SgList::from(desc)], desc.len as u64, 0)
    }

    /// Posts a scatter-gather send: up to [`crate::MAX_SEGMENTS`]
    /// registered segments go out as one message, reported by one
    /// completion whose descriptor covers the first segment widened to
    /// the gather's total length.
    ///
    /// # Errors
    ///
    /// As [`Vi::post_send`], and fails if the list is empty.
    #[press::hot_path]
    pub fn post_send_sg(&self, sg: SgList) -> Result<(), ViaError> {
        self.validate_sg(&sg)?;
        self.post_sends(&[sg], sg.total_len() as u64, sg.len() as u64)
    }

    /// Crate-internal batched post used by [`crate::Doorbell`]: all the
    /// gathers ride one post (one doorbell) and run in order. Segments
    /// were validated when staged. The ViaPost trace event carries the
    /// batch size so doorbell coalescing is visible in traces.
    #[press::hot_path]
    pub(crate) fn post_send_batch(&self, sgs: &[SgList], total_bytes: u64) -> Result<(), ViaError> {
        self.post_sends(sgs, total_bytes, sgs.len() as u64)
    }

    /// Runs `sgs` as one post, in order, in the calling thread. The
    /// ViaPost event records `bytes` and `count`.
    #[press::hot_path]
    fn post_sends(&self, sgs: &[SgList], bytes: u64, count: u64) -> Result<(), ViaError> {
        let (_own, peer) = self.claim_send(sgs.len(), sgs.len())?;
        self.nic
            .trace_event(EventKind::ViaPost, self.shared.id, bytes, count);
        for sg in sgs {
            process_send(&self.nic, &self.shared, peer.as_ref(), *sg);
        }
        Ok(())
    }

    /// Claims this VI's send tag for one post that delivers up to `sends`
    /// completions here and `recvs` at the peer, and resolves the peer.
    /// A post never waits: if the NIC has shut down, or a per-VI
    /// completion ring lacks the room, it fails before any transfer.
    #[press::hot_path]
    fn claim_send(
        &self,
        sends: usize,
        recvs: usize,
    ) -> Result<(OwnerGuard<'_>, Option<PeerRef>), ViaError> {
        // ordering: Acquire — pairs with the Release store in
        // `Drop for Nic`: a post racing teardown either sees the flag or
        // completes while the NIC's state is still whole.
        if self.nic.shutdown.load(Ordering::Acquire) {
            return Err(ViaError::Shutdown);
        }
        let own = self.shared.send_post.claim();
        let peer = self.shared.peer_ref();
        // Only the holder of `send_post` fills these rings, so room seen
        // here is still there when the transfer pushes.
        let room = self.shared.has_room(&self.shared.send_done, sends)
            && peer
                .as_ref()
                .is_none_or(|(_, p)| p.has_room(&p.recv_done, recvs));
        if !room {
            return Err(ViaError::RingFull);
        }
        Ok((own, peer))
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
    /// peer's registered region, without any receiver involvement, before
    /// this returns.
    ///
    /// # Errors
    ///
    /// Fails at once on local validation problems, shutdown, or a full
    /// send completion ring, as [`Vi::post_send`] does; remote
    /// validation problems (unknown region, bounds, permission) are
    /// reported through the completion.
    #[press::hot_path]
    pub fn rdma_write(&self, desc: Descriptor, remote: RemoteBuffer) -> Result<(), ViaError> {
        self.nic.validate(&desc)?;
        let (_own, peer) = self.claim_send(1, 0)?;
        self.nic
            .trace_event(EventKind::RdmaWrite, self.shared.id, desc.len as u64, 0);
        process_rdma(&self.nic, &self.shared, peer.as_ref(), desc, remote);
        Ok(())
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
}

impl std::fmt::Debug for Vi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vi")
            .field("id", &self.shared.id)
            .field("posted_recvs", &self.posted_recvs())
            .finish()
    }
}

/// The producer side of a [`CompletionQueue`], shared by every VI
/// attached to it.
#[derive(Clone)]
struct CqSink {
    tx: Sender<Completion>,
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl CqSink {
    /// Queues `c`, then runs the wake hook, so the hook's owner can
    /// already poll the completion it is woken for.
    fn push(&self, c: Completion) {
        let _ = self.tx.send(c);
        if let Some(wake) = &self.wake {
            wake();
        }
    }
}

/// Aggregates descriptor completions of multiple VIs into one queue
/// (Section 2.1's CQs). The attached VIs' posts queue completions from
/// any thread; the queue itself has one consumer, its owner.
pub struct CompletionQueue {
    sink: CqSink,
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
        let (tx, rx) = channel();
        CompletionQueue {
            sink: CqSink { tx, wake: None },
            rx,
        }
    }

    /// Creates an empty completion queue that runs `wake` after every
    /// completion it queues: send, receive and RDMA write alike. The
    /// hook runs on the thread that posted the transfer, inside its post.
    /// A host thread that polls the queue before it parks uses the hook
    /// to be woken instead of blocking in [`CompletionQueue::wait`]. The
    /// hook must not block, and must not post.
    pub fn with_wake(wake: Arc<dyn Fn() + Send + Sync>) -> Self {
        let mut cq = Self::new();
        cq.sink.wake = Some(wake);
        cq
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
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue").finish_non_exhaustive()
    }
}

/// A resolved peer endpoint: the owning NIC plus the VI state.
type PeerRef = (Arc<NicShared>, Arc<ViShared>);

/// One-copy transfer between registered regions: no staging buffer.
///
/// Distinct regions are locked in address order so two posts copying in
/// opposite directions cannot deadlock; a same-region copy takes the
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

/// Runs one send posted on `local`: copies `sg` into the peer's next
/// posted receive and delivers both completions. The caller holds
/// `local.send_post` and checked the completion rings' room.
#[press::hot_path]
fn process_send(nic: &NicShared, local: &ViShared, peer: Option<&PeerRef>, sg: SgList) {
    let (vi, reliability) = (local.id, local.reliability);
    let done_desc = sg.completion_descriptor();
    let total = sg.total_len();
    let fail = |err: ViaError| {
        nic.trace_event(EventKind::ViaComplete, vi, 0, 1);
        local.complete_send(Completion {
            vi_id: vi,
            descriptor: done_desc,
            kind: CompletionKind::Send,
            transferred: 0,
            status: Err(err),
        });
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
        local.complete_send(Completion {
            vi_id: vi,
            descriptor: done_desc,
            kind: CompletionKind::Send,
            transferred: total,
            status: Ok(()),
        });
        return;
    }
    let Some(rd) = peer_vi.pop_posted_recv() else {
        match reliability {
            // Lost: nobody was listening, nobody is told.
            Reliability::UnreliableDelivery => {
                nic.trace_event(EventKind::ViaComplete, vi, total as u64, 0);
                local.complete_send(Completion {
                    vi_id: vi,
                    descriptor: done_desc,
                    kind: CompletionKind::Send,
                    transferred: total,
                    status: Ok(()),
                });
            }
            Reliability::ReliableDelivery => fail(ViaError::ReceiverNotReady),
        }
        return;
    };
    if rd.len < total {
        fail(ViaError::RecvBufferTooSmall);
        peer_vi.complete_recv(Completion {
            vi_id: peer_vi.id,
            descriptor: rd,
            kind: CompletionKind::Recv,
            transferred: 0,
            status: Err(ViaError::RecvBufferTooSmall),
        });
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
    local.complete_send(Completion {
        vi_id: vi,
        descriptor: done_desc,
        kind: CompletionKind::Send,
        transferred,
        status,
    });
    peer_nic.trace_event(
        EventKind::ViaRecv,
        peer_vi.id,
        transferred as u64,
        status.is_err() as u64,
    );
    peer_vi.complete_recv(Completion {
        vi_id: peer_vi.id,
        descriptor: rd,
        kind: CompletionKind::Recv,
        transferred,
        status,
    });
}

/// Runs one remote write posted on `local`, under the same contract as
/// [`process_send`].
#[press::hot_path]
fn process_rdma(
    nic: &NicShared,
    local: &ViShared,
    peer: Option<&PeerRef>,
    desc: Descriptor,
    remote: RemoteBuffer,
) {
    let (vi, reliability) = (local.id, local.reliability);
    let complete = |status: Result<(), ViaError>, transferred: usize| {
        nic.trace_event(
            EventKind::ViaComplete,
            vi,
            transferred as u64,
            status.is_err() as u64,
        );
        local.complete_send(Completion {
            vi_id: vi,
            descriptor: desc,
            kind: CompletionKind::RdmaWrite,
            transferred,
            status,
        });
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
        // completion, which the post delivers after the hook returns.
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
        assert!(cq.poll().is_none());
    }

    /// Spins until `done` holds, failing the test after `T`.
    fn wait_for(done: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !done() {
            assert!(start.elapsed() < T, "condition not reached in {T:?}");
            std::thread::yield_now();
        }
    }

    type KindLog = Arc<Mutex<Vec<Option<CompletionKind>>>>;

    /// A completion queue whose wake hook polls the queue itself and logs
    /// the kind of the completion it found (None: nothing was queued).
    /// The hook runs on the posting thread, so the queue sits behind a
    /// mutex.
    fn self_polling_cq() -> (Arc<Mutex<CompletionQueue>>, KindLog) {
        let cell: Arc<OnceLock<Weak<Mutex<CompletionQueue>>>> = Arc::new(OnceLock::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let (c, l) = (Arc::clone(&cell), Arc::clone(&log));
        let cq = Arc::new(Mutex::new(CompletionQueue::with_wake(Arc::new(
            move || {
                let polled = c
                    .get()
                    .and_then(Weak::upgrade)
                    .and_then(|cq| cq.lock().poll());
                l.lock().push(polled.map(|c| c.kind));
            },
        ))));
        let _ = cell.set(Arc::downgrade(&cq));
        (cq, log)
    }

    #[test]
    fn cq_wake_hook_runs_once_per_completion_already_queued() {
        let (cq, log) = self_polling_cq();
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (va, vb) = {
            let cq = cq.lock();
            fabric
                .connect_with_cqs(&a, &b, Reliability::ReliableDelivery, Some(&cq), Some(&cq))
                .unwrap()
        };
        let ma = a.register(vec![7; 16], false).unwrap();
        let mb = b.register(vec![0; 32], true).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 16)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 16)).unwrap();
        wait_for(|| log.lock().len() == 2);
        va.rdma_write(
            Descriptor::new(ma, 0, 8),
            RemoteBuffer {
                region: mb,
                offset: 16,
            },
        )
        .unwrap();
        wait_for(|| log.lock().len() == 3);
        let kinds = log.lock().clone();
        assert!(
            kinds[..2].contains(&Some(CompletionKind::Send)),
            "{kinds:?}"
        );
        assert!(
            kinds[..2].contains(&Some(CompletionKind::Recv)),
            "{kinds:?}"
        );
        assert_eq!(kinds[2], Some(CompletionKind::RdmaWrite));
        // Each run found its completion and nothing else: the queue is
        // drained and no further run follows.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(log.lock().len(), 3);
        assert!(cq.lock().poll().is_none());
    }

    #[test]
    fn cq_wake_hook_is_not_run_by_a_plain_queue() {
        let (runs, hook) = counting_hook();
        let plain = CompletionQueue::new();
        let woken = CompletionQueue::with_wake(hook);
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (va, vb) = fabric
            .connect_with_cqs(
                &a,
                &b,
                Reliability::ReliableDelivery,
                Some(&plain),
                Some(&woken),
            )
            .unwrap();
        let ma = a.register(vec![7; 16], false).unwrap();
        let mb = b.register(vec![0; 16], true).unwrap();
        vb.post_recv(Descriptor::new(mb, 0, 16)).unwrap();
        va.post_send(Descriptor::new(ma, 0, 16)).unwrap();
        assert_eq!(plain.wait(T).unwrap().kind, CompletionKind::Send);
        assert_eq!(woken.wait(T).unwrap().kind, CompletionKind::Recv);
        va.rdma_write(
            Descriptor::new(ma, 0, 8),
            RemoteBuffer {
                region: mb,
                offset: 0,
            },
        )
        .unwrap();
        assert_eq!(plain.wait(T).unwrap().kind, CompletionKind::RdmaWrite);
        // ordering: Relaxed — test counter, see `counting_hook`.
        wait_for(|| runs.load(Ordering::Relaxed) == 1);
        // The send and RDMA completions on the plain queue ran no hook.
        std::thread::sleep(Duration::from_millis(10));
        // ordering: Relaxed — as above.
        assert_eq!(runs.load(Ordering::Relaxed), 1);
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
        // The NIC is gone: posting reports shutdown.
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

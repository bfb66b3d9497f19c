//! Mini-loom models of the workspace's lock-free protocols.
//!
//! Each model re-expresses one hand-rolled concurrent algorithm as
//! per-thread step machines over [`minloom`] shadow atomics, then
//! [`minloom::explore`] checks its invariant across every thread
//! interleaving and every stale read the declared orderings permit.
//! Each model is parameterized over its orderings so the suite proves
//! both directions: the shipped orderings pass, and the weakened
//! (`Relaxed`) variants are *caught* — evidence the checker can see the
//! bug class it guards against.
//!
//! Modeled protocols:
//!
//! * [`MembershipModel`] — `press_server::Membership`: concurrent crash
//!   transitions against a reader demanding a coherent (epoch, bitmask)
//!   view, mirroring `crates/server/src/membership.rs`;
//! * [`CrashRecoverModel`] — crash/recover races on one node: the epoch
//!   must count exactly the transitions that changed the bitmask;
//! * [`CreditRepairModel`] — the credit accounting under `ResetPeer`
//!   repair racing a stale credit return, mirroring
//!   `CreditWindow::grant`/`CreditWindow::refill` in
//!   `crates/core/src/credit.rs` as the live outbox drives them;
//! * [`EventOrderModel`] — the event order rule of a live node's loop
//!   under crash recovery: the controller's `ResetPeer`/`Recover` events
//!   against a peer's forward, mirroring `drain_cq`/`take_events` in
//!   `crates/server/src/node.rs`;
//! * [`BatchPoolModel`] — `ExperimentRunner`'s shared-index job claiming
//!   in `crates/core/src/batch.rs`: every slot filled exactly once;
//! * [`SendRingModel`] — the V6 fast path's SPSC send ring with credit
//!   return, mirroring the publish/consume/retire protocol of
//!   `crates/via/src/spsc.rs` and the slab-slot ownership handoff.

use std::collections::VecDeque;

use minloom::{explore, Ctx, Loc, Memory, Model, Order, Outcome};

/// Execution cap for every model here; hitting it fails the run.
pub const MAX_EXECUTIONS: u64 = 5_000_000;

/// Ordering parameters for [`MembershipModel`] / [`CrashRecoverModel`].
#[derive(Debug, Clone, Copy)]
pub struct MembershipOrders {
    /// Ordering of the `fetch_and`/`fetch_or` bitmask updates and the
    /// `fetch_add` epoch bump.
    pub rmw: Order,
    /// Ordering of the reader's `load`s.
    pub load: Order,
}

impl MembershipOrders {
    /// The orderings shipped in `membership.rs` (audited; see the
    /// atomics manifest).
    pub fn shipped() -> Self {
        MembershipOrders {
            rmw: Order::AcqRel,
            load: Order::Acquire,
        }
    }

    /// Fully relaxed variant — must be caught by the checker.
    pub fn relaxed() -> Self {
        MembershipOrders {
            rmw: Order::Relaxed,
            load: Order::Relaxed,
        }
    }
}

/// Two nodes crash concurrently while a reader snapshots the view.
///
/// Mirrors `Membership::set_live` (bitmask update, then epoch bump if
/// the belief changed) and a reader running `epoch()` then `is_live()`
/// then `epoch()`. Invariants:
///
/// * **publication** — having read epoch `e`, the reader must see at
///   least `e` of the bitmask clears (each bump release-publishes its
///   transition, and epoch bumps chain through the RMWs);
/// * **monotonicity** — the second epoch read is never below the first;
/// * **no lost updates** — finally, both bits are cleared and the epoch
///   is exactly 2.
pub struct MembershipModel {
    orders: MembershipOrders,
    live: Loc,
    epoch: Loc,
    pc: [usize; 3],
    first_epoch: u64,
}

/// All-nodes-alive mask for the 4-node models here.
const ALL: u64 = 0b1111;
const CRASH_BITS: [u64; 2] = [1 << 1, 1 << 2];

impl MembershipModel {
    /// Builds the model with the given orderings.
    pub fn new(mem: &mut Memory, orders: MembershipOrders) -> Self {
        MembershipModel {
            orders,
            live: mem.alloc(ALL),
            epoch: mem.alloc(0),
            pc: [0; 3],
            first_epoch: 0,
        }
    }
}

impl Model for MembershipModel {
    fn threads(&self) -> usize {
        3
    }

    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) -> Result<bool, String> {
        let pc = self.pc[tid];
        self.pc[tid] += 1;
        match tid {
            // Crashers: clear the bit, then bump the epoch (the bit was
            // set initially, so the belief always changes).
            0 | 1 => {
                let bit = CRASH_BITS[tid];
                match pc {
                    0 => {
                        let prev = ctx.fetch_and(self.live, !bit, self.orders.rmw);
                        if prev & bit == 0 {
                            return Err(format!("crasher {tid}: bit already clear"));
                        }
                        Ok(true)
                    }
                    _ => {
                        ctx.fetch_add(self.epoch, 1, self.orders.rmw);
                        Ok(false)
                    }
                }
            }
            // Reader: epoch, mask, epoch.
            _ => match pc {
                0 => {
                    self.first_epoch = ctx.load(self.epoch, self.orders.load);
                    Ok(true)
                }
                1 => {
                    let mask = ctx.load(self.live, self.orders.load);
                    let cleared = CRASH_BITS.iter().filter(|&&b| mask & b == 0).count() as u64;
                    if cleared < self.first_epoch {
                        return Err(format!(
                            "stale-epoch read: epoch {} observed but only {} of its \
                             transitions visible in the bitmask",
                            self.first_epoch, cleared
                        ));
                    }
                    Ok(true)
                }
                _ => {
                    let second = ctx.load(self.epoch, self.orders.load);
                    if second < self.first_epoch {
                        return Err(format!(
                            "epoch went backwards: {} then {second}",
                            self.first_epoch
                        ));
                    }
                    Ok(false)
                }
            },
        }
    }

    fn check(&self, mem: &Memory) -> Result<(), String> {
        let mask = mem.latest(self.live);
        let epoch = mem.latest(self.epoch);
        if mask != ALL & !CRASH_BITS[0] & !CRASH_BITS[1] {
            return Err(format!("lost bitmask update: final mask {mask:#06b}"));
        }
        if epoch != 2 {
            return Err(format!("lost epoch bump: final epoch {epoch}"));
        }
        Ok(())
    }
}

/// Crash and recovery race on the *same* node.
///
/// `set_live` bumps the epoch only when the belief changed; with a crash
/// and a recover racing, the epoch must end up equal to the number of
/// RMWs that actually flipped the bit (1 if the recover ran first as a
/// no-op, 2 if it undid the crash).
pub struct CrashRecoverModel {
    orders: MembershipOrders,
    live: Loc,
    epoch: Loc,
    pc: [usize; 2],
    changed: [bool; 2],
}

const NODE_BIT: u64 = 1 << 1;

impl CrashRecoverModel {
    /// Builds the model with the given orderings.
    pub fn new(mem: &mut Memory, orders: MembershipOrders) -> Self {
        CrashRecoverModel {
            orders,
            live: mem.alloc(ALL),
            epoch: mem.alloc(0),
            pc: [0; 2],
            changed: [false; 2],
        }
    }
}

impl Model for CrashRecoverModel {
    fn threads(&self) -> usize {
        2
    }

    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) -> Result<bool, String> {
        let pc = self.pc[tid];
        self.pc[tid] += 1;
        match pc {
            0 => {
                let prev = if tid == 0 {
                    ctx.fetch_and(self.live, !NODE_BIT, self.orders.rmw)
                } else {
                    ctx.fetch_or(self.live, NODE_BIT, self.orders.rmw)
                };
                let had = prev & NODE_BIT != 0;
                self.changed[tid] = had == (tid == 0);
                Ok(self.changed[tid])
            }
            _ => {
                ctx.fetch_add(self.epoch, 1, self.orders.rmw);
                Ok(false)
            }
        }
    }

    fn check(&self, mem: &Memory) -> Result<(), String> {
        let expected = self.changed.iter().filter(|&&c| c).count() as u64;
        let epoch = mem.latest(self.epoch);
        if epoch != expected {
            return Err(format!(
                "epoch {epoch} but {expected} transitions changed the belief"
            ));
        }
        if !(1..=2).contains(&expected) {
            return Err(format!("impossible transition count {expected}"));
        }
        Ok(())
    }
}

/// One peer's credit counter under repair.
///
/// Mirrors the arrival-order race in `crates/server/src/node.rs`: the
/// main loop applies its `ResetPeer` events (`CreditWindow::refill`)
/// and the credit returns its completion-queue drain decodes
/// (`CreditWindow::grant`) one at a time, so every interleaving of a
/// stale credit return (from traffic consumed before the peer crashed)
/// with the repair and further consumption is a possible arrival order.
/// The simulator has the same race between a crash's channel reset and
/// a consumed Flow message. The window invariant — at most `window`
/// in-flight, credits never exceed `window` — is exactly the bound that
/// keeps send slots from being overwritten before the peer consumed
/// them.
///
/// With `clamped = false` (the pre-audit code: `credits += n`) the
/// checker finds the overflow: reset restores a full window, then the
/// stale return pushes credits past it. With `clamped = true` (the
/// shipped `press_core::credit::CreditWindow::grant`) every arrival
/// order keeps the invariant.
pub struct CreditRepairModel {
    clamped: bool,
    credits: Loc,
    pc: [usize; 3],
}

/// Credit window used by the model (the live default is 16; 2 keeps the
/// state space tiny with the same algebra).
pub const WINDOW: u64 = 2;

impl CreditRepairModel {
    /// Builds the model; `clamped` selects the repaired accounting.
    pub fn new(mem: &mut Memory, clamped: bool) -> Self {
        CreditRepairModel {
            clamped,
            // The peer crashed with the whole window consumed.
            credits: mem.alloc(0),
            pc: [0; 3],
        }
    }
}

impl Model for CreditRepairModel {
    fn threads(&self) -> usize {
        3
    }

    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) -> Result<bool, String> {
        let pc = self.pc[tid];
        self.pc[tid] += 1;
        let clamped = self.clamped;
        let new = match tid {
            // Stale credit return from the pre-crash era.
            0 => {
                let old = ctx.rmw(self.credits, Order::AcqRel, |c| {
                    if clamped {
                        (c + 1).min(WINDOW)
                    } else {
                        c + 1
                    }
                });
                if clamped {
                    (old + 1).min(WINDOW)
                } else {
                    old + 1
                }
            }
            // ResetPeer repair: full window against reposted descriptors.
            1 => {
                ctx.rmw(self.credits, Order::AcqRel, |_| WINDOW);
                WINDOW
            }
            // Sender consuming a credit (skips when none available).
            _ => {
                let old = ctx.rmw(self.credits, Order::AcqRel, |c| c.saturating_sub(1));
                old.saturating_sub(1)
            }
        };
        if new > WINDOW {
            return Err(format!(
                "credit overflow: {new} credits against a window of {WINDOW} — \
                 send slots can now be overwritten before the peer consumes them"
            ));
        }
        Ok(tid == 2 && pc == 0)
    }

    fn check(&self, mem: &Memory) -> Result<(), String> {
        let c = mem.latest(self.credits);
        if c > WINDOW {
            return Err(format!("final credits {c} exceed the window {WINDOW}"));
        }
        Ok(())
    }
}

/// One entry of a node's event channel or inbox in [`EventOrderModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeEv {
    ResetPeer,
    Recover,
    Wake,
    Forward,
}

/// The node's loop state in [`EventOrderModel`]. The event channel is a
/// mutexed FIFO queue, so it is plain model state: every push and pop is
/// one step in the global order.
#[derive(Debug, Clone)]
struct NodeLoop {
    /// The shipped drain: `take_events` before a decoded message.
    take_events: bool,
    channel: VecDeque<NodeEv>,
    inbox: VecDeque<NodeEv>,
    /// `wake_hook`'s flag: set by the hook, cleared before each drain.
    wake_pending: bool,
    crashed: bool,
    /// A reply to the reset peer left this node.
    replied: bool,
    forwards_handled: u32,
}

impl NodeLoop {
    /// Handles one event, as `NodeState::handle` does.
    fn apply(&mut self, ev: NodeEv) -> Result<(), String> {
        match ev {
            NodeEv::ResetPeer if self.replied => Err(
                "reply to the reset peer left before its ResetPeer: the reset throws it away \
                 or it overruns the fresh window"
                    .into(),
            ),
            NodeEv::Recover => {
                self.crashed = false;
                Ok(())
            }
            NodeEv::Forward if self.crashed => Err(
                "forward handled before the Recover queued ahead of it: the crashed node drops it"
                    .into(),
            ),
            NodeEv::Forward => {
                self.forwards_handled += 1;
                self.replied = true;
                Ok(())
            }
            NodeEv::ResetPeer | NodeEv::Wake => Ok(()),
        }
    }

    /// A pass's head: one event, from the inbox before the channel (none
    /// when the tick ran out), then the wake flag is cleared.
    fn pass(&mut self) -> Result<(), String> {
        if let Some(ev) = self.inbox.pop_front().or_else(|| self.channel.pop_front()) {
            self.apply(ev)?;
        }
        self.wake_pending = false;
        Ok(())
    }

    /// The drain decoded a forward while `dead` read `dead`.
    fn decode(&mut self, dead: bool) -> Result<(), String> {
        if dead {
            return Ok(()); // dropped, like all traffic to a dead host
        }
        if self.take_events {
            while let Some(ev) = self.channel.pop_front() {
                match ev {
                    NodeEv::ResetPeer => self.apply(ev)?,
                    ev => self.inbox.push_back(ev),
                }
            }
        }
        self.inbox.push_back(NodeEv::Forward);
        Ok(())
    }
}

/// A live node's event order under crash recovery (DESIGN.md § 11,
/// "Event order rule").
///
/// Three actors, mirroring `ClusterCtl::recover`, a peer's post and
/// `NodeState::run` in `crates/server`:
///
/// * the **controller** queues `ResetPeer` (and `Recover`, when the
///   modelled node is the one recovering) on the node's channel, then
///   Release-stores `dead = false` and publishes the recovering node as
///   live;
/// * a **peer main thread**, once it sees its target up (Acquire), posts
///   a forward into the node's completion queue and runs the wake hook,
///   which queues one `Wake` unless one is pending;
/// * the **node's loop**: each pass handles one event, from the inbox
///   before the channel, then drains the completion queue. A message
///   decoded while `dead` reads false goes onto the inbox; the shipped
///   drain first runs `take_events`, which moves the channel's events
///   onto the inbox and applies a `ResetPeer` on the spot.
///
/// With `recovering` the node is the recovering one: it starts crashed
/// and its channel gets `ResetPeer` then `Recover`. Otherwise it is a
/// busy peer of the recovering node: its channel gets that node's
/// `ResetPeer`, and the forward comes from the recovering node's main
/// thread as soon as its `Recover` is queued.
///
/// Invariants: no forward is handled before a `Recover` queued ahead of
/// it; no reply goes to the reset peer before its `ResetPeer` (over its
/// fresh window); and a posted forward is handled exactly once. The node
/// runs [`EVENT_PASSES`] passes concurrently, then, once every actor has
/// finished, the rest of its work in order (it parked until then).
///
/// With `take_events = false` (the first version of the drain, which
/// queued a decoded message without moving the channel's events first)
/// the checker finds a forward handled by the crashed node, or a reply
/// sent ahead of its reset.
pub struct EventOrderModel {
    recovering: bool,
    /// The node's crash switch.
    dead: Loc,
    /// The forward's target is up: set live (recovering node), or its
    /// `Recover` is queued (the recovering peer's main thread may run).
    up: Loc,
    /// Completions queued on the node's completion queue.
    cq: Loc,
    node: NodeLoop,
    pc: [usize; 2],
    posted: bool,
    passes: usize,
    /// The node's next step is the drain half of a pass.
    draining: bool,
}

/// Node-loop passes interleaved with the other actors.
pub const EVENT_PASSES: usize = 3;

impl EventOrderModel {
    /// Builds the model; `take_events` selects the shipped drain, and
    /// `recovering` whether the modelled node is the recovering one.
    pub fn new(mem: &mut Memory, take_events: bool, recovering: bool) -> Self {
        EventOrderModel {
            recovering,
            dead: mem.alloc(recovering as u64),
            up: mem.alloc(0),
            cq: mem.alloc(0),
            node: NodeLoop {
                take_events,
                channel: VecDeque::new(),
                inbox: VecDeque::new(),
                wake_pending: false,
                crashed: recovering,
                replied: false,
                forwards_handled: 0,
            },
            pc: [0; 2],
            posted: false,
            passes: 0,
            draining: false,
        }
    }

    /// Controller step `pc`; false once it has finished.
    fn control(&mut self, pc: usize, ctx: &mut Ctx<'_>) -> bool {
        match (self.recovering, pc) {
            (_, 0) => self.node.channel.push_back(NodeEv::ResetPeer),
            (true, 1) => self.node.channel.push_back(NodeEv::Recover),
            (true, 2) => ctx.store(self.dead, 0, Order::Release),
            // `Membership::set_live` on the recovering node, or the
            // `Recover` queued on the recovering peer's own channel.
            _ => {
                ctx.rmw(self.up, Order::AcqRel, |_| 1);
                return false;
            }
        }
        true
    }
}

impl Model for EventOrderModel {
    fn threads(&self) -> usize {
        3
    }

    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) -> Result<bool, String> {
        if tid == 2 {
            if !self.draining {
                self.node.pass()?;
                self.draining = true;
                return Ok(true);
            }
            // `drain_cq`: every queued completion, each checked against
            // `dead` as the drain reads it.
            while ctx.rmw(self.cq, Order::AcqRel, |c| c.saturating_sub(1)) > 0 {
                let dead = ctx.load(self.dead, Order::Acquire) != 0;
                self.node.decode(dead)?;
            }
            self.draining = false;
            self.passes += 1;
            return Ok(self.passes < EVENT_PASSES);
        }
        let pc = self.pc[tid];
        self.pc[tid] += 1;
        if tid == 0 {
            return Ok(self.control(pc, ctx));
        }
        // The peer's main thread.
        match pc {
            // Nobody forwards to a node that is not up yet.
            0 => Ok(ctx.load(self.up, Order::Acquire) != 0),
            1 => {
                ctx.fetch_add(self.cq, 1, Order::Release);
                self.posted = true;
                Ok(true)
            }
            _ => {
                if !std::mem::replace(&mut self.node.wake_pending, true) {
                    self.node.channel.push_back(NodeEv::Wake);
                }
                Ok(false)
            }
        }
    }

    fn check(&self, mem: &Memory) -> Result<(), String> {
        // The parked loop wakes and finishes its work in order (its last
        // concurrent step was a drain, so it starts a fresh pass).
        let mut node = self.node.clone();
        let dead = mem.latest(self.dead) != 0;
        let mut queued = mem.latest(self.cq);
        while queued > 0 || !node.inbox.is_empty() || !node.channel.is_empty() {
            node.pass()?;
            for _ in 0..std::mem::take(&mut queued) {
                node.decode(dead)?;
            }
        }
        let expected = self.posted as u32;
        if node.forwards_handled != expected {
            return Err(format!(
                "forward lost: {expected} posted, {} handled",
                node.forwards_handled
            ));
        }
        Ok(())
    }
}

/// The batch pool's shared-index job claiming.
///
/// Mirrors `ExperimentRunner::run` in `crates/core/src/batch.rs`:
/// workers claim job indices off one shared counter and write their
/// result into the slot for that index; results are read after the scope
/// join. The claim uses `fetch_add(Relaxed)` — RMW atomicity alone must
/// guarantee every slot is claimed exactly once (ordering is irrelevant,
/// which is exactly why `Relaxed` is safe there).
///
/// With `atomic_claim = false` the claim is a separate load and store —
/// the bug the atomic RMW prevents — and the checker reports the
/// double-claimed slot.
pub struct BatchPoolModel {
    atomic_claim: bool,
    next: Loc,
    slots: Vec<Loc>,
    /// Split-claim intermediate: index loaded, store still pending.
    loaded: [Option<u64>; 2],
    /// Claimed job index awaiting its slot write.
    claim: [Option<u64>; 2],
}

/// Jobs in the modeled batch.
pub const JOBS: usize = 3;

impl BatchPoolModel {
    /// Builds the model; `atomic_claim` selects `fetch_add` vs. the
    /// broken split load/store.
    pub fn new(mem: &mut Memory, atomic_claim: bool) -> Self {
        BatchPoolModel {
            atomic_claim,
            next: mem.alloc(0),
            slots: (0..JOBS).map(|_| mem.alloc(0)).collect(),
            loaded: [None; 2],
            claim: [None; 2],
        }
    }
}

impl Model for BatchPoolModel {
    fn threads(&self) -> usize {
        2
    }

    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) -> Result<bool, String> {
        // Write phase: fill the claimed slot.
        if let Some(i) = self.claim[tid] {
            ctx.fetch_add(self.slots[i as usize], 1, Order::Relaxed);
            self.claim[tid] = None;
            return Ok(true);
        }
        // Second half of the broken split claim: publish the increment.
        if let Some(i) = self.loaded[tid] {
            ctx.store(self.next, i + 1, Order::Relaxed);
            self.loaded[tid] = None;
            if i as usize >= JOBS {
                return Ok(false);
            }
            self.claim[tid] = Some(i);
            return Ok(true);
        }
        // Claim phase.
        if self.atomic_claim {
            let i = ctx.fetch_add(self.next, 1, Order::Relaxed);
            if i as usize >= JOBS {
                return Ok(false);
            }
            self.claim[tid] = Some(i);
        } else {
            self.loaded[tid] = Some(ctx.load(self.next, Order::Relaxed));
        }
        Ok(true)
    }

    fn check(&self, mem: &Memory) -> Result<(), String> {
        for (i, &slot) in self.slots.iter().enumerate() {
            let writes = mem.latest(slot);
            if writes != 1 {
                return Err(format!(
                    "slot {i} written {writes} times — submission-order results \
                     require exactly one claim per job"
                ));
            }
        }
        Ok(())
    }
}

/// Ordering parameters for [`SendRingModel`], named after the four
/// synchronization points of `crates/via/src/spsc.rs`.
#[derive(Debug, Clone, Copy)]
pub struct RingOrders {
    /// Producer's `tail` store after filling the slot.
    pub publish: Order,
    /// Consumer's `tail` load before reading the slot.
    pub consume: Order,
    /// Consumer's `head` store after clearing the slot — the credit
    /// return that hands the buffer back to the producer.
    pub retire: Order,
    /// Producer's `head` load before reusing a slot.
    pub credit: Order,
}

impl RingOrders {
    /// The orderings shipped in `spsc.rs` (Release-publish /
    /// Acquire-consume on both counters).
    pub fn shipped() -> Self {
        RingOrders {
            publish: Order::Release,
            consume: Order::Acquire,
            retire: Order::Release,
            credit: Order::Acquire,
        }
    }

    /// Weakened publish side — the consumer can see the tail bump
    /// without the payload; must be caught.
    pub fn relaxed_publish() -> Self {
        RingOrders {
            publish: Order::Relaxed,
            ..Self::shipped()
        }
    }

    /// Weakened credit-return side — the producer can see the credit
    /// without the consumer's slot release; must be caught.
    pub fn relaxed_retire() -> Self {
        RingOrders {
            retire: Order::Relaxed,
            ..Self::shipped()
        }
    }
}

/// The V6 send ring: a one-slot SPSC ring with credit return.
///
/// The producer fills the slot and Release-publishes `tail`; the
/// consumer Acquire-loads `tail`, reads the payload, clears the slot
/// (returning buffer ownership, as the slab pool's
/// `mark_complete`/`free` does) and Release-stores `head` — the credit
/// the producer Acquire-loads before reusing the slot. Rather than
/// spin, a thread that cannot (visibly) proceed stops, so every
/// blocked-vs-progressing schedule is still a finite execution.
///
/// Invariants: the consumer never reads a payload other than the one
/// `tail` published (publish/consume pairing), and the producer never
/// reuses a slot that still holds an unconsumed payload
/// (retire/credit pairing).
pub struct SendRingModel {
    orders: RingOrders,
    slot: Loc,
    tail: Loc,
    head: Loc,
    pushed: u64,
    popped: u64,
}

/// Messages the producer attempts; 2 forces one slot reuse through the
/// credit-return edge.
pub const RING_MSGS: u64 = 2;

impl SendRingModel {
    /// Builds the model with the given orderings.
    pub fn new(mem: &mut Memory, orders: RingOrders) -> Self {
        SendRingModel {
            orders,
            slot: mem.alloc(0),
            tail: mem.alloc(0),
            head: mem.alloc(0),
            pushed: 0,
            popped: 0,
        }
    }
}

impl Model for SendRingModel {
    fn threads(&self) -> usize {
        2
    }

    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) -> Result<bool, String> {
        if tid == 0 {
            // Producer.
            let n = self.pushed;
            if n >= RING_MSGS {
                return Ok(false);
            }
            if n > 0 {
                // Reuse needs the credit back for the previous message.
                let h = ctx.load(self.head, self.orders.credit);
                if h < n {
                    return Ok(false); // credit not visible yet; give up
                }
                let v = ctx.load(self.slot, Order::Relaxed);
                if v != 0 {
                    return Err(format!(
                        "credit for message {n} returned but the slot still holds {v} — \
                         the producer would overwrite an unconsumed buffer"
                    ));
                }
            }
            ctx.store(self.slot, n + 1, Order::Relaxed);
            ctx.store(self.tail, n + 1, self.orders.publish);
            self.pushed = n + 1;
            Ok(self.pushed < RING_MSGS)
        } else {
            // Consumer.
            let m = self.popped;
            if m >= RING_MSGS {
                return Ok(false);
            }
            let t = ctx.load(self.tail, self.orders.consume);
            if t <= m {
                return Ok(false); // nothing visibly published; give up
            }
            let v = ctx.load(self.slot, Order::Relaxed);
            if v != m + 1 {
                return Err(format!(
                    "tail {t} publishes message {} but the slot holds {v} — \
                     stale payload read",
                    m + 1
                ));
            }
            ctx.store(self.slot, 0, Order::Relaxed);
            ctx.store(self.head, m + 1, self.orders.retire);
            self.popped = m + 1;
            Ok(self.popped < RING_MSGS)
        }
    }

    fn check(&self, mem: &Memory) -> Result<(), String> {
        let tail = mem.latest(self.tail);
        let head = mem.latest(self.head);
        if tail != self.pushed {
            return Err(format!("tail {tail} but {} messages pushed", self.pushed));
        }
        if head != self.popped {
            return Err(format!("head {head} but {} messages popped", self.popped));
        }
        if head > tail {
            return Err(format!(
                "more credits returned ({head}) than messages published ({tail})"
            ));
        }
        if self.popped == self.pushed && mem.latest(self.slot) != 0 {
            return Err("ring drained but the slot was not handed back clean".into());
        }
        Ok(())
    }
}

/// Runs the shipped-orderings membership model; passes exhaustively.
pub fn check_membership_shipped() -> Outcome {
    explore(
        |mem| MembershipModel::new(mem, MembershipOrders::shipped()),
        MAX_EXECUTIONS,
    )
}

/// Runs the relaxed membership model; the stale-epoch read must be found.
pub fn check_membership_relaxed() -> Outcome {
    explore(
        |mem| MembershipModel::new(mem, MembershipOrders::relaxed()),
        MAX_EXECUTIONS,
    )
}

/// Runs the crash/recover epoch-count model with shipped orderings.
pub fn check_crash_recover() -> Outcome {
    explore(
        |mem| CrashRecoverModel::new(mem, MembershipOrders::shipped()),
        MAX_EXECUTIONS,
    )
}

/// Runs the repaired (clamped) credit model; passes exhaustively.
pub fn check_credit_repair_clamped() -> Outcome {
    explore(|mem| CreditRepairModel::new(mem, true), MAX_EXECUTIONS)
}

/// Runs the unclamped credit model; the overflow must be found.
pub fn check_credit_repair_unclamped() -> Outcome {
    explore(|mem| CreditRepairModel::new(mem, false), MAX_EXECUTIONS)
}

/// Runs the event-order model with the shipped drain for a recovering
/// node (`recovering`) or a busy peer of one; passes exhaustively.
pub fn check_event_order_shipped(recovering: bool) -> Outcome {
    explore(
        |mem| EventOrderModel::new(mem, true, recovering),
        MAX_EXECUTIONS,
    )
}

/// Runs the event-order model with the first version of the drain (no
/// `take_events`); the misordered forward or reply must be found.
pub fn check_event_order_first_version(recovering: bool) -> Outcome {
    explore(
        |mem| EventOrderModel::new(mem, false, recovering),
        MAX_EXECUTIONS,
    )
}

/// Runs the batch-pool model with the real atomic claim; passes.
pub fn check_batch_pool_atomic() -> Outcome {
    explore(|mem| BatchPoolModel::new(mem, true), MAX_EXECUTIONS)
}

/// Runs the batch-pool model with a split claim; the double claim must
/// be found.
pub fn check_batch_pool_split() -> Outcome {
    explore(|mem| BatchPoolModel::new(mem, false), MAX_EXECUTIONS)
}

/// Runs the send-ring model with the shipped orderings; passes
/// exhaustively.
pub fn check_send_ring_shipped() -> Outcome {
    explore(
        |mem| SendRingModel::new(mem, RingOrders::shipped()),
        MAX_EXECUTIONS,
    )
}

/// Runs the send-ring model with a relaxed publish; the stale payload
/// read must be found.
pub fn check_send_ring_relaxed_publish() -> Outcome {
    explore(
        |mem| SendRingModel::new(mem, RingOrders::relaxed_publish()),
        MAX_EXECUTIONS,
    )
}

/// Runs the send-ring model with a relaxed credit return; the premature
/// slot reuse must be found.
pub fn check_send_ring_relaxed_retire() -> Outcome {
    explore(
        |mem| SendRingModel::new(mem, RingOrders::relaxed_retire()),
        MAX_EXECUTIONS,
    )
}

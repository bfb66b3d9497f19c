//! Registered memory regions and the V6 slab pool.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::ViaError;

/// Handle to a memory region registered with a [`crate::Nic`].
///
/// VIA requires every buffer involved in a transfer to be registered:
/// registration pins the pages so the NIC can DMA directly into user
/// memory. In this software implementation a handle names a byte buffer
/// owned by the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemHandle(pub(crate) u64);

impl std::fmt::Display for MemHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mr#{}", self.0)
    }
}

/// A registered region: shared bytes, the remote-write permission, and
/// the optional hook run after each remote write into it.
#[derive(Clone)]
pub(crate) struct Region {
    pub bytes: Arc<RwLock<Vec<u8>>>,
    /// Whether remote NICs may RDMA-write into this region.
    pub allow_remote_write: bool,
    /// Run after each remote write lands (see
    /// [`crate::Nic::on_remote_write`]).
    pub on_remote_write: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Region {
    pub fn new(data: Vec<u8>, allow_remote_write: bool) -> Self {
        Region {
            bytes: Arc::new(RwLock::new(data)),
            allow_remote_write,
            on_remote_write: None,
        }
    }

    pub fn len(&self) -> usize {
        self.bytes.read().len()
    }
}

/// A fixed-size slot handed out by a [`SlabPool`].
///
/// The slot names the `[offset, offset + len)` window of the pool's
/// single pre-registered region, so building a [`crate::Descriptor`]
/// from it never registers or allocates anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabSlot {
    pub(crate) index: u32,
    /// Byte offset of this slot inside the pool's region.
    pub offset: usize,
    /// Capacity of the slot in bytes.
    pub len: usize,
}

/// Per-slot lifecycle states (stored in an `AtomicU8`).
const SLOT_FREE: u8 = 0;
const SLOT_ALLOCATED: u8 = 1;
const SLOT_IN_FLIGHT: u8 = 2;

/// Treiber-stack head sentinel: empty free list.
const FREE_LIST_EMPTY: u32 = u32::MAX;

/// A slab of fixed-size send buffers carved from one registered region.
///
/// V0–V5 allocate a staging buffer per message; the V6 fast path
/// instead grabs a slot from this pool, writes the payload in place,
/// and posts a descriptor over the pool's region — zero allocation and
/// zero registration per message. The free list is a lock-free Treiber
/// stack (`head` packs `index | tag << 32`, the tag bumped on every
/// successful pop so an ABA pop/push/pop of the same slot is detected),
/// and each slot carries an atomic state machine:
///
/// ```text
/// FREE --alloc()--> ALLOCATED --mark_in_flight()--> IN_FLIGHT
///   ^                  |  ^                             |
///   +------free()------+  +--------mark_complete()------+
/// ```
///
/// Misuse returns typed [`ViaError`]s instead of panicking or handing
/// out aliased buffers: `alloc` on an empty pool is `PoolExhausted`,
/// `free` of a FREE slot is `DoubleFree`, and `free` of an IN_FLIGHT
/// slot (descriptor still owned by the NIC) is `SlotInFlight`.
#[derive(Debug)]
pub struct SlabPool {
    handle: MemHandle,
    slot_len: usize,
    states: Box<[AtomicU8]>,
    /// Per-slot "next" links of the free stack.
    next: Box<[AtomicU32]>,
    /// Packed head: low 32 bits slot index (or the empty sentinel),
    /// high 32 bits the ABA tag.
    head: AtomicU64,
}

impl SlabPool {
    /// Builds a pool of `slots` buffers of `slot_len` bytes each over an
    /// already-registered region `handle` (which must span at least
    /// `slots * slot_len` bytes; [`crate::Nic::register_slab`] checks).
    pub(crate) fn over_region(handle: MemHandle, slots: usize, slot_len: usize) -> Self {
        assert!(slots > 0 && slots < FREE_LIST_EMPTY as usize);
        let states = (0..slots)
            .map(|_| AtomicU8::new(SLOT_FREE))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        // Free stack initially holds every slot: 0 -> 1 -> ... -> end.
        let next = (0..slots)
            .map(|i| {
                let link = if i + 1 < slots {
                    (i + 1) as u32
                } else {
                    FREE_LIST_EMPTY
                };
                AtomicU32::new(link)
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SlabPool {
            handle,
            slot_len,
            states,
            next,
            head: AtomicU64::new(0),
        }
    }

    /// The registered region the slots live in.
    pub fn handle(&self) -> MemHandle {
        self.handle
    }

    /// Capacity of each slot in bytes.
    pub fn slot_len(&self) -> usize {
        self.slot_len
    }

    /// Total number of slots.
    pub fn slots(&self) -> usize {
        self.states.len()
    }

    /// Number of slots currently free.
    pub fn free_slots(&self) -> usize {
        self.states
            .iter()
            // ordering: Relaxed — diagnostic count, guards no payload.
            .filter(|s| s.load(Ordering::Relaxed) == SLOT_FREE)
            .count()
    }

    fn pack(index: u32, tag: u32) -> u64 {
        (tag as u64) << 32 | index as u64
    }

    /// A descriptor covering the first `len` bytes of `slot`.
    ///
    /// # Errors
    ///
    /// [`ViaError::OutOfBounds`] if `len` exceeds the slot capacity.
    pub fn descriptor(&self, slot: SlabSlot, len: usize) -> Result<crate::Descriptor, ViaError> {
        if len > slot.len {
            return Err(ViaError::OutOfBounds);
        }
        Ok(crate::Descriptor::new(self.handle, slot.offset, len))
    }

    /// The slot whose buffer starts at byte `offset` of the pool's
    /// region — how a completion (whose descriptor carries only the
    /// region and offset) is mapped back to the slot to release.
    ///
    /// # Errors
    ///
    /// [`ViaError::OutOfBounds`] if `offset` is not the start of a slot.
    pub fn slot_at(&self, offset: usize) -> Result<SlabSlot, ViaError> {
        let index = offset / self.slot_len;
        if index >= self.states.len() || !offset.is_multiple_of(self.slot_len) {
            return Err(ViaError::OutOfBounds);
        }
        Ok(SlabSlot {
            index: index as u32,
            offset,
            len: self.slot_len,
        })
    }

    /// Pops a free slot, or returns [`ViaError::PoolExhausted`].
    pub fn alloc(&self) -> Result<SlabSlot, ViaError> {
        // ordering: Acquire pairs with the Release CAS in free() so the
        // popped slot's link write is visible.
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let index = (head & u32::MAX as u64) as u32;
            if index == FREE_LIST_EMPTY {
                return Err(ViaError::PoolExhausted);
            }
            let tag = (head >> 32) as u32;
            // ordering: Acquire — reads the link published before this
            // slot became top of the stack.
            let next = self.next[index as usize].load(Ordering::Acquire);
            let new_head = Self::pack(next, tag.wrapping_add(1));
            match self.head.compare_exchange_weak(
                head,
                new_head,
                Ordering::AcqRel, // ordering: pop claims the slot, publishes new head
                Ordering::Acquire, // ordering: failure re-reads a coherent head
            ) {
                Ok(_) => {
                    // ordering: Relaxed — the CAS above ordered the
                    // handoff; state is a misuse detector.
                    self.states[index as usize].store(SLOT_ALLOCATED, Ordering::Relaxed);
                    return Ok(SlabSlot {
                        index,
                        offset: index as usize * self.slot_len,
                        len: self.slot_len,
                    });
                }
                Err(current) => head = current,
            }
        }
    }

    /// Marks an allocated slot's descriptor as posted to the NIC.
    ///
    /// While IN_FLIGHT the slot cannot be freed; reap the completion and
    /// call [`SlabPool::mark_complete`] first.
    pub fn mark_in_flight(&self, slot: SlabSlot) -> Result<(), ViaError> {
        if slot.index as usize >= self.states.len() {
            return Err(ViaError::UnknownRegion);
        }
        match self.states[slot.index as usize].compare_exchange(
            SLOT_ALLOCATED,
            SLOT_IN_FLIGHT,
            Ordering::AcqRel,  // ordering: claim ALLOCATED -> IN_FLIGHT exactly once
            Ordering::Acquire, // ordering: failure load observes the true state
        ) {
            Ok(_) => Ok(()),
            Err(SLOT_FREE) => Err(ViaError::DoubleFree),
            Err(_) => Err(ViaError::SlotInFlight),
        }
    }

    /// Marks an in-flight slot's completion as reaped; the slot drops
    /// back to ALLOCATED and may now be freed (or reused in place).
    pub fn mark_complete(&self, slot: SlabSlot) -> Result<(), ViaError> {
        if slot.index as usize >= self.states.len() {
            return Err(ViaError::UnknownRegion);
        }
        match self.states[slot.index as usize].compare_exchange(
            SLOT_IN_FLIGHT,
            SLOT_ALLOCATED,
            Ordering::AcqRel, // ordering: pairs with mark_in_flight; NIC reads are done
            Ordering::Acquire, // ordering: failure load observes the true state
        ) {
            Ok(_) => Ok(()),
            Err(SLOT_FREE) => Err(ViaError::DoubleFree),
            Err(_) => Err(ViaError::SlotInFlight),
        }
    }

    /// Returns a slot to the free list.
    ///
    /// Rejects slots that are already free ([`ViaError::DoubleFree`]) or
    /// still posted ([`ViaError::SlotInFlight`]) — a freed-while-in-
    /// flight slot could be re-allocated and overwritten while the NIC
    /// still reads it, which is exactly the aliasing bug the state
    /// machine exists to prevent.
    pub fn free(&self, slot: SlabSlot) -> Result<(), ViaError> {
        let idx = slot.index as usize;
        if idx >= self.states.len() {
            return Err(ViaError::UnknownRegion);
        }
        match self.states[idx].compare_exchange(
            SLOT_ALLOCATED,
            SLOT_FREE,
            Ordering::AcqRel,  // ordering: claim ALLOCATED -> FREE exactly once
            Ordering::Acquire, // ordering: failure load observes the true state
        ) {
            Ok(_) => {}
            Err(SLOT_IN_FLIGHT) => return Err(ViaError::SlotInFlight),
            Err(_) => return Err(ViaError::DoubleFree),
        }
        // Push onto the Treiber stack.
        // ordering: Acquire — start from a coherent head, as in alloc().
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let top = (head & u32::MAX as u64) as u32;
            let tag = (head >> 32) as u32;
            // ordering: Release — the link must be visible to the next
            // alloc() before the head CAS makes this slot the top.
            self.next[idx].store(top, Ordering::Release);
            let new_head = Self::pack(slot.index, tag.wrapping_add(1));
            match self.head.compare_exchange_weak(
                head,
                new_head,
                Ordering::AcqRel,  // ordering: push publishes the slot and its link
                Ordering::Acquire, // ordering: failure re-reads a coherent head
            ) {
                Ok(_) => return Ok(()),
                Err(current) => head = current,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_shares_bytes() {
        let r = Region::new(vec![1, 2, 3], true);
        let clone = r.clone();
        clone.bytes.write()[0] = 9;
        assert_eq!(r.bytes.read()[0], 9);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn handle_display() {
        assert_eq!(MemHandle(7).to_string(), "mr#7");
    }

    #[test]
    fn slab_alloc_free_cycle() {
        let pool = SlabPool::over_region(MemHandle(1), 3, 64);
        assert_eq!(pool.free_slots(), 3);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        let c = pool.alloc().unwrap();
        assert_eq!(pool.alloc(), Err(ViaError::PoolExhausted));
        // Slots tile the region without overlap.
        let mut offsets = [a.offset, b.offset, c.offset];
        offsets.sort_unstable();
        assert_eq!(offsets, [0, 64, 128]);
        pool.free(b).unwrap();
        assert_eq!(pool.free(b), Err(ViaError::DoubleFree));
        let b2 = pool.alloc().unwrap();
        assert_eq!(b2.offset, b.offset);
        pool.free(a).unwrap();
        pool.free(b2).unwrap();
        pool.free(c).unwrap();
        assert_eq!(pool.free_slots(), 3);
    }

    #[test]
    fn slab_in_flight_guards_free() {
        let pool = SlabPool::over_region(MemHandle(1), 2, 16);
        let s = pool.alloc().unwrap();
        pool.mark_in_flight(s).unwrap();
        assert_eq!(pool.free(s), Err(ViaError::SlotInFlight));
        assert_eq!(pool.mark_in_flight(s), Err(ViaError::SlotInFlight));
        pool.mark_complete(s).unwrap();
        pool.free(s).unwrap();
        assert_eq!(pool.mark_complete(s), Err(ViaError::DoubleFree));
    }

    #[test]
    fn slot_at_maps_offsets_back_to_slots() {
        let pool = SlabPool::over_region(MemHandle(3), 4, 64);
        let s = pool.slot_at(128).unwrap();
        assert_eq!((s.index, s.offset, s.len), (2, 128, 64));
        assert_eq!(pool.slot_at(129), Err(ViaError::OutOfBounds));
        assert_eq!(pool.slot_at(256), Err(ViaError::OutOfBounds));
    }

    #[test]
    fn slab_descriptor_respects_slot_capacity() {
        let pool = SlabPool::over_region(MemHandle(9), 2, 32);
        let s = pool.alloc().unwrap();
        let d = pool.descriptor(s, 20).unwrap();
        assert_eq!(d.region, MemHandle(9));
        assert_eq!(d.offset, s.offset);
        assert_eq!(d.len, 20);
        assert_eq!(pool.descriptor(s, 33), Err(ViaError::OutOfBounds));
    }
}

//! Lock-free single-producer / single-consumer rings.
//!
//! The V6 fast path (DESIGN.md §"V6 fast path") replaces the mutexed
//! `VecDeque` receive queues and channel-backed completion queues of
//! V0–V5 with fixed-capacity SPSC rings. Each ring has exactly one
//! producer thread and one consumer thread:
//!
//! * posted-receive ring: the host posts (producer), the peer VI's send
//!   posts consume one per message (consumer);
//! * completion rings: the send posts that complete into them publish
//!   (producer), the host reaps (consumer).
//!
//! "One thread" means one at a time: each end is held through an
//! [`OwnerTag`] (see `fabric.rs`).
//!
//! # Memory-ordering argument
//!
//! `head` counts pops, `tail` counts pushes; both increase forever and
//! are reduced modulo the (power-of-two) capacity to index `slots`.
//!
//! * The producer writes the slot, then publishes it with a **Release**
//!   store of `tail`. The consumer's **Acquire** load of `tail`
//!   synchronizes with that store, so a consumer that observes
//!   `tail >= i + 1` also observes slot `i` fully initialised.
//! * The consumer reads the slot, then retires it with a **Release**
//!   store of `head`. The producer's **Acquire** load of `head`
//!   synchronizes with that store, so a producer that observes
//!   `head > i - capacity` may reuse slot `i mod capacity` without
//!   racing the consumer's read.
//!
//! Each index has a single writer, so no CAS is needed; both sides are
//! wait-free. The `SendRingModel` in press-analyze explores this
//! protocol exhaustively under minloom, and its weakened variants show
//! both Release stores are load-bearing.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::error::ViaError;

/// A fixed-capacity wait-free SPSC ring.
///
/// `push` and `pop` are `unsafe`: each must be called by one thread at
/// a time. [`crate::Vi`] enforces that with an [`OwnerTag`] per ring
/// end: the host's post-receive and reap tags, and the send tag every
/// send and RDMA post holds.
pub(crate) struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Pop count. Written only by the consumer.
    head: AtomicUsize,
    /// Push count. Written only by the producer.
    tail: AtomicUsize,
    mask: usize,
}

// SAFETY: each slot belongs to exactly one side at a time (producer
// until the Release store of tail publishes it, consumer until the
// Release store of head retires it), so sharing needs only T: Send.
unsafe impl<T: Send> Sync for SpscRing<T> {}
// SAFETY: moving the ring moves the T values it owns; T: Send suffices.
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding up to `capacity` items (rounded up to a
    /// power of two so indexing is a mask, not a division).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            mask: cap - 1,
        }
    }

    /// Number of items currently queued. Callable from any thread.
    pub(crate) fn len(&self) -> usize {
        // ordering: Acquire on both indices so a reader acting on the
        // count sees the slot writes behind it.
        let tail = self.tail.load(Ordering::Acquire);
        // ordering: see above.
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Free slots. Exact for the producer, which alone fills them; the
    /// consumer can only free more meanwhile.
    pub(crate) fn vacant(&self) -> usize {
        self.mask + 1 - self.len()
    }

    /// Producer side: push a value, failing with [`ViaError::RingFull`]
    /// when the consumer has fallen `capacity` items behind. On failure
    /// the value is returned in the error so the caller can retry.
    ///
    /// # Safety
    ///
    /// Must be called by at most one thread at a time (the producer).
    // SAFETY: contract above; Vi guards every call with the ring end's
    // OwnerTag.
    pub(crate) unsafe fn push(&self, value: T) -> Result<(), (ViaError, T)> {
        // ordering: Relaxed — tail is only written by this thread.
        let tail = self.tail.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the consumer's Release store in
        // pop(); observing head > tail - capacity proves the consumer
        // has finished reading the slot we are about to overwrite.
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            return Err((ViaError::RingFull, value));
        }
        let slot = &self.slots[tail & self.mask];
        // SAFETY: caller is the sole producer and the head check above
        // proved the consumer retired this slot, so access is exclusive.
        unsafe { (*slot.get()).write(value) };
        // ordering: Release publishes the slot write to the consumer's
        // Acquire load of tail.
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: pop the oldest value, if any.
    ///
    /// # Safety
    ///
    /// Must be called by at most one thread at a time (the consumer).
    // SAFETY: contract above; see `push`.
    pub(crate) unsafe fn pop(&self) -> Option<T> {
        // ordering: Relaxed — head is only written by this thread.
        let head = self.head.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the producer's Release store in
        // push(); observing tail > head proves the slot is initialised.
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head & self.mask];
        // SAFETY: caller is the sole consumer and tail > head proved
        // the producer published this slot; reading moves the value out
        // and the Release store of head hands the slot back.
        let value = unsafe { (*slot.get()).assume_init_read() };
        // ordering: Release retires the slot so the producer's Acquire
        // load of head knows the read finished before the slot is
        // reused.
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Consumer side: pop, polling until `timeout` elapses.
    ///
    /// Completions arrive within microseconds on the in-process fabric,
    /// so the first iterations spin without sleeping; after that the
    /// loop yields so a single-core host still makes progress.
    ///
    /// # Safety
    ///
    /// Must be called by at most one thread at a time (the consumer).
    // SAFETY: contract above; see `push`.
    pub(crate) unsafe fn pop_wait(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            // SAFETY: forwarded directly from this fn's own contract.
            if let Some(v) = unsafe { self.pop() } {
                return Some(v);
            }
            if Instant::now() >= deadline {
                return None;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // press::allow(blocking-in-hot-path): pop_wait is the
                // wait primitive itself — callers opt into parking by
                // choosing it over the non-blocking `pop`.
                std::thread::yield_now();
            }
        }
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // &mut self: both sides are gone, plain loads are fine.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            let slot = self.slots[i & self.mask].get_mut();
            // SAFETY: slots in [head, tail) were published and never
            // popped; we own the ring exclusively here.
            unsafe { slot.assume_init_drop() };
        }
    }
}

/// Runtime enforcement of a ring endpoint's single-owner contract.
///
/// The intended topology has one thread post to and reap from each VI
/// (PRESS's live node: its main thread), so the claim is uncontended and
/// costs one atomic op. If an application shares a cloned [`crate::Vi`]
/// across threads anyway, the second caller spins until the first
/// finishes instead of corrupting the ring. A send post holds its tag
/// for a bounded copy, never across a wait.
pub(crate) struct OwnerTag(AtomicBool);

impl OwnerTag {
    pub(crate) const fn new() -> Self {
        OwnerTag(AtomicBool::new(false))
    }

    /// Claims exclusive endpoint ownership until the guard drops.
    pub(crate) fn claim(&self) -> OwnerGuard<'_> {
        // ordering: Acquire pairs with the Release store in
        // OwnerGuard::drop so ring accesses by the previous owner
        // happen-before ours (test-and-set; true means already owned).
        while self.0.swap(true, Ordering::Acquire) {
            std::hint::spin_loop();
        }
        OwnerGuard(&self.0)
    }
}

pub(crate) struct OwnerGuard<'a>(&'a AtomicBool);

impl Drop for OwnerGuard<'_> {
    fn drop(&mut self) {
        // ordering: Release hands the endpoint to the next claimant.
        self.0.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let ring = SpscRing::with_capacity(4);
        for i in 0..4 {
            unsafe { ring.push(i).unwrap() };
        }
        let err = unsafe { ring.push(99) };
        assert_eq!(err, Err((ViaError::RingFull, 99)));
        for i in 0..4 {
            assert_eq!(unsafe { ring.pop() }, Some(i));
        }
        assert_eq!(unsafe { ring.pop() }, None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let ring = SpscRing::with_capacity(5);
        for i in 0..8 {
            unsafe { ring.push(i).unwrap() };
        }
        assert_eq!(
            unsafe { ring.push(8) }.map_err(|(e, _)| e),
            Err(ViaError::RingFull)
        );
        assert_eq!(ring.len(), 8);
    }

    #[test]
    fn wraps_many_times() {
        let ring = SpscRing::with_capacity(2);
        for round in 0..1000 {
            unsafe {
                ring.push(round).unwrap();
                ring.push(round + 1).unwrap();
                assert_eq!(ring.pop(), Some(round));
                assert_eq!(ring.pop(), Some(round + 1));
            }
        }
        assert_eq!(unsafe { ring.pop() }, None);
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let ring = Arc::new(SpscRing::with_capacity(8));
        let tx = Arc::clone(&ring);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                let mut v = i;
                loop {
                    match unsafe { tx.push(v) } {
                        Ok(()) => break,
                        Err((_, back)) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < 10_000 {
            if let Some(v) = unsafe { ring.pop_wait(Duration::from_secs(5)) } {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(unsafe { ring.pop() }, None);
    }

    #[test]
    fn pop_wait_times_out_when_empty() {
        let ring = SpscRing::<u32>::with_capacity(2);
        let start = Instant::now();
        assert_eq!(unsafe { ring.pop_wait(Duration::from_millis(10)) }, None);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn drop_releases_unpopped_items() {
        let payload = Arc::new(());
        let ring = SpscRing::with_capacity(4);
        unsafe {
            ring.push(Arc::clone(&payload)).unwrap();
            ring.push(Arc::clone(&payload)).unwrap();
        }
        drop(ring);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn owner_tag_serializes_claims() {
        let tag = Arc::new(OwnerTag::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let tag = Arc::clone(&tag);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _own = tag.claim();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Non-atomic increment pattern stays exact only if claims
        // never overlap.
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}

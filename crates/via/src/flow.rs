//! Doorbell batching for the V6 fast path.
//!
//! PRESS's credit-based flow control (the paper's fifth message type)
//! is not here: both engines share `press_core::credit`, and the live
//! node runs it over these VIs. This module holds only [`Doorbell`],
//! which coalesces sends into one post.

use std::time::{Duration, Instant};

use press_macros as press;

use crate::descriptor::{Descriptor, SgList};
use crate::error::ViaError;
use crate::fabric::Vi;

/// Maximum number of staged sends one doorbell ring may carry.
///
/// Fixed so the staging array lives inline in the [`Doorbell`] (no heap)
/// and a flush is a single post.
pub const MAX_DOORBELL: usize = 8;

/// Doorbell batching for the V6 fast path: stage up to [`MAX_DOORBELL`]
/// outgoing messages and post them with *one* doorbell ring (one post)
/// instead of one per message.
///
/// On real VIA hardware each posted descriptor costs a doorbell — an
/// uncached PCI write on cLAN. Coalescing N sends into one doorbell
/// amortizes that cost under load. In this fabric a ring runs the whole
/// batch in the caller's thread, so a batch amortizes the per-post work:
/// one send-tag claim, one room check, one peer lookup and one `ViaPost`
/// trace event for up to [`MAX_DOORBELL`] messages. The batch is flushed
/// when it reaches `batch` messages, when [`Doorbell::flush`] is called
/// explicitly (callers do this on credit edges and before unbatched
/// traffic, to preserve ordering), and when the owner's work queue
/// drains: an owner that flushes before it blocks coalesces only
/// messages that were already queued, so a lone message never waits for
/// a later one.
/// [`Doorbell::flush_stale`], which flushes once the oldest staged
/// message has waited `max_delay`, is the fallback for callers that have
/// no drain point.
///
/// Messages within a batch are transferred in staging order, so batching
/// never reorders completions relative to unbatched posting.
#[derive(Debug)]
pub struct Doorbell {
    vi: Vi,
    staged: [SgList; MAX_DOORBELL],
    count: u8,
    staged_bytes: u64,
    batch: u8,
    max_delay: Duration,
    oldest: Option<Instant>,
}

impl Doorbell {
    /// Creates a doorbell batcher over `vi` that flushes automatically
    /// at `batch` staged messages. `max_delay` is the staleness bound
    /// [`Doorbell::flush_stale`] checks; an owner that flushes when its
    /// work queue drains never needs it.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds [`MAX_DOORBELL`].
    pub fn new(vi: Vi, batch: usize, max_delay: Duration) -> Self {
        assert!(
            batch > 0 && batch <= MAX_DOORBELL,
            "batch must be in 1..={MAX_DOORBELL}"
        );
        Doorbell {
            vi,
            staged: [SgList::new(); MAX_DOORBELL],
            count: 0,
            staged_bytes: 0,
            batch: batch as u8,
            max_delay,
            oldest: None,
        }
    }

    /// Stages one gather list; validation happens now so errors are
    /// synchronous like [`Vi::post_send_sg`]. Returns `true` if this
    /// post triggered a flush (the batch threshold was reached).
    ///
    /// # Errors
    ///
    /// Validation errors for the staged list, or any flush error. If the
    /// threshold flush fails, this message stays staged with the rest of
    /// the batch; if the stage is still full from an earlier failed
    /// flush, the retried flush's error is returned and `sg` is not
    /// staged.
    #[press::hot_path]
    pub fn post_sg(&mut self, sg: SgList) -> Result<bool, ViaError> {
        self.vi.validate_sg(&sg)?;
        if self.count >= self.batch {
            self.flush()?;
        }
        self.staged[self.count as usize] = sg;
        self.count += 1;
        self.staged_bytes += sg.total_len() as u64;
        if self.oldest.is_none() {
            self.oldest = Some(Instant::now());
        }
        if self.count >= self.batch {
            self.flush()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Stages a single-segment send; see [`Doorbell::post_sg`].
    ///
    /// # Errors
    ///
    /// Validation errors for the descriptor, or any flush error.
    #[press::hot_path]
    pub fn post(&mut self, desc: Descriptor) -> Result<bool, ViaError> {
        self.post_sg(SgList::from(desc))
    }

    /// Rings the doorbell: every staged message is posted as one batch
    /// and transferred, in staging order, before this returns. Returns
    /// how many messages were flushed (0 if nothing was staged).
    ///
    /// # Errors
    ///
    /// [`ViaError::Shutdown`] if the NIC is gone, or
    /// [`ViaError::RingFull`] if the batch's completions do not all fit
    /// in the per-VI rings. Nothing is transferred then and the batch
    /// stays staged: reap completions and flush again.
    #[press::hot_path]
    pub fn flush(&mut self) -> Result<usize, ViaError> {
        if self.count == 0 {
            return Ok(0);
        }
        let n = self.count as usize;
        self.vi
            .post_send_batch(&self.staged[..n], self.staged_bytes)?;
        self.count = 0;
        self.staged_bytes = 0;
        self.oldest = None;
        Ok(n)
    }

    /// Flushes only if the oldest staged message has waited at least
    /// `max_delay`: the fallback for callers with no drain point, which
    /// poll this from their event loop so lightly loaded connections do
    /// not sit on a partial batch.
    ///
    /// # Errors
    ///
    /// Same as [`Doorbell::flush`].
    #[press::hot_path]
    pub fn flush_stale(&mut self) -> Result<usize, ViaError> {
        match self.oldest {
            Some(t) if t.elapsed() >= self.max_delay => self.flush(),
            _ => Ok(0),
        }
    }

    /// Number of messages currently staged.
    pub fn pending(&self) -> usize {
        self.count as usize
    }

    /// The underlying VI (for reaping completions).
    pub fn vi(&self) -> &Vi {
        &self.vi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, Nic, Reliability};
    use crate::mem::MemHandle;

    const T: Duration = Duration::from_secs(2);

    fn doorbell_setup(batch: usize, max_delay: Duration) -> (Nic, Nic, Doorbell, Vi, MemHandle) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (va, vb) = fabric
            .connect(&a, &b, Reliability::ReliableDelivery)
            .expect("connect");
        let ma = a.register((0..=255).collect(), false).expect("register");
        let mb = b.register(vec![0; 4096], false).expect("register");
        for i in 0..MAX_DOORBELL {
            vb.post_recv(Descriptor::new(mb, i * 64, 64)).expect("post");
        }
        let bell = Doorbell::new(va, batch, max_delay);
        let _ = ma;
        (a, b, bell, vb, ma)
    }

    #[test]
    fn doorbell_flushes_at_batch_threshold() {
        let (_a, b, mut bell, vb, ma) = doorbell_setup(3, Duration::from_secs(3600));
        assert!(!bell.post(Descriptor::new(ma, 0, 8)).unwrap());
        assert!(!bell.post(Descriptor::new(ma, 8, 8)).unwrap());
        assert_eq!(bell.pending(), 2);
        let flushed = bell.post(Descriptor::new(ma, 16, 8)).unwrap();
        assert!(flushed, "third post reaches the batch threshold");
        assert_eq!(bell.pending(), 0);
        // All three arrive, in staging order.
        for i in 0..3u8 {
            let c = vb.wait_recv_completion(T).unwrap();
            assert_eq!(c.bytes_transferred(), 8);
            let got = b
                .read_region(c.descriptor.region, c.descriptor.offset, 8)
                .unwrap();
            assert_eq!(got[0], i * 8, "batch preserves staging order");
        }
    }

    #[test]
    fn doorbell_explicit_flush_drains_partial_batch() {
        let (_a, _b, mut bell, vb, ma) = doorbell_setup(MAX_DOORBELL, Duration::from_secs(3600));
        bell.post(Descriptor::new(ma, 0, 4)).unwrap();
        bell.post(Descriptor::new(ma, 4, 4)).unwrap();
        assert_eq!(bell.flush().unwrap(), 2);
        assert_eq!(bell.flush().unwrap(), 0, "nothing staged after a flush");
        assert!(vb.wait_recv_completion(T).unwrap().is_ok());
        assert!(vb.wait_recv_completion(T).unwrap().is_ok());
    }

    #[test]
    fn doorbell_validates_at_staging_time() {
        let (_a, _b, mut bell, _vb, ma) = doorbell_setup(4, Duration::from_secs(3600));
        assert_eq!(
            bell.post(Descriptor::new(ma, 250, 16)),
            Err(ViaError::OutOfBounds)
        );
        assert_eq!(bell.pending(), 0, "invalid descriptors are not staged");
    }
}

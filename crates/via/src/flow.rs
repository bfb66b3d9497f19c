//! Window-based flow control over a VI pair.
//!
//! PRESS runs its own credit-based flow control over VIA (the paper's
//! fifth message type): a sender may only have `window` unconsumed
//! messages outstanding, and the receiver returns credits in batches as
//! it consumes them. This module packages that protocol as a reusable
//! channel — it is also what keeps reliable VIA connections from hitting
//! [`crate::ViaError::ReceiverNotReady`].

use std::time::{Duration, Instant};

use press_macros as press;

use crate::descriptor::{CompletionKind, Descriptor, SgList};
use crate::error::ViaError;
use crate::fabric::{Fabric, Nic, Reliability, Vi};
use crate::mem::MemHandle;

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

/// One direction of a credit-controlled message channel between two NICs.
///
/// Construction posts `window` receive buffers of `buf_bytes` each at the
/// receiving side and `window` small credit buffers at the sending side.
/// [`CreditChannel::send`] blocks (consuming returned credits) when the
/// window is exhausted; [`CreditChannel::recv`] consumes one message,
/// reposts its buffer, and returns a credit to the sender every
/// `batch` consumed messages.
///
/// # Example
///
/// ```
/// use press_via::{CreditChannel, Fabric};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), press_via::ViaError> {
/// let fabric = Fabric::new();
/// let a = fabric.create_nic("a");
/// let b = fabric.create_nic("b");
/// let (mut tx, mut rx) = CreditChannel::pair(&fabric, &a, &b, 4, 2, 1024)?;
/// tx.send(b"fly, little message", Duration::from_secs(1))?;
/// let got = rx.recv(Duration::from_secs(1))?;
/// assert_eq!(&got, b"fly, little message");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CreditChannel {
    vi: Vi,
    side: Side,
}

#[derive(Debug)]
enum Side {
    Sender {
        credits: u32,
        send_region: MemHandle,
        buf_bytes: usize,
        next_slot: usize,
        window: u32,
        outstanding_sends: u32,
    },
    Receiver {
        recv_region: MemHandle,
        ack_region: MemHandle,
        buf_bytes: usize,
        consumed_since_credit: u32,
        batch: u32,
        outstanding_acks: u32,
    },
}

impl CreditChannel {
    /// Builds a sender/receiver pair with `window` outstanding-message
    /// credits, credit batches of `batch`, and `buf_bytes` per message.
    ///
    /// # Errors
    ///
    /// Propagates registration/posting failures from the fabric.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `batch == 0`, `batch > window`, or
    /// `window % batch != 0` (credits would leak otherwise).
    pub fn pair(
        fabric: &Fabric,
        a: &Nic,
        b: &Nic,
        window: u32,
        batch: u32,
        buf_bytes: usize,
    ) -> Result<(CreditChannel, CreditChannel), ViaError> {
        assert!(window > 0 && batch > 0, "window and batch must be positive");
        assert!(batch <= window, "batch cannot exceed the window");
        assert_eq!(window % batch, 0, "window must be a multiple of batch");
        let (vi_a, vi_b) = fabric.connect(a, b, Reliability::ReliableDelivery)?;

        // Sender side: staging buffers for outgoing messages, and small
        // buffers to receive credit returns into.
        let send_region = a.register(vec![0; buf_bytes * window as usize], false)?;
        let credit_region = a.register(vec![0; 4 * window as usize], false)?;
        for i in 0..window as usize {
            vi_a.post_recv(Descriptor::new(credit_region, i * 4, 4))?;
        }

        // Receiver side: data buffers, and a tiny region to send credit
        // messages from.
        let recv_region = b.register(vec![0; buf_bytes * window as usize], false)?;
        let ack_region = b.register(vec![0; 4], false)?;
        for i in 0..window as usize {
            vi_b.post_recv(Descriptor::new(recv_region, i * buf_bytes, buf_bytes))?;
        }

        Ok((
            CreditChannel {
                vi: vi_a,
                side: Side::Sender {
                    credits: window,
                    send_region,
                    buf_bytes,
                    next_slot: 0,
                    window,
                    outstanding_sends: 0,
                },
            },
            CreditChannel {
                vi: vi_b,
                side: Side::Receiver {
                    recv_region,
                    ack_region,
                    buf_bytes,
                    consumed_since_credit: 0,
                    batch,
                    outstanding_acks: 0,
                },
            },
        ))
    }

    /// Sends `data`, blocking for returned credits if the window is full.
    ///
    /// # Errors
    ///
    /// * [`ViaError::RecvBufferTooSmall`] if `data` exceeds the buffer size;
    /// * [`ViaError::Timeout`] if no credit returns in time;
    /// * fabric errors from the underlying post.
    ///
    /// # Panics
    ///
    /// Panics if called on the receiving side.
    pub fn send(&mut self, data: &[u8], timeout: Duration) -> Result<(), ViaError> {
        let vi = self.vi.clone();
        let Side::Sender {
            credits,
            send_region,
            buf_bytes,
            next_slot,
            window,
            outstanding_sends,
            ..
        } = &mut self.side
        else {
            panic!("send called on the receiving side");
        };
        if data.len() > *buf_bytes {
            return Err(ViaError::RecvBufferTooSmall);
        }
        while *credits == 0 {
            // Wait for a credit-return message.
            let c = vi.wait_recv_completion(timeout)?;
            if c.is_ok() {
                *credits += u32::from_le_bytes(read_credit(&vi, &c)?);
            }
        }
        // Reap send completions opportunistically so the queue can't grow
        // without bound.
        while let Some(_c) = try_send_completion(&vi) {
            *outstanding_sends = outstanding_sends.saturating_sub(1);
        }
        let slot = *next_slot;
        *next_slot = (*next_slot + 1) % *window as usize;
        let offset = slot * *buf_bytes;
        nic_write(&vi, *send_region, offset, data)?;
        vi.post_send(Descriptor::new(*send_region, offset, data.len()))?;
        *credits -= 1;
        *outstanding_sends += 1;
        Ok(())
    }

    /// Receives the next message, reposting its buffer and returning
    /// credits every `batch` messages.
    ///
    /// # Errors
    ///
    /// * [`ViaError::Timeout`] if nothing arrives in time;
    /// * the completion's error if the transfer failed.
    ///
    /// # Panics
    ///
    /// Panics if called on the sending side.
    pub fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, ViaError> {
        let vi = self.vi.clone();
        let Side::Receiver {
            recv_region,
            ack_region,
            buf_bytes,
            consumed_since_credit,
            batch,
            outstanding_acks,
        } = &mut self.side
        else {
            panic!("recv called on the sending side");
        };
        let c = vi.wait_recv_completion(timeout)?;
        c.status?;
        let data = nic_read(&vi, c.descriptor.region, c.descriptor.offset, c.transferred)?;
        // Repost the consumed buffer.
        vi.post_recv(Descriptor::new(
            *recv_region,
            c.descriptor.offset,
            *buf_bytes,
        ))?;
        *consumed_since_credit += 1;
        if *consumed_since_credit >= *batch {
            nic_write(&vi, *ack_region, 0, &consumed_since_credit.to_le_bytes())?;
            vi.post_send(Descriptor::new(*ack_region, 0, 4))?;
            *consumed_since_credit = 0;
            *outstanding_acks += 1;
            // Reap ack-send completions.
            while let Some(_c) = try_send_completion(&vi) {
                *outstanding_acks = outstanding_acks.saturating_sub(1);
            }
        }
        Ok(data)
    }
}

fn try_send_completion(vi: &Vi) -> Option<crate::descriptor::Completion> {
    // Send completions share the send_done queue for both plain sends and
    // credit acks; reap without blocking.
    match vi.wait_send_completion(Duration::from_millis(0)) {
        Ok(c) if c.kind == CompletionKind::Send || c.kind == CompletionKind::RdmaWrite => Some(c),
        _ => None,
    }
}

fn read_credit(vi: &Vi, c: &crate::descriptor::Completion) -> Result<[u8; 4], ViaError> {
    let bytes = nic_read(vi, c.descriptor.region, c.descriptor.offset, 4)?;
    // Repost the credit buffer for the next return.
    vi.post_recv(Descriptor::new(c.descriptor.region, c.descriptor.offset, 4))?;
    Ok([bytes[0], bytes[1], bytes[2], bytes[3]])
}

// The channel needs region access through the Vi's owning NIC; expose the
// two helpers crate-internally on Vi.
fn nic_read(vi: &Vi, region: MemHandle, offset: usize, len: usize) -> Result<Vec<u8>, ViaError> {
    vi.region_read(region, offset, len)
}

fn nic_write(vi: &Vi, region: MemHandle, offset: usize, data: &[u8]) -> Result<(), ViaError> {
    vi.region_write(region, offset, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(2);

    fn setup(window: u32, batch: u32, buf: usize) -> (Nic, Nic, CreditChannel, CreditChannel) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (tx, rx) = CreditChannel::pair(&fabric, &a, &b, window, batch, buf).expect("pair");
        (a, b, tx, rx)
    }

    #[test]
    fn messages_flow_in_order() {
        let (_a, _b, mut tx, mut rx) = setup(4, 2, 64);
        for i in 0..10u8 {
            tx.send(&[i; 8], T).unwrap();
            let got = rx.recv(T).unwrap();
            assert_eq!(got, vec![i; 8]);
        }
    }

    #[test]
    fn window_blocks_until_credits_return() {
        let (_a, _b, mut tx, mut rx) = setup(2, 2, 32);
        tx.send(b"one", T).unwrap();
        tx.send(b"two", T).unwrap();
        // Window exhausted; no recv happened, so the next send times out.
        let err = tx.send(b"three", Duration::from_millis(100));
        assert_eq!(err, Err(ViaError::Timeout));
        // Consuming both returns a credit batch and unblocks the sender.
        assert_eq!(rx.recv(T).unwrap(), b"one");
        assert_eq!(rx.recv(T).unwrap(), b"two");
        tx.send(b"three", T).unwrap();
        assert_eq!(rx.recv(T).unwrap(), b"three");
    }

    #[test]
    fn oversized_message_rejected() {
        let (_a, _b, mut tx, _rx) = setup(2, 1, 16);
        assert_eq!(tx.send(&[0; 17], T), Err(ViaError::RecvBufferTooSmall));
    }

    #[test]
    fn sustained_traffic_across_threads() {
        let (_a, _b, mut tx, mut rx) = setup(8, 4, 128);
        let producer = std::thread::spawn(move || {
            for i in 0..500u32 {
                tx.send(&i.to_le_bytes(), Duration::from_secs(10)).unwrap();
            }
        });
        for expected in 0..500u32 {
            let got = rx.recv(Duration::from_secs(10)).unwrap();
            let v = u32::from_le_bytes([got[0], got[1], got[2], got[3]]);
            assert_eq!(v, expected);
        }
        producer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "multiple of batch")]
    fn window_must_be_multiple_of_batch() {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let _ = CreditChannel::pair(&fabric, &a, &b, 5, 2, 64);
    }

    #[test]
    #[should_panic(expected = "receiving side")]
    fn send_on_receiver_panics() {
        let (_a, _b, _tx, mut rx) = setup(2, 1, 16);
        let _ = rx.send(b"nope", T);
    }

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

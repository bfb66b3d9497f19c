//! The post contract: a send or RDMA post runs its transfer in the
//! posting thread and never waits. A post that would push into a full
//! per-VI completion ring fails with `RingFull` before it transfers
//! anything; after a reap the next post goes through. Clones of one VI
//! may post from several threads: the VI's send tag serializes them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use press_via::{Descriptor, Doorbell, Fabric, Nic, Reliability, RemoteBuffer, Vi, ViaError};

const T: Duration = Duration::from_secs(5);

fn pair() -> (Nic, Nic, Vi, Vi) {
    let fabric = Fabric::new();
    let a = fabric.create_nic("a");
    let b = fabric.create_nic("b");
    let (va, vb) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .expect("connect");
    (a, b, va, vb)
}

/// Runs `f` on its own thread and returns its result, failing the test
/// if it has not returned within `T`: a post that waits for ring space
/// would never return here, because nobody reaps.
fn within<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(T).expect("the post returned at once")
}

/// Fills `vi`'s send completion ring with `ReceiverNotReady` completions
/// (the peer has no receive posted) until a post reports `RingFull`.
/// Returns how many completions the ring holds.
fn fill_send_ring(vi: &Vi, src: press_via::MemHandle) -> usize {
    for filled in 0..1 << 20 {
        match vi.post_send(Descriptor::new(src, 0, 8)) {
            Ok(()) => {}
            Err(ViaError::RingFull) => return filled,
            Err(e) => panic!("unexpected post error {e:?}"),
        }
    }
    panic!("the send completion ring never filled");
}

#[test]
fn send_and_rdma_into_a_full_send_ring_fail_at_once_and_transfer_nothing() {
    let (a, b, va, vb) = pair();
    let src = a.register(b"payload!".to_vec(), false).unwrap();
    let dst = b.register(vec![0; 8], false).unwrap();
    let remote = b.register(vec![0; 8], true).unwrap();
    let v = va.clone();
    let filled = within(move || fill_send_ring(&v, src));
    assert!(filled > 0);

    vb.post_recv(Descriptor::new(dst, 0, 8)).unwrap();
    let v = va.clone();
    assert_eq!(
        within(move || v.post_send(Descriptor::new(src, 0, 8))),
        Err(ViaError::RingFull)
    );
    let v = va.clone();
    let target = RemoteBuffer {
        region: remote,
        offset: 0,
    };
    assert_eq!(
        within(move || v.rdma_write(Descriptor::new(src, 0, 8), target)),
        Err(ViaError::RingFull)
    );
    // Nothing moved: the receive is still posted, nothing completed at
    // the peer, and neither region was written.
    assert_eq!(vb.posted_recvs(), 1);
    assert_eq!(vb.poll_recv_completion(), None);
    assert_eq!(b.read_region(dst, 0, 8).unwrap(), vec![0; 8]);
    assert_eq!(b.read_region(remote, 0, 8).unwrap(), vec![0; 8]);

    // One reap makes room for exactly one more post.
    let reaped = va.wait_send_completion(T).unwrap();
    assert_eq!(reaped.status, Err(ViaError::ReceiverNotReady));
    va.post_send(Descriptor::new(src, 0, 8)).unwrap();
    // The post ran the transfer before it returned.
    assert!(vb.poll_recv_completion().expect("delivered").is_ok());
    assert_eq!(b.read_region(dst, 0, 8).unwrap(), b"payload!");
    assert_eq!(
        va.rdma_write(Descriptor::new(src, 0, 8), target),
        Err(ViaError::RingFull)
    );
    // The ring now holds filled - 1 failures and the one success.
    for _ in 0..filled - 1 {
        assert_eq!(
            va.wait_send_completion(T).unwrap().status,
            Err(ViaError::ReceiverNotReady)
        );
    }
    assert!(va.wait_send_completion(T).unwrap().is_ok());
    va.rdma_write(Descriptor::new(src, 0, 8), target).unwrap();
    assert_eq!(b.read_region(remote, 0, 8).unwrap(), b"payload!");
}

#[test]
fn send_into_a_full_peer_recv_ring_fails_at_once_and_leaves_the_descriptor_posted() {
    let (a, b, va, vb) = pair();
    let src = a.register(b"payload!".to_vec(), false).unwrap();
    let dst = b.register(vec![0; 8], false).unwrap();
    let remote = b.register(vec![0; 8], true).unwrap();
    // Deliver until the peer's receive completion ring is full, reaping
    // every send completion so only the peer's ring fills.
    let (v, w) = (va.clone(), vb.clone());
    let delivered = within(move || {
        let mut delivered = 0;
        loop {
            w.post_recv(Descriptor::new(dst, 0, 8)).unwrap();
            match v.post_send(Descriptor::new(src, 0, 8)) {
                Ok(()) => delivered += 1,
                Err(ViaError::RingFull) => return delivered,
                Err(e) => panic!("unexpected post error {e:?}"),
            }
            assert!(v.wait_send_completion(T).unwrap().is_ok());
            assert!(delivered < 1 << 20, "the receive ring never filled");
        }
    });
    assert!(delivered > 0);
    // The refused send consumed nothing and wrote nothing.
    assert_eq!(vb.posted_recvs(), 1);
    b.write_region(dst, 0, &[0; 8]).unwrap();
    let v = va.clone();
    assert_eq!(
        within(move || v.post_send(Descriptor::new(src, 0, 8))),
        Err(ViaError::RingFull)
    );
    assert_eq!(vb.posted_recvs(), 1);
    assert_eq!(b.read_region(dst, 0, 8).unwrap(), vec![0; 8]);
    assert_eq!(
        va.wait_send_completion(Duration::ZERO),
        Err(ViaError::Timeout)
    );
    // A remote write raises no receive completion, so it still goes.
    va.rdma_write(
        Descriptor::new(src, 0, 8),
        RemoteBuffer {
            region: remote,
            offset: 0,
        },
    )
    .unwrap();
    assert!(va.wait_send_completion(T).unwrap().is_ok());

    // One reap at the peer makes room; the posted descriptor takes the
    // next message.
    assert!(vb.wait_recv_completion(T).unwrap().is_ok());
    va.post_send(Descriptor::new(src, 0, 8)).unwrap();
    assert_eq!(vb.posted_recvs(), 0);
    assert_eq!(b.read_region(dst, 0, 8).unwrap(), b"payload!");
    assert!(va.wait_send_completion(T).unwrap().is_ok());
}

#[test]
fn doorbell_flush_into_a_full_ring_keeps_the_batch_staged() {
    let (a, b, va, vb) = pair();
    let src = a.register((0..32).collect(), false).unwrap();
    let dst = b.register(vec![0; 32], false).unwrap();
    let v = va.clone();
    within(move || fill_send_ring(&v, src));
    // Room for two completions; the batch of four needs four.
    for _ in 0..2 {
        assert!(va.wait_send_completion(T).is_ok());
    }
    for i in 0..4 {
        vb.post_recv(Descriptor::new(dst, i * 8, 8)).unwrap();
    }
    let mut bell = Doorbell::new(va.clone(), 4, Duration::MAX);
    for i in 0..3 {
        assert_eq!(bell.post(Descriptor::new(src, i * 8, 8)), Ok(false));
    }
    assert_eq!(
        bell.post(Descriptor::new(src, 24, 8)),
        Err(ViaError::RingFull)
    );
    assert_eq!(bell.pending(), 4, "a refused flush keeps the batch");
    assert_eq!(vb.posted_recvs(), 4);
    assert_eq!(b.read_region(dst, 0, 32).unwrap(), vec![0; 32]);
    // A full stage cannot take a fifth message until a flush goes out.
    assert_eq!(
        bell.post(Descriptor::new(src, 0, 8)),
        Err(ViaError::RingFull)
    );
    assert_eq!(bell.pending(), 4);

    for _ in 0..2 {
        assert!(va.wait_send_completion(T).is_ok());
    }
    assert_eq!(bell.flush(), Ok(4));
    assert_eq!(bell.pending(), 0);
    for i in 0..4u8 {
        let c = vb.poll_recv_completion().expect("delivered by the flush");
        assert_eq!(c.descriptor.offset, i as usize * 8, "staging order");
    }
    assert_eq!(
        b.read_region(dst, 0, 32).unwrap(),
        (0..32).collect::<Vec<u8>>()
    );
}

/// Bytes per stress message: sender id, then sequence number.
const MSG: usize = 16;
/// Receive descriptors the stress receiver keeps posted.
const POSTED: usize = 256;
/// Messages per stress sender.
const PER_SENDER: u64 = 10_000;

#[test]
fn two_threads_posting_on_one_vi_deliver_each_message_once_in_order() {
    let (a, b, va, vb) = pair();
    let dst = b.register(vec![0; POSTED * MSG], false).unwrap();
    for i in 0..POSTED {
        vb.post_recv(Descriptor::new(dst, i * MSG, MSG)).unwrap();
    }
    // One credit per posted receive, so a reliable send always finds one.
    let credits = Arc::new(AtomicUsize::new(POSTED));
    let a = Arc::new(a);
    let deadline = Instant::now() + Duration::from_secs(60);
    let senders: Vec<_> = (0..2u64)
        .map(|id| {
            let (vi, nic, credits) = (va.clone(), Arc::clone(&a), Arc::clone(&credits));
            std::thread::spawn(move || {
                let src = nic.register(vec![0; MSG], false).unwrap();
                for seq in 0..PER_SENDER {
                    // ordering: AcqRel — the receiver's Release add of a
                    // credit follows its repost of the descriptor.
                    while credits
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(1))
                        .is_err()
                    {
                        assert!(Instant::now() < deadline, "no credit returned");
                        std::thread::yield_now();
                    }
                    let mut bytes = [0; MSG];
                    bytes[..8].copy_from_slice(&id.to_le_bytes());
                    bytes[8..].copy_from_slice(&seq.to_le_bytes());
                    // The post copies at once, so one source slot serves
                    // every message.
                    nic.write_region(src, 0, &bytes).unwrap();
                    loop {
                        match vi.post_send(Descriptor::new(src, 0, MSG)) {
                            Ok(()) => break,
                            // Either thread reaps the shared send ring.
                            Err(ViaError::RingFull) => {
                                while let Ok(c) = vi.wait_send_completion(Duration::ZERO) {
                                    assert!(c.is_ok(), "{:?}", c.status);
                                }
                                assert!(Instant::now() < deadline, "the rings never drained");
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected post error {e:?}"),
                        }
                    }
                }
            })
        })
        .collect();

    let mut next = [0u64; 2];
    for _ in 0..2 * PER_SENDER {
        let c = vb.wait_recv_completion(T).expect("a message arrives");
        assert!(c.is_ok(), "{:?}", c.status);
        let got = b.read_region(dst, c.descriptor.offset, MSG).unwrap();
        let id = u64::from_le_bytes(got[..8].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(got[8..].try_into().unwrap());
        assert_eq!(seq, next[id], "sender {id}: exactly once, in order");
        next[id] += 1;
        vb.post_recv(Descriptor::new(dst, c.descriptor.offset, MSG))
            .unwrap();
        // ordering: AcqRel — pairs with the senders' `fetch_update`, so a
        // sender that takes this credit sees the repost above.
        credits.fetch_add(1, Ordering::AcqRel);
    }
    for s in senders {
        s.join().unwrap();
    }
    assert_eq!(next, [PER_SENDER; 2]);
    assert_eq!(vb.poll_recv_completion(), None);
    while let Ok(c) = va.wait_send_completion(Duration::ZERO) {
        assert!(c.is_ok(), "{:?}", c.status);
    }
}

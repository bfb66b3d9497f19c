//! Error-path coverage for the VIA fabric: the failure statuses PRESS's
//! recovery machinery has to handle — receiver not ready, undersized
//! receive buffers, completion timeouts, and injected transport failures.

use std::time::Duration;

use press_via::{CompletionQueue, Descriptor, Fabric, FaultConfig, Reliability, ViaError};

const TICK: Duration = Duration::from_millis(500);

fn pair(fabric: &Fabric) -> (press_via::Nic, press_via::Nic) {
    (fabric.create_nic("a"), fabric.create_nic("b"))
}

#[test]
fn reliable_send_without_posted_recv_fails_receiver_not_ready() {
    let fabric = Fabric::new();
    let (a, b) = pair(&fabric);
    let ma = a.register(vec![1u8; 64], false).unwrap();
    let _mb = b.register(vec![0u8; 64], false).unwrap();
    let (va, _vb) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .unwrap();

    va.post_send(Descriptor::new(ma, 0, 64)).unwrap();
    let c = va.wait_send_completion(TICK).unwrap();
    assert_eq!(c.status, Err(ViaError::ReceiverNotReady));
    assert_eq!(c.bytes_transferred(), 0);
}

#[test]
fn recv_buffer_too_small_errors_both_sides() {
    let fabric = Fabric::new();
    let (a, b) = pair(&fabric);
    let ma = a.register(vec![7u8; 128], false).unwrap();
    let mb = b.register(vec![0u8; 128], false).unwrap();
    let (va, vb) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .unwrap();

    // Receiver posts 32 bytes; sender pushes 128.
    vb.post_recv(Descriptor::new(mb, 0, 32)).unwrap();
    va.post_send(Descriptor::new(ma, 0, 128)).unwrap();

    let sent = va.wait_send_completion(TICK).unwrap();
    assert_eq!(sent.status, Err(ViaError::RecvBufferTooSmall));
    let recvd = vb.wait_recv_completion(TICK).unwrap();
    assert_eq!(recvd.status, Err(ViaError::RecvBufferTooSmall));
    // The truncated message must not have landed in the region.
    assert_eq!(b.read_region(mb, 0, 32).unwrap(), vec![0u8; 32]);
}

#[test]
fn completion_queue_wait_times_out_when_idle() {
    let fabric = Fabric::new();
    let (a, b) = pair(&fabric);
    let cq = CompletionQueue::new();
    let (va, _vb) = fabric
        .connect_with_cqs(&a, &b, Reliability::ReliableDelivery, Some(&cq), None)
        .unwrap();

    assert_eq!(cq.wait(Duration::from_millis(10)), Err(ViaError::Timeout));
    assert!(cq.poll().is_none());

    // A completion posted afterwards is still delivered to the CQ, so a
    // timeout is transient, not a poisoned state.
    let ma = a.register(vec![3u8; 16], false).unwrap();
    va.post_send(Descriptor::new(ma, 0, 16)).unwrap();
    let c = cq.wait(TICK).unwrap();
    assert_eq!(c.status, Err(ViaError::ReceiverNotReady));
}

#[test]
fn per_vi_wait_times_out_when_idle() {
    let fabric = Fabric::new();
    let (a, b) = pair(&fabric);
    let (va, vb) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .unwrap();
    assert_eq!(
        va.wait_send_completion(Duration::from_millis(10)),
        Err(ViaError::Timeout)
    );
    assert_eq!(
        vb.wait_recv_completion(Duration::from_millis(10)),
        Err(ViaError::Timeout)
    );
}

#[test]
fn injected_failure_completes_send_with_error_status() {
    let fabric = Fabric::new();
    let (a, b) = pair(&fabric);
    a.set_fault(FaultConfig {
        fail_probability: 1.0,
        seed: 42,
        ..FaultConfig::default()
    });
    let ma = a.register(vec![9u8; 64], false).unwrap();
    let mb = b.register(vec![0u8; 64], false).unwrap();
    let (va, vb) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .unwrap();

    vb.post_recv(Descriptor::new(mb, 0, 64)).unwrap();
    va.post_send(Descriptor::new(ma, 0, 64)).unwrap();

    let c = va.wait_send_completion(TICK).unwrap();
    assert_eq!(c.status, Err(ViaError::NotConnected));
    // The receive descriptor stays posted: nothing reached the peer.
    assert_eq!(vb.posted_recvs(), 1);
    assert_eq!(b.read_region(mb, 0, 64).unwrap(), vec![0u8; 64]);
}

#[test]
fn injected_failure_applies_to_rdma_writes() {
    let fabric = Fabric::new();
    let (a, b) = pair(&fabric);
    a.set_fault(FaultConfig {
        fail_probability: 1.0,
        seed: 7,
        ..FaultConfig::default()
    });
    let ma = a.register(vec![5u8; 32], false).unwrap();
    let mb = b.register(vec![0u8; 32], true).unwrap();
    let (va, _vb) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .unwrap();

    va.rdma_write(
        Descriptor::new(ma, 0, 32),
        press_via::RemoteBuffer {
            region: mb,
            offset: 0,
        },
    )
    .unwrap();
    let c = va.wait_send_completion(TICK).unwrap();
    assert_eq!(c.status, Err(ViaError::NotConnected));
    assert_eq!(b.read_region(mb, 0, 32).unwrap(), vec![0u8; 32]);
}

#[test]
fn failure_injection_is_deterministic_per_seed() {
    // Two NICs with the same seed and p = 0.5 must fail the exact same
    // subset of a sequence of sends.
    let pattern = |seed: u64| -> Vec<bool> {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        a.set_fault(FaultConfig {
            fail_probability: 0.5,
            seed,
            ..FaultConfig::default()
        });
        let ma = a.register(vec![1u8; 8], false).unwrap();
        let mb = b.register(vec![0u8; 8], false).unwrap();
        let (va, vb) = fabric
            .connect(&a, &b, Reliability::ReliableDelivery)
            .unwrap();
        let mut out = Vec::new();
        for _ in 0..32 {
            vb.post_recv(Descriptor::new(mb, 0, 8)).unwrap();
            va.post_send(Descriptor::new(ma, 0, 8)).unwrap();
            let c = va.wait_send_completion(TICK).unwrap();
            out.push(c.is_ok());
            if c.is_ok() {
                vb.wait_recv_completion(TICK).unwrap();
            }
        }
        out
    };
    let p1 = pattern(99);
    let p2 = pattern(99);
    assert_eq!(p1, p2);
    assert!(p1.iter().any(|&ok| ok), "p=0.5 failed every send");
    assert!(p1.iter().any(|&ok| !ok), "p=0.5 failed no sends");
    assert_ne!(p1, pattern(100), "different seeds gave identical patterns");
}

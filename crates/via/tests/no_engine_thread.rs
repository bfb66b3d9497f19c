//! A NIC has no thread of its own: creating NICs, connecting them and
//! moving messages leaves the process's thread count unchanged. This is
//! the only test in its binary, so no other test's threads come and go
//! while it counts.
#![cfg(target_os = "linux")]

use std::time::Duration;

use press_via::{Descriptor, Fabric, Reliability};

/// Threads of this process, from the kernel's per-task directory.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .count()
}

#[test]
fn create_nic_starts_no_thread() {
    let before = threads();
    let fabric = Fabric::new();
    let nics: Vec<_> = (0..8)
        .map(|i| fabric.create_nic(&format!("n{i}")))
        .collect();
    let (va, vb) = fabric
        .connect(&nics[0], &nics[1], Reliability::ReliableDelivery)
        .expect("connect");
    let src = nics[0].register(b"no thread".to_vec(), false).unwrap();
    let dst = nics[1].register(vec![0; 9], false).unwrap();
    vb.post_recv(Descriptor::new(dst, 0, 9)).unwrap();
    va.post_send(Descriptor::new(src, 0, 9)).unwrap();
    let got = vb.wait_recv_completion(Duration::from_secs(2)).unwrap();
    assert_eq!(got.bytes_transferred(), 9);
    assert_eq!(threads(), before);
    drop((va, vb));
    drop(nics);
    assert_eq!(threads(), before);
}

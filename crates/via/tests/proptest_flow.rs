//! Property-based tests of the VIA fabric: RDMA placement and lossy
//! delivery.

use std::time::Duration;

use press_via::{Descriptor, Fabric, Reliability, RemoteBuffer};
use proptest::collection::vec;
use proptest::prelude::*;

const T: Duration = Duration::from_secs(10);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RDMA writes land exactly where directed, for arbitrary offsets and
    /// lengths within bounds.
    #[test]
    fn rdma_writes_land_exactly(
        region_len in 64usize..4096,
        writes in vec((0usize..4096, 1usize..256, 0u8..255), 1..20),
    ) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (vi, _peer) = fabric
            .connect(&a, &b, Reliability::ReliableDelivery)
            .expect("connect");
        let mb = b.register(vec![0u8; region_len], true).expect("register");
        let mut shadow = vec![0u8; region_len];
        for &(offset, len, fill) in &writes {
            let ma = a.register(vec![fill; len], false).expect("register src");
            let in_bounds = offset + len <= region_len;
            vi.rdma_write(
                Descriptor::new(ma, 0, len),
                RemoteBuffer { region: mb, offset },
            )
            .expect("post");
            let c = vi.wait_send_completion(T).expect("completion");
            if in_bounds {
                prop_assert!(c.is_ok(), "in-bounds write failed: {:?}", c.status);
                shadow[offset..offset + len].fill(fill);
            } else {
                prop_assert!(!c.is_ok(), "out-of-bounds write succeeded");
            }
        }
        let got = b.read_region(mb, 0, region_len).expect("read");
        prop_assert_eq!(got, shadow);
    }

    /// Under unreliable delivery with drop injection, everything that
    /// does arrive is intact, and nothing arrives out of order.
    #[test]
    fn lossy_delivery_never_corrupts(
        drop_prob in 0.0f64..1.0,
        seed in 0u64..1000,
        count in 1usize..40,
    ) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        a.set_fault(press_via::FaultConfig {
            drop_probability: drop_prob,
            fail_probability: 0.0,
            seed,
        });
        let (va, vb) = fabric
            .connect(&a, &b, Reliability::UnreliableDelivery)
            .expect("connect");
        // Each message i carries the byte i in a 16-byte payload.
        let ma = a.register((0..count).flat_map(|i| [i as u8; 16]).collect(), false)
            .expect("register");
        let mb = b.register(vec![0xFF; 16 * count], false).expect("register");
        for i in 0..count {
            vb.post_recv(Descriptor::new(mb, i * 16, 16)).expect("post recv");
        }
        for i in 0..count {
            va.post_send(Descriptor::new(ma, i * 16, 16)).expect("post send");
            // Unreliable sends always complete OK.
            let c = va.wait_send_completion(T).expect("send completion");
            prop_assert!(c.is_ok());
        }
        // Drain whatever arrived.
        let mut arrived = Vec::new();
        while let Some(c) = vb.poll_recv_completion() {
            prop_assert!(c.is_ok());
            let data = b
                .read_region(mb, c.descriptor.offset, 16)
                .expect("read arrived");
            prop_assert!(data.iter().all(|&x| x == data[0]), "torn message");
            arrived.push(data[0]);
        }
        // In-order: arrived sequence numbers strictly increase.
        for w in arrived.windows(2) {
            prop_assert!(w[0] < w[1], "reordered: {arrived:?}");
        }
        prop_assert!(arrived.len() <= count);
        if drop_prob == 0.0 {
            prop_assert_eq!(arrived.len(), count);
        }
    }
}

//! End-to-end test of the software VIA substrate: a three-node cluster of
//! real threads forwarding requests and shipping files over VI pairs,
//! with RDMA-written load information, small enough for CI.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use press::via::{Descriptor, Fabric, MemHandle, Nic, Reliability, RemoteBuffer, Vi};

const NODES: usize = 3;
const FILE_BYTES: usize = 2048;
const REQUESTS: u32 = 200;
const T: Duration = Duration::from_secs(10);

fn owner(file: u32) -> usize {
    (file as usize) % NODES
}

fn content(file: u32) -> u8 {
    (file.wrapping_mul(97).wrapping_add(13) & 0xFF) as u8
}

/// One end of a request/reply VI: a receive buffer kept posted, then a
/// staging slot for sends. A client has at most one request outstanding
/// per peer, so one posted receive on each end is the whole window.
struct End {
    nic: Arc<Nic>,
    vi: Vi,
    region: MemHandle,
    recv_len: usize,
}

impl End {
    fn new(nic: &Arc<Nic>, vi: Vi, recv_len: usize, send_len: usize) -> End {
        let region = nic
            .register(vec![0; recv_len + send_len], false)
            .expect("register");
        vi.post_recv(Descriptor::new(region, 0, recv_len))
            .expect("post recv");
        End {
            nic: Arc::clone(nic),
            vi,
            region,
            recv_len,
        }
    }

    fn send(&self, data: &[u8]) {
        self.nic
            .write_region(self.region, self.recv_len, data)
            .expect("stage");
        self.vi
            .post_send(Descriptor::new(self.region, self.recv_len, data.len()))
            .expect("post send");
        let c = self.vi.wait_send_completion(T).expect("send completion");
        c.status.expect("sent");
    }

    /// The next message, with the receive buffer reposted before it
    /// returns; `None` if nothing arrived within `timeout`.
    fn recv(&self, timeout: Duration) -> Option<Vec<u8>> {
        let c = self.vi.wait_recv_completion(timeout).ok()?;
        c.status.expect("received");
        let data = self
            .nic
            .read_region(self.region, 0, c.transferred)
            .expect("read");
        self.vi
            .post_recv(Descriptor::new(self.region, 0, self.recv_len))
            .expect("repost recv");
        Some(data)
    }
}

#[test]
fn forwarded_file_transfers_and_rdma_loads() {
    let fabric = Fabric::new();
    let nics: Vec<_> = (0..NODES)
        .map(|i| Arc::new(fabric.create_nic(&format!("n{i}"))))
        .collect();
    let load_regions: Vec<_> = (0..NODES)
        .map(|i| {
            nics[i]
                .register(vec![0u8; 4 * NODES], true)
                .expect("register")
        })
        .collect();

    // client_ends[i][j]: i's end of the request/reply VI to j.
    // server_ends[j][i]: j's end of the same VI.
    let mut client_ends: Vec<Vec<Option<End>>> = (0..NODES)
        .map(|_| (0..NODES).map(|_| None).collect())
        .collect();
    let mut server_ends: Vec<Vec<Option<End>>> = (0..NODES)
        .map(|_| (0..NODES).map(|_| None).collect())
        .collect();
    let mut load_vis: Vec<Vec<Option<Vi>>> = (0..NODES)
        .map(|_| (0..NODES).map(|_| None).collect())
        .collect();

    for i in 0..NODES {
        for j in 0..NODES {
            if i == j {
                continue;
            }
            let (client, server) = fabric
                .connect(&nics[i], &nics[j], Reliability::ReliableDelivery)
                .expect("request vi");
            client_ends[i][j] = Some(End::new(&nics[i], client, FILE_BYTES, 4));
            server_ends[j][i] = Some(End::new(&nics[j], server, 4, FILE_BYTES));
            let (vi, _peer) = fabric
                .connect(&nics[i], &nics[j], Reliability::ReliableDelivery)
                .expect("load vi");
            load_vis[i][j] = Some(vi);
        }
    }

    let finished = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();

    for (j, row) in server_ends.into_iter().enumerate() {
        let peers: Vec<End> = row.into_iter().flatten().collect();
        let finished = Arc::clone(&finished);
        handles.push(std::thread::spawn(move || {
            let poll = Duration::from_millis(1);
            while finished.load(Ordering::Acquire) < NODES as u32 {
                for end in &peers {
                    if let Some(req) = end.recv(poll) {
                        let file = u32::from_le_bytes([req[0], req[1], req[2], req[3]]);
                        assert_eq!(owner(file), j);
                        end.send(&vec![content(file); FILE_BYTES]);
                    }
                }
            }
        }));
    }

    for (i, (row, vi_row)) in client_ends.into_iter().zip(load_vis).enumerate() {
        let peers = row;
        let vis: Vec<(usize, Vi)> = vi_row
            .into_iter()
            .enumerate()
            .filter_map(|(j, v)| v.map(|vi| (j, vi)))
            .collect();
        let nic = Arc::clone(&nics[i]);
        let regions = load_regions.clone();
        let finished = Arc::clone(&finished);
        handles.push(std::thread::spawn(move || {
            let scratch = nic.register(vec![0u8; 4], false).expect("scratch");
            for n in 0..REQUESTS {
                if n % 50 == 0 {
                    nic.write_region(scratch, 0, &n.to_le_bytes())
                        .expect("scratch");
                    for (j, vi) in &vis {
                        vi.rdma_write(
                            Descriptor::new(scratch, 0, 4),
                            RemoteBuffer {
                                region: regions[*j],
                                offset: 4 * i,
                            },
                        )
                        .expect("rdma");
                        vi.wait_send_completion(T)
                            .expect("completion")
                            .status
                            .expect("rdma ok");
                    }
                }
                let file = n.wrapping_mul(7).wrapping_add(i as u32);
                let j = owner(file);
                if j == i {
                    continue; // served locally; nothing to exercise
                }
                let end = peers[j].as_ref().expect("peer");
                end.send(&file.to_le_bytes());
                let data = end.recv(T).expect("file");
                assert_eq!(data.len(), FILE_BYTES);
                assert!(
                    data.iter().all(|&b| b == content(file)),
                    "corrupt file {file}"
                );
            }
            finished.fetch_add(1, Ordering::Release);
        }));
    }

    for h in handles {
        h.join().expect("cluster thread panicked");
    }

    // Every node's load table carries the final RDMA-written counts.
    let last_update = (REQUESTS - 1) / 50 * 50;
    for j in 0..NODES {
        let table = nics[j]
            .read_region(load_regions[j], 0, 4 * NODES)
            .expect("table");
        for i in 0..NODES {
            if i == j {
                continue;
            }
            let v = u32::from_le_bytes([
                table[4 * i],
                table[4 * i + 1],
                table[4 * i + 2],
                table[4 * i + 3],
            ]);
            assert_eq!(v, last_update, "node {j} view of node {i}");
        }
    }
}

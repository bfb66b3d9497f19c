//! Collective dissemination topologies over the live member set.

use press_macros as press;

/// The shape a broadcast fans out along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The origin sends to every other live node directly (the paper's
    /// baseline): depth 1, but the origin pays `m - 1` serialized sends.
    Flat,
    /// Binomial tree: rank `r`'s parent is `r` with its highest set bit
    /// cleared. Depth ≤ ⌈log₂ m⌉, every interior node sends O(log m)
    /// messages — the latency-optimal shape for small messages.
    Binomial,
    /// Chain (pipeline): rank `r` forwards to rank `r + 1`. Depth
    /// `m - 1`, but each node sends exactly once — the bandwidth-optimal
    /// shape for bulk payloads that can be pipelined.
    Chain,
}

/// Clusters up to this many live nodes broadcast flat: the tree's relay
/// hops cost more than the origin's handful of serialized sends.
pub const FLAT_MAX_NODES: u32 = 8;

/// Payloads at least this large switch from the binomial tree to the
/// chain: their wire time dominates per-hop CPU, so pipelining wins.
pub const PIPELINE_MIN_BYTES: u64 = 32 * 1024;

/// The size-switched selection rule (Barchet-Estefanel & Mounié): keyed
/// on the live node count (from the membership epoch's bitmask) and the
/// payload size.
pub fn select_topology(live_nodes: u32, payload_bytes: u64) -> Topology {
    if live_nodes <= FLAT_MAX_NODES {
        Topology::Flat
    } else if payload_bytes >= PIPELINE_MIN_BYTES {
        Topology::Chain
    } else {
        Topology::Binomial
    }
}

/// ⌈log₂ n⌉ (0 for n ≤ 1).
pub fn ceil_log2(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

/// Maximum cluster size a [`TreeView`] spans (the simulator's u128 live
/// mask); also the capacity of a [`Children`] list (a flat root sends to
/// every other node).
pub const MAX_NODES: usize = 128;

/// A fixed-capacity child list. [`TreeView::children`] runs once per
/// relay hop on the message path, so the list lives entirely on the
/// stack — no heap allocation in the hot path.
#[derive(Debug, Clone, Copy)]
pub struct Children {
    buf: [u16; MAX_NODES],
    len: usize,
}

impl Children {
    const EMPTY: Children = Children {
        buf: [0; MAX_NODES],
        len: 0,
    };

    fn put(&mut self, v: u16) {
        self.buf[self.len] = v;
        self.len += 1;
    }

    /// The children as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[u16] {
        &self.buf[..self.len]
    }
}

impl PartialEq for Children {
    fn eq(&self, other: &Children) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Children {}

impl PartialEq<Vec<u16>> for Children {
    fn eq(&self, other: &Vec<u16>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u16]> for Children {
    fn eq(&self, other: &[u16]) -> bool {
        self.as_slice() == other
    }
}

impl std::ops::Deref for Children {
    type Target = [u16];
    fn deref(&self) -> &[u16] {
        self.as_slice()
    }
}

impl IntoIterator for Children {
    type Item = u16;
    type IntoIter = std::iter::Take<std::array::IntoIter<u16, MAX_NODES>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a u16;
    type IntoIter = std::slice::Iter<'a, u16>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One dissemination tree: a pure function of `(topology, origin, live
/// mask)`.
///
/// Every node derives the identical tree from its own membership
/// snapshot, so there is no tree-construction protocol and no repair
/// protocol: a crash or rejoin bumps the membership epoch, and the next
/// relay simply rebuilds from the new mask. Ranks are positions in the
/// sorted live list, rotated so the origin is rank 0; a dead origin
/// (crashed mid-broadcast) still yields one consistent tree because the
/// rotation point is the position the origin *would* occupy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeView {
    topology: Topology,
    origin: u16,
    /// Sorted live node ids.
    live: Vec<u16>,
    /// Index in `live` that plays rank 0.
    rotate: usize,
}

impl TreeView {
    /// Builds the tree rooted at `origin` over the live bits of
    /// `live_mask` (node ids `0..nodes`).
    pub fn build(topology: Topology, origin: u16, live_mask: u128, nodes: u16) -> TreeView {
        let live: Vec<u16> = (0..nodes).filter(|&i| live_mask & (1 << i) != 0).collect();
        let rotate = live.partition_point(|&x| x < origin);
        TreeView {
            topology,
            origin,
            live,
            rotate,
        }
    }

    /// The live members, sorted by node id.
    pub fn members(&self) -> &[u16] {
        &self.live
    }

    /// The node this tree is rooted at.
    pub fn origin(&self) -> u16 {
        self.origin
    }

    fn rank_of(&self, node: u16) -> Option<usize> {
        let m = self.live.len();
        let pos = self.live.binary_search(&node).ok()?;
        Some((pos + m - self.rotate % m.max(1)) % m)
    }

    fn node_at_rank(&self, rank: usize) -> u16 {
        let m = self.live.len();
        self.live[(rank + self.rotate) % m]
    }

    /// The children `me` must forward to. Empty when `me` is a leaf, not
    /// live, or the cluster has ≤ 1 live node. Called once per relay hop
    /// on the message path, hence a hot-path root — the child list lives
    /// on the stack ([`Children`]), never the heap.
    #[press::hot_path]
    pub fn children(&self, me: u16) -> Children {
        let mut out = Children::EMPTY;
        let m = self.live.len();
        if m <= 1 {
            return out;
        }
        let Some(r) = self.rank_of(me) else {
            return out;
        };
        match self.topology {
            Topology::Flat => {
                if r == 0 {
                    for c in 1..m {
                        out.put(self.node_at_rank(c));
                    }
                }
            }
            Topology::Chain => {
                if r + 1 < m {
                    out.put(self.node_at_rank(r + 1));
                }
            }
            Topology::Binomial => {
                // Children of rank r: r | 2^k for every k strictly above
                // r's highest set bit (all powers of two for the root).
                let start = if r == 0 {
                    0
                } else {
                    usize::BITS - r.leading_zeros()
                };
                for k in start..usize::BITS {
                    let c = r | (1usize << k);
                    if c >= m {
                        break;
                    }
                    out.put(self.node_at_rank(c));
                }
            }
        }
        out
    }

    /// The parent that forwards to `me` (`None` for the root, dead nodes
    /// and degenerate trees).
    pub fn parent(&self, me: u16) -> Option<u16> {
        let m = self.live.len();
        if m <= 1 {
            return None;
        }
        let r = self.rank_of(me)?;
        if r == 0 {
            return None;
        }
        let p = match self.topology {
            Topology::Flat => 0,
            Topology::Chain => r - 1,
            // Clear the highest set bit.
            Topology::Binomial => r & !(1usize << (usize::BITS - 1 - r.leading_zeros())),
        };
        Some(self.node_at_rank(p))
    }

    /// The tree's depth in hops (0 for ≤ 1 live node).
    pub fn depth(&self) -> u32 {
        let m = self.live.len() as u32;
        if m <= 1 {
            return 0;
        }
        match self.topology {
            Topology::Flat => 1,
            Topology::Chain => m - 1,
            // Depth of rank r is popcount(r); the maximum over 0..m is
            // bounded by ⌈log₂ m⌉.
            Topology::Binomial => (0..m as usize).map(|r| r.count_ones()).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_mask(n: u16) -> u128 {
        if n as u32 == 128 {
            u128::MAX
        } else {
            (1u128 << n) - 1
        }
    }

    /// BFS from the origin; returns visit counts per node.
    fn coverage(tree: &TreeView, nodes: u16) -> Vec<u32> {
        let mut seen = vec![0u32; nodes as usize];
        let mut frontier = vec![tree.origin()];
        if tree.members().contains(&tree.origin()) {
            seen[tree.origin() as usize] = 1;
        }
        while let Some(at) = frontier.pop() {
            for c in tree.children(at) {
                seen[c as usize] += 1;
                frontier.push(c);
            }
        }
        seen
    }

    #[test]
    fn flat_root_reaches_everyone_directly() {
        let t = TreeView::build(Topology::Flat, 3, full_mask(8), 8);
        let kids = t.children(3);
        assert_eq!(kids.len(), 7);
        assert!(!kids.contains(&3));
        assert!(t.children(0).is_empty());
    }

    #[test]
    fn binomial_small_cluster_shape() {
        // 8 live nodes rooted at 0: rank = node id.
        let t = TreeView::build(Topology::Binomial, 0, full_mask(8), 8);
        assert_eq!(t.children(0), vec![1, 2, 4]);
        assert_eq!(t.children(1), vec![3, 5]);
        assert_eq!(t.children(2), vec![6]);
        assert_eq!(t.children(3), vec![7]);
        assert!(t.children(7).is_empty());
        assert_eq!(t.depth(), 3);
        assert_eq!(t.parent(7), Some(3));
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn chain_is_a_pipeline() {
        let t = TreeView::build(Topology::Chain, 2, full_mask(4), 4);
        assert_eq!(t.children(2), vec![3]);
        assert_eq!(t.children(3), vec![0]);
        assert_eq!(t.children(0), vec![1]);
        assert!(t.children(1).is_empty());
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn every_topology_covers_every_live_node_once() {
        let mask = 0b1011_0110_1101u128; // holes everywhere
        for topo in [Topology::Flat, Topology::Binomial, Topology::Chain] {
            for origin in 0..12u16 {
                if mask & (1 << origin) == 0 {
                    continue;
                }
                let t = TreeView::build(topo, origin, mask, 12);
                let seen = coverage(&t, 12);
                for (i, &n) in seen.iter().enumerate() {
                    let want = u32::from(mask & (1 << i) != 0);
                    assert_eq!(n, want, "{topo:?} origin {origin} node {i}");
                }
            }
        }
    }

    #[test]
    fn dead_origin_still_yields_one_consistent_tree() {
        // Node 5 crashed mid-broadcast: survivors relaying a message with
        // origin 5 must still agree on one tree. In that tree every live
        // node has exactly one live parent, except the rotation-point
        // node (rank 0, here node 6) whose parent was the dead origin.
        let mask = full_mask(16) & !(1 << 5);
        let t = TreeView::build(Topology::Binomial, 5, mask, 16);
        assert_eq!(t.members().len(), 15);
        assert!(t.children(5).is_empty(), "dead nodes relay nothing");
        let mut in_edges = [0u32; 16];
        for &node in t.members() {
            for c in t.children(node) {
                in_edges[c as usize] += 1;
            }
        }
        for &node in t.members() {
            let want = u32::from(node != 6);
            assert_eq!(in_edges[node as usize], want, "node {node}");
            if node == 6 {
                assert_eq!(t.parent(node), None);
            } else {
                let p = t.parent(node).expect("live parent");
                assert!(t.children(p).contains(&node));
            }
        }
    }

    #[test]
    fn selection_rule_switches_on_size_and_scale() {
        assert_eq!(select_topology(8, 50), Topology::Flat);
        assert_eq!(select_topology(9, 50), Topology::Binomial);
        assert_eq!(select_topology(64, PIPELINE_MIN_BYTES), Topology::Chain);
        assert_eq!(
            select_topology(64, PIPELINE_MIN_BYTES - 1),
            Topology::Binomial
        );
        assert_eq!(select_topology(2, 1 << 20), Topology::Flat);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
        assert_eq!(ceil_log2(128), 7);
    }

    #[test]
    fn depth_bound_at_all_scales() {
        for m in 2..=128u16 {
            let t = TreeView::build(Topology::Binomial, 0, full_mask(m), m);
            assert!(
                t.depth() <= ceil_log2(m as u32),
                "m={m} depth={} bound={}",
                t.depth(),
                ceil_log2(m as u32)
            );
        }
    }
}

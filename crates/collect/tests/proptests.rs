//! Property tests for the dissemination trees (ISSUE 10 satellite):
//! coverage (every live node exactly once), the binomial depth bound,
//! and re-convergence after crash/rejoin sequences drawn from a seeded
//! `FaultPlan`.

use press_collect::{ceil_log2, sample_peers, DetRng, Topology, TreeView};
use press_sim::FaultPlan;
use proptest::prelude::*;

const TOPOLOGIES: [Topology; 3] = [Topology::Flat, Topology::Binomial, Topology::Chain];

/// BFS the tree from `origin` through `children()`, counting visits.
fn visits(tree: &TreeView, nodes: u16, origin: u16) -> Vec<u32> {
    let mut seen = vec![0u32; nodes as usize];
    if tree.members().contains(&origin) {
        seen[origin as usize] = 1;
    }
    let mut frontier = vec![origin];
    while let Some(at) = frontier.pop() {
        for c in tree.children(at) {
            seen[c as usize] += 1;
            frontier.push(c);
        }
    }
    seen
}

proptest! {
    /// Every live node is reached exactly once, dead nodes never, for
    /// every topology, arbitrary live mask and any live origin.
    #[test]
    fn every_live_node_reached_exactly_once(
        nodes in 2u16..=128,
        mask_seed in 0u64..u64::MAX,
        origin_pick in 0u16..u16::MAX,
    ) {
        let mut rng = DetRng::new(mask_seed);
        let mut mask = 0u128;
        for i in 0..nodes {
            if !rng.next_u64().is_multiple_of(4) {
                mask |= 1 << i; // ~75% live
            }
        }
        let live: Vec<u16> = (0..nodes).filter(|&i| mask & (1 << i) != 0).collect();
        prop_assume!(!live.is_empty());
        let origin = live[(origin_pick as usize) % live.len()];
        for topo in TOPOLOGIES {
            let tree = TreeView::build(topo, origin, mask, nodes);
            let seen = visits(&tree, nodes, origin);
            for (i, &n) in seen.iter().enumerate() {
                let want = u32::from(mask & (1 << i) != 0);
                prop_assert!(
                    n == want,
                    "{:?} nodes={} origin={} node {}: visited {} times",
                    topo, nodes, origin, i, n
                );
            }
        }
    }

    /// The binomial tree's depth never exceeds ⌈log₂ m⌉ over m live
    /// nodes, whatever the mask looks like.
    #[test]
    fn binomial_depth_is_logarithmic(nodes in 2u16..=128, mask_seed in 0u64..u64::MAX) {
        let mut rng = DetRng::new(mask_seed);
        let mut mask = 0u128;
        for i in 0..nodes {
            if !rng.next_u64().is_multiple_of(3) {
                mask |= 1 << i;
            }
        }
        let live: Vec<u16> = (0..nodes).filter(|&i| mask & (1 << i) != 0).collect();
        prop_assume!(!live.is_empty());
        let tree = TreeView::build(Topology::Binomial, live[0], mask, nodes);
        prop_assert!(
            tree.depth() <= ceil_log2(live.len() as u32),
            "depth {} over {} live nodes (bound {})",
            tree.depth(), live.len(), ceil_log2(live.len() as u32)
        );
    }

    /// Trees re-converge after any crash/rejoin sequence drawn from a
    /// seeded `FaultPlan`: after every membership transition, two
    /// independently built views agree exactly, and coverage plus the
    /// depth bound hold over the survivors.
    #[test]
    fn reconverges_under_fault_plan(
        seed in 0u64..u64::MAX,
        nodes in 4u16..=64,
        crashes in proptest::collection::vec((0u64..6, 0u64..64, prop::bool::ANY), 1..6),
    ) {
        let mut plan = FaultPlan::crashes_only(seed, Vec::new());
        for &(node_pick, after, recovers) in &crashes {
            let node = (node_pick % nodes as u64) as u16;
            plan = plan.with_crash(node, after, recovers.then_some(after + 50));
        }
        let mut mask: u128 = (1u128 << nodes) - 1;
        for (_, node, alive) in plan.schedule() {
            if alive {
                mask |= 1 << node;
            } else {
                mask &= !(1 << node);
            }
            let live: Vec<u16> = (0..nodes).filter(|&i| mask & (1 << i) != 0).collect();
            if live.is_empty() {
                continue;
            }
            let origin = live[0];
            for topo in TOPOLOGIES {
                // Re-convergence: reconstruction is deterministic in the
                // mask, so two nodes that observed the same epoch agree.
                let a = TreeView::build(topo, origin, mask, nodes);
                let b = TreeView::build(topo, origin, mask, nodes);
                prop_assert_eq!(&a, &b);
                let seen = visits(&a, nodes, origin);
                for (i, &n) in seen.iter().enumerate() {
                    prop_assert_eq!(n, u32::from(mask & (1 << i) != 0));
                }
            }
            let bin = TreeView::build(Topology::Binomial, origin, mask, nodes);
            prop_assert!(bin.depth() <= ceil_log2(live.len() as u32));
        }
    }

    /// The sparse sampler returns distinct live peers and never the
    /// sampling node itself.
    #[test]
    fn sampler_is_well_formed(seed in 0u64..u64::MAX, nodes in 2u16..=128, k in 1usize..8) {
        let mut rng = DetRng::new(seed);
        let mut mask = 0u128;
        for i in 0..nodes {
            if rng.next_u64().is_multiple_of(2) {
                mask |= 1 << i;
            }
        }
        let me = (rng.next_u64() % nodes as u64) as u16;
        let live_others = (0..nodes)
            .filter(|&i| i != me && mask & (1 << i) != 0)
            .count();
        let s = sample_peers(&mut rng, me, mask, nodes, k);
        prop_assert_eq!(s.len(), k.min(live_others));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert!(sorted.len() == s.len(), "duplicates in {:?}", s);
        for &p in &s {
            prop_assert!(p != me && mask & (1 << p) != 0);
        }
    }
}

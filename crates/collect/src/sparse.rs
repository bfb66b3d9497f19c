//! Sparse peer sampling for load balancing.
//!
//! Mendelson & Kuang ("Load Balancing Using Sparse Communication") show
//! that balancing on a *sample* of the cluster — two random choices per
//! decision, or threshold-triggered pulls from a bounded fan-out —
//! matches full-information balancing at a fraction of the message
//! cost. Both need the same primitive: `k` distinct live peers drawn
//! deterministically from a seeded stream.

use crate::det::DetRng;

/// Draws up to `k` distinct live peers (node ids `0..nodes`, excluding
/// `me` and dead nodes) via a partial Fisher–Yates shuffle over the
/// candidate list. Returns fewer than `k` when fewer candidates exist;
/// the draw order is the sample order (first element = first choice).
pub fn sample_peers(rng: &mut DetRng, me: u16, live_mask: u128, nodes: u16, k: usize) -> Vec<u16> {
    let mut candidates: Vec<u16> = (0..nodes)
        .filter(|&i| i != me && live_mask & (1 << i) != 0)
        .collect();
    let take = k.min(candidates.len());
    for i in 0..take {
        let j = i + rng.gen_range((candidates.len() - i) as u64) as usize;
        candidates.swap(i, j);
    }
    candidates.truncate(take);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_distinct_live_and_never_me() {
        let mut rng = DetRng::new(3);
        let mask = 0b1111_0111u128; // node 3 dead
        for _ in 0..200 {
            let s = sample_peers(&mut rng, 2, mask, 8, 3);
            assert_eq!(s.len(), 3);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "distinct: {s:?}");
            assert!(!s.contains(&2), "never me: {s:?}");
            assert!(!s.contains(&3), "never dead: {s:?}");
        }
    }

    #[test]
    fn short_candidate_lists_are_returned_whole() {
        let mut rng = DetRng::new(1);
        let s = sample_peers(&mut rng, 0, 0b111, 3, 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
        assert!(sample_peers(&mut rng, 0, 0b001, 3, 2).is_empty());
    }

    #[test]
    fn deterministic_per_seed_and_spread_across_draws() {
        let draw = |seed: u64| {
            let mut rng = DetRng::new(seed);
            (0..50)
                .map(|_| sample_peers(&mut rng, 0, u128::MAX >> (128 - 64), 64, 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        // Across many draws the sample must not fixate on a few peers.
        let mut hit = [false; 64];
        let mut rng = DetRng::new(11);
        for _ in 0..2_000 {
            for p in sample_peers(&mut rng, 0, u128::MAX >> (128 - 64), 64, 2) {
                hit[p as usize] = true;
            }
        }
        assert!(hit[1..].iter().all(|&h| h), "all peers eventually sampled");
    }
}

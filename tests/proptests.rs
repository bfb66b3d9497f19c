//! Property-based tests over the core data structures and invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use press::cluster::{FileCache, NodeId};
use press::core::policy::{divert, view_load};
use press::core::{decide, Decision, PolicyConfig, RequestView};
use press::net::{wire_bytes, DeliveryMode, MessageType};
use press::sim::{Model, Resource, Scheduler, SimTime, Simulator};
use press::trace::{zipf_mass, FileId};

// ---------- engine ----------

struct Recorder {
    fired: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
        self.fired.push((now.as_nanos(), ev));
    }
}

proptest! {
    #[test]
    fn engine_fires_in_time_then_insertion_order(
        times in vec(0u64..1_000_000, 1..200)
    ) {
        let mut sim = Simulator::new(Recorder { fired: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler_mut().schedule(SimTime::from_nanos(t), i as u32);
        }
        sim.run();
        let fired = &sim.model().fired;
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            let (t0, id0) = w[0];
            let (t1, id1) = w[1];
            prop_assert!(t0 <= t1);
            if t0 == t1 {
                // Same instant: insertion order (= event id order here).
                prop_assert!(id0 < id1);
            }
        }
    }

    #[test]
    fn resource_completions_are_fifo_and_busy_adds_up(
        jobs in vec((0u64..10_000, 1u64..5_000), 1..100)
    ) {
        let mut r = Resource::new("x", 1);
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let mut last_done = SimTime::ZERO;
        let mut total = 0u64;
        for &(at, demand) in &sorted {
            let done = r.submit(
                SimTime::from_nanos(at),
                SimTime::from_nanos(demand),
                0,
            );
            prop_assert!(done >= last_done, "FIFO completion order");
            prop_assert!(done.as_nanos() >= at + demand);
            last_done = done;
            total += demand;
        }
        prop_assert_eq!(r.stats().busy.as_nanos(), total);
        prop_assert_eq!(r.stats().jobs, sorted.len() as u64);
    }
}

// ---------- cache ----------

proptest! {
    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 100u64..10_000,
        ops in vec((0u32..200, 1u64..2_000, prop::bool::ANY), 1..300)
    ) {
        let mut cache = FileCache::new(capacity);
        for &(id, size, is_insert) in &ops {
            if is_insert {
                cache.insert(FileId(id), size);
            } else {
                cache.touch(FileId(id));
            }
            prop_assert!(cache.used_bytes() <= capacity);
            // The recency list agrees with the byte accounting.
            let listed: u64 = cache.iter().map(|(_, b)| b).sum();
            prop_assert_eq!(listed, cache.used_bytes());
            let count = cache.iter().count();
            prop_assert_eq!(count, cache.len());
        }
    }

    #[test]
    fn cache_insert_then_touch_hits(
        ids in vec(0u32..50, 1..60),
        capacity in 5_000u64..50_000
    ) {
        let mut cache = FileCache::new(capacity);
        for &id in &ids {
            cache.insert(FileId(id), 64);
            // Just inserted (tiny size, generous capacity): must hit.
            prop_assert!(cache.touch(FileId(id)));
        }
    }
}

// ---------- zipf ----------

proptest! {
    #[test]
    fn zipf_mass_is_a_cdf(f in 1usize..5_000, alpha in 0.0f64..1.5) {
        let full = zipf_mass(f, f, alpha);
        prop_assert!((full - 1.0).abs() < 1e-9);
        let mut prev = 0.0;
        for n in [f / 7, f / 3, f / 2, f] {
            let m = zipf_mass(n, f, alpha);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&m));
            prop_assert!(m >= prev - 1e-12);
            prev = m;
        }
    }

    #[test]
    fn zipf_head_is_heavier_than_uniform(f in 10usize..5_000, alpha in 0.1f64..1.2) {
        // The n most popular files always hold at least their uniform
        // share n/f of the mass (probabilities are non-increasing).
        let n = (f / 10).max(1);
        let head = zipf_mass(n, f, alpha);
        let uniform = n as f64 / f as f64;
        prop_assert!(
            head >= uniform - 1e-9,
            "head {head} under uniform share {uniform}"
        );
    }
}

// ---------- policy ----------

proptest! {
    #[test]
    fn decision_is_always_valid(
        initial in 0u16..8,
        file_bytes in 1u64..2_000_000,
        cached_locally in prop::bool::ANY,
        first in prop::bool::ANY,
        cacher_bits in 0u8..=255,
        loads in vec(0u32..200, 8),
        lb in prop::bool::ANY,
    ) {
        let cfg = PolicyConfig::default();
        let view = RequestView {
            initial: NodeId(initial),
            file_bytes,
            cached_locally,
            first_request: first,
            cachers: u128::from(cacher_bits),
            loads: &loads,
            load_balancing: lb,
        };
        match decide(&cfg, &view) {
            Decision::ServeLocal => {}
            Decision::Forward(target) => {
                // Never forwards to itself, only to believed cachers,
                // never for large files or first requests.
                prop_assert_ne!(target, NodeId(initial));
                prop_assert!(cacher_bits & (1 << target.0) != 0);
                prop_assert!(file_bytes < cfg.large_file_cutoff);
                prop_assert!(!first && !cached_locally);
            }
        }
    }

    #[test]
    fn balanced_policy_prefers_lightest_cacher(
        loads in vec(0u32..=80, 8),
    ) {
        // All remote nodes cache the file, nobody is overloaded: the
        // decision must be the least-loaded node (lowest id on ties).
        let cfg = PolicyConfig::default();
        let view = RequestView {
            initial: NodeId(0),
            file_bytes: 1_000,
            cached_locally: false,
            first_request: false,
            cachers: 0b1111_1110,
            loads: &loads,
            load_balancing: true,
        };
        let best = (1..8u16)
            .min_by_key(|&i| (loads[i as usize], i))
            .map(NodeId)
            .expect("cachers");
        prop_assert_eq!(decide(&cfg, &view), Decision::Forward(best));
    }

    #[test]
    fn diversion_picks_least_loaded_admissible_cacher(
        initial in 0u16..8,
        target in 0u16..8,
        cacher_bits in 0u8..=255,
        refused_bits in 0u8..=255,
        loads in vec(0u32..200, 8),
    ) {
        let admits = |n: u16| refused_bits & (1 << n) == 0;
        let (d, diverted) = divert(
            Decision::Forward(NodeId(target)),
            NodeId(initial),
            u128::from(cacher_bits),
            view_load(&loads),
            admits,
        );
        prop_assert_eq!(diverted, !admits(target));
        if !diverted {
            prop_assert_eq!(d, Decision::Forward(NodeId(target)));
            return Ok(());
        }
        let eligible: Vec<u16> = (0..8u16)
            .filter(|&n| cacher_bits & (1 << n) != 0 && n != initial && admits(n))
            .collect();
        match d {
            Decision::Forward(n) => {
                prop_assert!(eligible.contains(&n.0));
                // Least-loaded, ties to the lowest id.
                for &m in &eligible {
                    prop_assert!((loads[n.0 as usize], n.0) <= (loads[m as usize], m));
                }
            }
            Decision::ServeLocal => prop_assert!(eligible.is_empty()),
        }
    }
}

// ---------- wire encoding ----------

proptest! {
    #[test]
    fn wire_bytes_invariants(data_len in 0u64..64_000) {
        for ty in MessageType::ALL {
            for pb in [false, true] {
                let reg = wire_bytes(ty, data_len, DeliveryMode::Regular, pb);
                let rmw = wire_bytes(ty, data_len, DeliveryMode::Rmw, pb);
                // Every message carries at least its payload.
                prop_assert!(reg >= ty.payload_bytes(data_len));
                // RMW framing never exceeds regular framing.
                prop_assert!(rmw <= reg);
                // Piggy-backing only ever adds bytes to regular messages.
                let reg_nopb = wire_bytes(ty, data_len, DeliveryMode::Regular, false);
                prop_assert!(reg >= reg_nopb);
            }
        }
    }
}

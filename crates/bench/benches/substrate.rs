//! Criterion micro-benchmarks of the substrate hot paths: the event
//! engine, the LRU cache, Zipf sampling, the distribution policy, the
//! software VIA fabric, the analytical model, and a small end-to-end
//! simulation per protocol combination.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use press_cluster::{FileCache, NodeId};
use press_core::{decide, run_simulation, Decision, PolicyConfig, RequestView, SimConfig};
use press_model::{throughput, ModelParams};
use press_net::ProtocolCombo;
use press_sim::{Model, Scheduler, SimTime, Simulator};
use press_trace::{FileId, ZipfSampler};
use press_via::{Descriptor, Fabric, Reliability, RemoteBuffer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trivial model that reschedules itself N times.
struct Ticker {
    remaining: u64,
}

impl Model for Ticker {
    type Event = ();
    fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule(now + SimTime::from_nanos(10), ());
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("sim_engine_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(Ticker { remaining: 100_000 });
            sim.scheduler_mut().schedule(SimTime::ZERO, ());
            sim.run();
            assert_eq!(sim.processed(), 100_001);
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("lru_cache_churn_10k", |b| {
        b.iter(|| {
            let mut cache = FileCache::new(1 << 20);
            for i in 0..10_000u32 {
                cache.insert(FileId(i % 2_000), 997);
                cache.touch(FileId((i * 7) % 2_000));
            }
            cache.len()
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let sampler = ZipfSampler::new(30_000, 0.8);
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("zipf_sample", |b| b.iter(|| sampler.sample(&mut rng)));
}

fn bench_policy(c: &mut Criterion) {
    let cfg = PolicyConfig::default();
    let loads: Vec<u32> = (0..8).map(|i| (i * 13) % 90).collect();
    c.bench_function("policy_decide", |b| {
        b.iter(|| {
            let d = decide(
                &cfg,
                &RequestView {
                    initial: NodeId(0),
                    file_bytes: 10_000,
                    cached_locally: false,
                    first_request: false,
                    cachers: 0b1111_1110,
                    loads: &loads,
                    load_balancing: true,
                },
            );
            assert!(matches!(d, Decision::Forward(_) | Decision::ServeLocal));
        })
    });
}

fn bench_via(c: &mut Criterion) {
    let fabric = Fabric::new();
    let a = fabric.create_nic("a");
    let b = fabric.create_nic("b");
    let ma = a.register(vec![1u8; 4096], false).expect("register");
    let mb = b.register(vec![0u8; 4096], true).expect("register");
    let (vi, peer) = fabric
        .connect(&a, &b, Reliability::ReliableDelivery)
        .expect("connect");
    c.bench_function("via_send_recv_4k", |bch| {
        bch.iter(|| {
            peer.post_recv(Descriptor::new(mb, 0, 4096))
                .expect("post recv");
            vi.post_send(Descriptor::new(ma, 0, 4096)).expect("send");
            vi.wait_send_completion(Duration::from_secs(5))
                .expect("completion")
                .status
                .expect("ok");
            let got = peer
                .wait_recv_completion(Duration::from_secs(5))
                .expect("recv");
            assert_eq!(got.transferred, 4096);
        })
    });

    c.bench_function("via_rdma_write_4k", |bch| {
        bch.iter(|| {
            vi.rdma_write(
                Descriptor::new(ma, 0, 4096),
                RemoteBuffer {
                    region: mb,
                    offset: 0,
                },
            )
            .expect("post");
            vi.wait_send_completion(Duration::from_secs(5))
                .expect("completion")
                .status
                .expect("ok");
        })
    });
}

fn bench_model(c: &mut Criterion) {
    c.bench_function("model_throughput", |b| {
        b.iter(|| throughput(&ModelParams::default_at(0.9, 8)).total_rps)
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_sim_quick_demo");
    group.sample_size(10);
    for combo in ProtocolCombo::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(combo.name()),
            &combo,
            |b, &combo| {
                b.iter(|| {
                    let mut cfg = SimConfig::quick_demo();
                    cfg.combo = combo;
                    run_simulation(&cfg).throughput_rps
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_cache,
    bench_zipf,
    bench_policy,
    bench_via,
    bench_model,
    bench_end_to_end
);
criterion_main!(benches);

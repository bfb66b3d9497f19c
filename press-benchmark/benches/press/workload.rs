//! The four workloads and what one run of each measures.

use crate::layers;
use crate::live::{self, LiveSpec};
use crate::report::Report;
use crate::sim::{self, SimSpec};

/// Which engine a workload drives, and how.
pub enum Engine {
    Sim(&'static SimSpec),
    Live(&'static LiveSpec),
}

/// Every workload, in run order.
pub const WORKLOADS: [(&str, Engine); 4] = [
    ("sim-paper8", Engine::Sim(&sim::PAPER8)),
    ("sim-tree64", Engine::Sim(&sim::TREE64)),
    ("live-v0", Engine::Live(&live::V0)),
    ("live-v6", Engine::Live(&live::V6)),
];

/// Runs workload `name` for about `seconds` seconds: the end-to-end
/// metrics untraced, or with `trace` the per-layer metrics (engine
/// counters, one traced run, and the layer microbenchmarks). `None` for
/// an unknown workload.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    let (name, engine) = WORKLOADS.iter().find(|(w, _)| *w == name)?;
    let mut r = Report::new(name);
    if !trace {
        match engine {
            Engine::Sim(s) => sim::end_to_end(s, seed, seconds, &mut r),
            Engine::Live(l) => live::end_to_end(l, seed, seconds, &mut r),
        }
        return Some(r);
    }
    let (events, overhead_pct) = match engine {
        Engine::Sim(s) => sim::per_layer(s, seed, seconds, &mut r),
        Engine::Live(l) => live::per_layer(l, seed, seconds, &mut r),
    };
    layers::trace_metrics(&events, overhead_pct, &mut r);
    layers::microbenchmarks(seconds, &mut r);
    Some(r)
}

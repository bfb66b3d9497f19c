//! Runs every workload at `--smoke` scale, end to end and per layer, and
//! checks that each run passes its correctness checks and reports exactly
//! the metrics `BENCHMARK.json` declares, each with its declared unit.

// The harness modules are shared with the bench target; this test uses
// only part of them.
#![allow(dead_code)]

#[path = "../benches/press/compare.rs"]
mod compare;
#[path = "../benches/press/layers.rs"]
mod layers;
#[path = "../benches/press/live.rs"]
mod live;
#[path = "../benches/press/report.rs"]
mod report;
#[path = "../benches/press/sim.rs"]
mod sim;
#[path = "../benches/press/workload.rs"]
mod workload;

use press_telem::Json;

/// `--smoke` measures one second per run.
const SMOKE_SECONDS: f64 = 1.0;

#[test]
fn every_workload_reports_every_declared_metric() {
    let (end_to_end, per_layer) = compare::declared_metrics().expect("read BENCHMARK.json");
    for (name, _) in workload::WORKLOADS {
        for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let r = workload::run(name, 7, SMOKE_SECONDS, trace).expect("a known workload");
            let failing: Vec<&String> = r.checks.iter().filter(|c| !c.1).map(|c| &c.0).collect();
            assert!(
                r.correct(),
                "{name} trace {trace}: failing checks {failing:?}, {} of {} failed",
                r.failed,
                r.attempted
            );

            let mut printed: Vec<(&str, &str)> = r
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let mut want: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            printed.sort_unstable();
            want.sort_unstable();
            assert_eq!(printed, want, "{name} trace {trace}");

            let line = Json::parse(&r.json_line()).expect("the result line is JSON");
            let metrics = line
                .as_object()
                .and_then(|o| o.get("metrics"))
                .and_then(Json::as_object)
                .expect("a metrics object");
            assert_eq!(metrics.len(), want.len(), "{name} trace {trace}");
            for (metric, unit) in want {
                let m = metrics[metric].as_object().expect("metric object");
                assert_eq!(m["unit"].as_str(), Some(unit), "{name} {metric}");
                assert!(m["value"].as_f64().is_some(), "{name} {metric}");
            }
        }
    }
}

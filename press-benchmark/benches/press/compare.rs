//! `compare A.json[:SET] B.json[:SET]`: medians, quartiles and a verdict
//! per (workload, metric) between two results files written by `run
//! --out`, judged against the bounds in `BENCHMARK.json`. Results from
//! hosts with different `nproc` are never compared.

use std::collections::BTreeMap;
use std::process::ExitCode;

use press_telem::Json;

use crate::report::quartiles;

/// `BENCHMARK.json`, found from the package at build time.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only: whether higher is better, and the share
    /// of the baseline median by which it may worsen.
    pub gate: Option<(bool, f64)>,
}

/// The end-to-end and per-layer metric declarations of `BENCHMARK.json`.
pub fn declared_metrics() -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let doc = Json::parse(&text)?;
    let list = |key: &str, gated: bool| -> Result<Vec<MetricSpec>, String> {
        let items = doc
            .as_object()
            .and_then(|o| o.get(key))
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let m = m.as_object().ok_or("metric entry is not an object")?;
                let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                let gate = if gated {
                    let bound = m.get("bound").and_then(Json::as_f64);
                    let higher = text("better").map(|b| b == "higher");
                    Some(
                        higher
                            .zip(bound)
                            .ok_or("end-to-end metric without better/bound")?,
                    )
                } else {
                    None
                };
                Ok(MetricSpec {
                    name: text("name").ok_or("metric without a name")?,
                    unit: text("unit").ok_or("metric without a unit")?,
                    gate,
                })
            })
            .collect()
    };
    Ok((list("end_to_end", true)?, list("per_layer", false)?))
}

/// A results file, narrowed to one set when the path ends in `:SET`.
struct Side {
    label: String,
    nproc: f64,
    /// (workload, metric) → values.
    values: BTreeMap<(String, String), Vec<f64>>,
}

fn load(arg: &str) -> Result<Side, String> {
    let (path, set) = match arg.rsplit_once(':') {
        Some((p, s)) if s.parse::<usize>().is_ok() => (p, s.parse::<usize>().ok()),
        _ => (arg, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let top = doc.as_object().ok_or(format!("{path}: not an object"))?;
    let nproc = top
        .get("nproc")
        .and_then(Json::as_f64)
        .ok_or(format!("{path}: no nproc"))?;
    let sets = top
        .get("sets")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no sets"))?;
    let chosen: Vec<&Json> = match set {
        Some(i) => vec![sets
            .get(i)
            .ok_or(format!("{path}: has {} sets, no set {i}", sets.len()))?],
        None => sets.iter().collect(),
    };
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in chosen
        .iter()
        .filter_map(|s| s.as_object()?.get("runs")?.as_array())
        .flatten()
    {
        let Some(run) = run.as_object() else { continue };
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(metrics) = run
            .get("result")
            .and_then(Json::as_object)
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m
                .as_object()
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
            {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(Side {
        label: arg.to_string(),
        nproc,
        values,
    })
}

/// Prints the comparison table; exits 1 if any end-to-end metric
/// regressed beyond its bound, 2 on unusable input.
pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: press compare A.json[:SET] B.json[:SET]");
        return ExitCode::from(2);
    };
    let sides = load(a).and_then(|a| Ok((a, load(b)?)));
    let specs = declared_metrics();
    let ((a, b), (e2e, layer)) = match (sides, specs) {
        (Ok(s), Ok(m)) => (s, m),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("press-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    if a.nproc != b.nproc {
        eprintln!(
            "press-benchmark compare: {} has nproc {} but {} has nproc {}; \
             results from different core counts are not comparable",
            a.label, a.nproc, b.label, b.nproc
        );
        return ExitCode::from(2);
    }
    println!("A = {}\nB = {}\nnproc = {}", a.label, b.label, a.nproc);
    println!(
        "{:<11} {:<30} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut regressions = 0;
    for ((workload, name), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (qa, qb) = (quartiles(va), quartiles(vb));
        let change = if qa.1 == 0.0 {
            0.0
        } else {
            (qb.1 - qa.1) / qa.1.abs()
        };
        let Some(spec) = e2e.iter().chain(&layer).find(|m| &m.name == name) else {
            continue;
        };
        let (bound, verdict) = match spec.gate {
            Some((higher, bound)) => {
                let worse = if higher { -change } else { change };
                let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs().max(f64::MIN_POSITIVE);
                let v = if spread(qa) > bound || spread(qb) > bound {
                    "unresolved (spread exceeds bound)"
                } else if worse > bound {
                    regressions += 1;
                    "REGRESSED"
                } else if -worse > bound {
                    "better"
                } else {
                    "within bound"
                };
                (format!("{:.0}%", bound * 100.0), v)
            }
            None => {
                let same = {
                    let (mut x, mut y) = (va.clone(), vb.clone());
                    x.sort_by(f64::total_cmp);
                    y.sort_by(f64::total_cmp);
                    x == y
                };
                ("-".to_string(), if same { "identical" } else { "moved" })
            }
        };
        let fmt = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
        println!(
            "{workload:<11} {:<30} {:>32} {:>32} {:>7.2}% {bound:>6}  {verdict}",
            format!("{name} ({})", spec.unit),
            fmt(qa),
            fmt(qb),
            change * 100.0
        );
    }
    if regressions > 0 {
        println!("{regressions} end-to-end regression(s) beyond their bounds");
        ExitCode::FAILURE
    } else {
        println!("no end-to-end metric worse than its bound");
        ExitCode::SUCCESS
    }
}

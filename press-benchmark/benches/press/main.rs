//! press-benchmark: one command that measures the PRESS simulator and
//! the live cluster, end to end and layer by layer. See `README.md` for
//! the workloads, the metrics and how to read them.
//!
//! ```text
//! press --workload NAME [--seed N] [--seconds S | --smoke] [--trace 0|1]
//! press run [--seed N] [--seconds S | --smoke] [--runs R] [--sets K] [--out FILE]
//! press compare A.json[:SET] B.json[:SET]
//! ```
//!
//! Cargo appends `--bench` when it launches a bench target; it is ignored.

mod compare;
mod layers;
mod live;
mod report;
mod sim;
mod workload;

use std::process::{Command, ExitCode};

use press_telem::Json;

use workload::WORKLOADS;

/// The default seed (0xC0FFEE, the simulator's own default).
const DEFAULT_SEED: u64 = 12_648_430;
/// Measured seconds of one run unless `--seconds` or `--smoke` says
/// otherwise.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` scales every duration and request count by this factor.
const SMOKE_SCALE: f64 = 1.0 / 20.0;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    sets: u64,
    out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            runs: 1,
            sets: 1,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                o.seconds = DEFAULT_SECONDS * SMOKE_SCALE;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => o.workload = Some(value.clone()),
                "--seed" => o.seed = number()?,
                "--seconds" => {
                    o.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("--seconds: expected 0 < S <= 600, got {value}"))?
                }
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                    }
                }
                "--runs" => o.runs = number()?.max(1),
                "--sets" => o.sets = number()?.max(1),
                "--out" => o.out = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(o)
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("press-benchmark: {err}");
    eprintln!(
        "usage: press --workload NAME [--seed N] [--seconds S | --smoke] [--trace 0|1]\n       \
         press run [--seed N] [--seconds S | --smoke] [--runs R] [--sets K] [--out FILE]\n       \
         press compare A.json[:SET] B.json[:SET]\n\
         workloads: {}",
        WORKLOADS.map(|(w, _)| w).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => match Opts::parse(&args[1..]) {
            Ok(o) if o.workload.is_none() => run_all(&o),
            Ok(_) => usage("run measures every workload; drop --workload"),
            Err(e) => usage(&e),
        },
        _ => match Opts::parse(&args) {
            Ok(o) => one_workload(&o),
            Err(e) => usage(&e),
        },
    }
}

/// Measures one workload in this process and prints its result line.
fn one_workload(o: &Opts) -> ExitCode {
    let Some(name) = o.workload.as_deref() else {
        return usage("--workload NAME or a subcommand is required");
    };
    println!(
        "workload {name} seed {} seconds {} trace {}",
        o.seed, o.seconds, o.trace as u8
    );
    let Some(report) = workload::run(name, o.seed, o.seconds, o.trace) else {
        return usage(&format!("unknown workload {name}"));
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's identity and result line.
struct ChildRun {
    workload: &'static str,
    seed: u64,
    trace: bool,
    result: Option<String>,
}

/// Runs one workload in a fresh child process (this executable,
/// re-executed with `--workload`), echoes its output, and keeps its
/// result line if it exited cleanly with a parseable result.
fn child(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of the running executable");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output();
    let result = match output {
        Ok(out) => {
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = text.lines().last().unwrap_or("").to_string();
            (out.status.success() && Json::parse(&last).is_ok()).then_some(last)
        }
        Err(e) => {
            eprintln!("press-benchmark: cannot start {workload}: {e}");
            None
        }
    };
    ChildRun {
        workload,
        seed,
        trace,
        result,
    }
}

/// Runs every workload, each in a fresh process: `runs` untraced runs
/// with seeds `seed..seed+runs`, then one traced run with `seed`,
/// repeated for `sets` sets. Prints a summary and optionally writes all
/// result lines to `--out`.
fn run_all(o: &Opts) -> ExitCode {
    let mut sets: Vec<Vec<ChildRun>> = Vec::new();
    for _ in 0..o.sets {
        let mut set = Vec::new();
        for r in 0..o.runs {
            for (w, _) in WORKLOADS {
                set.push(child(w, o.seed + r, o.seconds, false));
            }
        }
        for (w, _) in WORKLOADS {
            set.push(child(w, o.seed, o.seconds, true));
        }
        sets.push(set);
    }
    let failed: Vec<String> = sets
        .iter()
        .flatten()
        .filter(|c| {
            c.result
                .as_deref()
                .and_then(|l| Json::parse(l).ok())
                .and_then(|j| j.as_object().and_then(|m| m.get("correct").cloned()))
                != Some(Json::Bool(true))
        })
        .map(|c| format!("{} seed {} trace {}", c.workload, c.seed, c.trace as u8))
        .collect();
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, results_json(o, &sets)) {
            eprintln!("press-benchmark: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if failed.is_empty() {
        println!(
            "all {} runs correct",
            sets.iter().map(Vec::len).sum::<usize>()
        );
        ExitCode::SUCCESS
    } else {
        println!("failed or incorrect runs: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

/// The results file: provenance plus every run's result line, per set.
fn results_json(o: &Opts, sets: &[Vec<ChildRun>]) -> String {
    let sha = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let runs: Vec<String> = set
                .iter()
                .map(|c| {
                    format!(
                        "      {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
                        c.workload,
                        c.seed,
                        c.trace as u8,
                        c.result.as_deref().unwrap_or("null")
                    )
                })
                .collect();
            format!("    {{\"runs\": [\n{}\n    ]}}", runs.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"nproc\": {nproc},\n  \"seconds\": {},\n  \"sets\": [\n{}\n  ]\n}}\n",
        o.seconds,
        sets.join(",\n")
    )
}

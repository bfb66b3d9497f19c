//! PRESS — the portable, cluster-based, locality-conscious WWW server of
//! the paper, reproduced as a calibrated discrete-event simulation.
//!
//! The crate provides:
//!
//! * the **request-distribution policy** of Section 2.2 ([`decide`]):
//!   serve locally vs. forward to the least-loaded caching node, with the
//!   overload threshold `T` and the large-file cutoff;
//! * the **load-dissemination strategies** of Section 3.3
//!   ([`Dissemination`]): piggy-backing, thresholded broadcast, none;
//! * the **server versions V0–V5** of Table 3 ([`ServerVersion`]):
//!   increasing use of VIA remote memory writes and zero-copy;
//! * the **cluster simulation** ([`ClusterSim`], [`run_simulation`])
//!   combining the policy with the calibrated cost models of `press-net`
//!   and the node hardware of `press-cluster`.
//!
//! # Example
//!
//! ```
//! use press_core::{run_simulation, SimConfig, ServerVersion};
//!
//! let mut cfg = SimConfig::quick_demo();
//! cfg.version = ServerVersion::V5;
//! let metrics = run_simulation(&cfg);
//! println!("throughput: {:.0} req/s", metrics.throughput_rps);
//! assert!(metrics.throughput_rps > 0.0);
//! ```

// Any future unsafe fn must scope its unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod batch;
pub mod chaos;
pub mod credit;
mod driver;
mod load;
mod metrics;
mod overload;
pub mod policy;
mod server;
mod version;

pub use batch::{ExperimentRunner, Job, RunResult};
pub use credit::{CreditReturns, CreditWindow};
pub use driver::{run_simulation, run_simulation_traced, SimConfig, WorkloadSource};
pub use load::Dissemination;
pub use metrics::Metrics;
pub use overload::{BreakerConfig, CircuitBreaker, OverloadConfig};
pub use policy::{decide, decide_probed, Decision, PolicyConfig, RequestView};
pub use press_sim::{decorrelated_jitter_micros, CrashWindow, FaultInjector, FaultPlan};
pub use press_trace::{ScenarioOp, ScenarioPlan};
pub use server::{warm_placement, ClusterSim, Event, Msg, SimWorkload};
pub use version::ServerVersion;

//! press-telem — the unified observability layer of the PRESS
//! reproduction: request spans, a labeled metrics registry, and trace
//! export.
//!
//! The paper's argument is built on measuring where time goes (Fig. 1's
//! CPU breakdowns, Tables 2/4's message counts); this crate is the one
//! substrate every other crate records into:
//!
//! * **Spans** ([`TraceEvent`], [`EventKind`]): a request is followed
//!   across nodes through its lifecycle — arrive → dispatch decision →
//!   cache hit or intra-cluster forward → VIA send/RMW/credit wait →
//!   disk → reply. The simulator records into a deterministic
//!   [`TraceBuffer`] stamped with virtual time; the live cluster records
//!   into lock-free [`ThreadRing`]s stamped with monotonic time. In both
//!   engines the disabled path is a single branch, and recording is
//!   purely passive: tracing on/off cannot change results.
//! * **Metrics** ([`Registry`], [`Counter`], [`MeanVar`], [`Histogram`],
//!   [`AtomicCounter`]): the scalar primitives previously scattered
//!   across the sim, net, and server crates, unified behind one set of
//!   types plus a labeled registry for export.
//! * **Exporters** ([`chrome_trace_json`], [`metrics_csv`],
//!   [`metrics_json`], [`utilization_csv`]): Chrome `trace_event` JSON
//!   (loadable in `chrome://tracing`/Perfetto, checkable offline with
//!   [`validate_chrome_json`]), flat metrics dumps, and per-resource
//!   utilization timelines.
//! * **Logging** ([`quiet`], [`progress`]): the single
//!   `PRESS_QUIET`-aware chokepoint for harness chatter.
//!
//! The crate is dependency-free (timestamps are raw `u64` nanoseconds)
//! so every runtime crate — including the leaf simulator — can depend on
//! it.

// Any future unsafe fn must scope its unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]
mod attribute;
mod chrome;
mod export;
mod flight;
mod histogram;
mod log;
mod registry;
mod ring;
mod span;
mod stats;

pub use attribute::{
    attribute_request, attribute_trace, by_request, hot_stages, summarize, AttributionSummary,
    Bucket, RequestAttribution, SpanIndex, BUCKETS, BUCKET_COUNT,
};
pub use chrome::{chrome_trace_json, json_escape, validate_chrome_json, Json, TraceCheck};
pub use export::{metrics_csv, metrics_json, utilization_csv};
pub use flight::{
    labeled_dumps_json, FlightDump, FlightRecorder, FlightTrace, DEFAULT_FLIGHT_KEEP,
    DEFAULT_FLIGHT_SAMPLE,
};
pub use histogram::Histogram;
pub use log::{env_quiet, error, progress, progress_with, quiet};
pub use registry::{MetricRecord, MetricValue, Registry};
pub use ring::{LiveTracer, ThreadRing, TraceHandle, DEFAULT_RING_CAP};
pub use span::{lane, EventKind, Trace, TraceBuffer, TraceEvent, DEFAULT_TRACE_CAP, EVENT_KINDS};
pub use stats::{AtomicCounter, Counter, MeanVar};

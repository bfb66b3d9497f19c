//! A live, threaded PRESS server over the software VIA fabric.
//!
//! While `press-core` reproduces the paper's *measurements* in a
//! calibrated simulation, this crate runs the server's *architecture* for
//! real: every node has
//!
//! * a **main thread** that parses requests, runs the locality-conscious
//!   distribution policy (shared with the simulator via `press-core`),
//!   manages the LRU file cache and tracks forwarded requests. It also
//!   marshals intra-cluster messages into registered buffers and posts
//!   VIA send descriptors within the credit window, and at the end of
//!   every loop pass it drains its own completion queue: it decodes
//!   arrivals, reposts descriptors and returns credits;
//! * a **disk thread** that simulates disk reads (the main thread never
//!   blocks, as in the paper).
//!
//! This departs from Figure 2 of the paper, which gives each node
//! separate send and receive helper threads. The paper's V3+ main thread
//! already polls its receive structures, and on a host with few cores
//! every hand-off between host threads cost more than the message it
//! carried, so both helpers are folded into the main thread. The NIC has
//! no thread either: a post runs its transfer in the posting main thread,
//! which wakes a parked peer through a hook on the peer's completion
//! queue and file rings.
//!
//! Load information travels exclusively through **remote memory writes**
//! into per-node load tables — the mechanism the paper found ideal for
//! overwritable data that needs no immediate attention. Forwards, file
//! transfers and caching broadcasts are credit-controlled regular
//! messages.
//!
//! See [`LiveCluster`] for a complete example.

// Any future unsafe fn must scope its unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]
mod chaos;
mod cluster;
mod membership;
mod node;
mod stats;
mod wire;

pub use chaos::{run_suite_live, LiveChaosConfig};
pub use cluster::{LiveCluster, LiveConfig, LiveError};
pub use membership::Membership;
pub use node::FileTransferMode;
pub use press_core::FaultPlan;
pub use stats::ServerStats;
pub use wire::{file_contents, WireKind, WireMsg};

//! A live, threaded PRESS server over the software VIA fabric.
//!
//! While `press-core` reproduces the paper's *measurements* in a
//! calibrated simulation, this crate runs the server's *architecture* for
//! real: every node runs one host thread, a **main thread** that
//!
//! * parses requests, runs the locality-conscious distribution policy
//!   (shared with the simulator via `press-core`), manages the LRU file
//!   cache and tracks forwarded requests;
//! * marshals intra-cluster messages into registered buffers and posts
//!   VIA send descriptors within the credit window, and at the end of
//!   every loop pass drains its own completion queue: it decodes
//!   arrivals, reposts descriptors and returns credits;
//! * keeps its disk as a timed FIFO queue, the simulator's single-server
//!   disk station: a read completes one service time after it reaches
//!   the head of the queue, and the main loop parks no longer than until
//!   the head read completes (it never blocks, as in the paper).
//!
//! This departs from Figure 2 of the paper, which gives each node
//! separate send, receive and disk helper threads. The paper's V3+ main
//! thread already polls its receive structures, and on a host with few
//! cores every hand-off between host threads cost more than the message
//! it carried, so the send and receive helpers are folded into the main
//! thread. A disk thread would only wait out each read's service time,
//! so the main loop's park timeout does that instead. The NIC has no
//! thread either: a post runs its transfer in the posting main thread,
//! which wakes a parked peer through a hook on the peer's completion
//! queue and file rings. A busy main loop polls its event channel
//! briefly before it parks, so a wake-up that comes soon costs no
//! futex wake.
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

//! A software implementation of the Virtual Interface Architecture (VIA)
//! subset that PRESS depends on.
//!
//! The paper's cluster uses Giganet cLAN hardware VIA. This crate
//! reproduces the *semantics* of that substrate in software, over an
//! in-process fabric, so that the communication patterns of PRESS — and
//! their failure modes — can be exercised for real:
//!
//! * **Virtual Interfaces** ([`Vi`]): connected endpoint pairs with send
//!   and receive work queues (Section 2.1);
//! * **descriptors** ([`Descriptor`]): posted to the queues and marked
//!   complete ([`Completion`]). A send or RDMA post runs its transfer in
//!   the posting thread, as cLAN's NIC runs one when its doorbell rings:
//!   no host thread sits between the post and the peer's completion;
//! * **memory registration** ([`Nic::register`]): every buffer taking
//!   part in a transfer must be registered first;
//! * **remote memory writes** ([`Vi::rdma_write`]): data lands in the
//!   peer's registered region without any receiver involvement — exactly
//!   the primitive versions V1–V5 of PRESS exploit (Giganet supports
//!   remote writes but not remote reads, and neither do we);
//! * **completion queues** ([`CompletionQueue`]): aggregate completions
//!   of multiple VIs;
//! * **reliability levels** ([`Reliability`]): unreliable delivery drops
//!   messages silently (fault injection hooks included); reliable
//!   delivery guarantees in-order exactly-once delivery and surfaces
//!   errors — e.g. sending with no posted receive descriptor.
//!
//! # Example
//!
//! ```
//! use press_via::{Fabric, Descriptor, Reliability};
//!
//! # fn main() -> Result<(), press_via::ViaError> {
//! let fabric = Fabric::new();
//! let nic_a = fabric.create_nic("a");
//! let nic_b = fabric.create_nic("b");
//! let mr_a = nic_a.register(vec![42u8; 1024], false)?;
//! let mr_b = nic_b.register(vec![0u8; 1024], false)?;
//! let (vi_a, vi_b) = fabric.connect(&nic_a, &nic_b, Reliability::ReliableDelivery)?;
//!
//! vi_b.post_recv(Descriptor::new(mr_b, 0, 1024))?;
//! vi_a.post_send(Descriptor::new(mr_a, 0, 512))?;
//!
//! let sent = vi_a.wait_send_completion(std::time::Duration::from_secs(1))?;
//! assert!(sent.is_ok());
//! let recvd = vi_b.wait_recv_completion(std::time::Duration::from_secs(1))?;
//! assert_eq!(recvd.bytes_transferred(), 512);
//! assert_eq!(nic_b.read_region(mr_b, 0, 4)?, vec![42u8; 4]);
//! # Ok(())
//! # }
//! ```

// Any future unsafe fn must scope its unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]
mod descriptor;
mod error;
mod fabric;
mod flow;
mod mem;
mod spsc;

pub use descriptor::{Completion, CompletionKind, Descriptor, SgList, MAX_SEGMENTS};
pub use error::ViaError;
pub use fabric::{CompletionQueue, Fabric, FaultConfig, Nic, Reliability, RemoteBuffer, Vi};
pub use flow::{Doorbell, MAX_DOORBELL};
pub use mem::{MemHandle, SlabPool, SlabSlot};

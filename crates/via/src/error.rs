//! Error type of the software VIA library.

use std::fmt;

/// Errors reported by the VIA library.
///
/// VIA (Section 2.1 of the paper) reports errors through descriptor
/// status and connection state; this enum covers both, plus the
/// library-level misuse cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViaError {
    /// The memory handle is not registered with this NIC.
    UnknownRegion,
    /// Descriptor range falls outside the registered region.
    OutOfBounds,
    /// The VI is not connected (or its peer has gone away).
    NotConnected,
    /// The remote region does not accept remote memory writes.
    RemoteWriteForbidden,
    /// Under reliable delivery: the peer had no receive descriptor posted.
    ReceiverNotReady,
    /// Waited too long for a completion.
    Timeout,
    /// The NIC has been dropped: its VIs take no more posts.
    Shutdown,
    /// Send and receive descriptors disagree (receive buffer too small).
    RecvBufferTooSmall,
    /// A registered-memory slab pool has no free slots.
    PoolExhausted,
    /// The slot handed to [`crate::SlabPool::free`] was already free.
    DoubleFree,
    /// The slot still has an in-flight descriptor and cannot be freed or
    /// reallocated until its completion is reaped.
    SlotInFlight,
    /// A fixed-capacity descriptor ring (receive queue or doorbell batch)
    /// is full; drain completions or flush before posting more.
    RingFull,
}

impl fmt::Display for ViaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ViaError::UnknownRegion => "memory region is not registered",
            ViaError::OutOfBounds => "descriptor exceeds registered region bounds",
            ViaError::NotConnected => "virtual interface is not connected",
            ViaError::RemoteWriteForbidden => "remote region does not allow remote writes",
            ViaError::ReceiverNotReady => "peer had no receive descriptor posted",
            ViaError::Timeout => "timed out waiting for completion",
            ViaError::Shutdown => "nic has shut down",
            ViaError::RecvBufferTooSmall => "receive buffer smaller than incoming message",
            ViaError::PoolExhausted => "slab pool has no free slots",
            ViaError::DoubleFree => "slab slot is already free",
            ViaError::SlotInFlight => "slab slot still has an in-flight descriptor",
            ViaError::RingFull => "descriptor ring is full",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ViaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = [
            ViaError::UnknownRegion,
            ViaError::OutOfBounds,
            ViaError::NotConnected,
            ViaError::RemoteWriteForbidden,
            ViaError::ReceiverNotReady,
            ViaError::Timeout,
            ViaError::Shutdown,
            ViaError::RecvBufferTooSmall,
            ViaError::PoolExhausted,
            ViaError::DoubleFree,
            ViaError::SlotInFlight,
            ViaError::RingFull,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().is_some_and(|c| c.is_lowercase()));
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<ViaError>();
    }
}

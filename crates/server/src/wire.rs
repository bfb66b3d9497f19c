//! The live server's wire protocol: a fixed header plus payload.

use press_trace::FileId;

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 28;

/// Intra-cluster message kinds of the live server. Load information
/// travels exclusively through remote memory writes (the paper's
/// recommendation for overwritable data), so it has no message kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// Request forwarding: "service this file for me" (Section 2.2).
    Forward,
    /// File transfer: one segment of file data back to the initial node.
    FileData,
    /// Caching information broadcast: "I now cache this file".
    Caching,
    /// Flow control: credit return (count in `token`).
    Flow,
}

impl WireKind {
    fn code(self) -> u8 {
        match self {
            WireKind::Forward => 1,
            WireKind::FileData => 2,
            WireKind::Caching => 3,
            WireKind::Flow => 4,
        }
    }

    fn from_code(code: u8) -> Option<WireKind> {
        match code {
            1 => Some(WireKind::Forward),
            2 => Some(WireKind::FileData),
            3 => Some(WireKind::Caching),
            4 => Some(WireKind::Flow),
            _ => None,
        }
    }
}

/// A parsed intra-cluster message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsg {
    /// What the message is.
    pub kind: WireKind,
    /// The file concerned (forward, file data, caching).
    pub file: FileId,
    /// Request token (forward/file data) or credit count (flow).
    pub token: u64,
    /// Sender's load at transmit time (piggy-backed, Section 3.3).
    pub sender_load: u32,
    /// Causal trace context: the sender-side span that produced this
    /// message (with `token`, the compact `(request, parent span)` pair
    /// every inter-node message carries). Zero when tracing is off;
    /// never read by protocol logic, only stitched into trace events.
    pub parent_span: u32,
    /// Payload bytes (file data only).
    pub payload: Vec<u8>,
}

impl WireMsg {
    /// Bytes on the wire: header + payload.
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }

    /// Serializes header + payload into `buf`; returns the total length.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is smaller than header + payload.
    pub fn encode(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        assert!(buf.len() >= total, "message buffer too small");
        buf[0] = self.kind.code();
        buf[1..4].fill(0);
        buf[4..8].copy_from_slice(&self.file.0.to_le_bytes());
        buf[8..16].copy_from_slice(&self.token.to_le_bytes());
        buf[16..20].copy_from_slice(&self.sender_load.to_le_bytes());
        buf[20..24].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        buf[24..28].copy_from_slice(&self.parent_span.to_le_bytes());
        buf[HEADER_BYTES..total].copy_from_slice(&self.payload);
        total
    }

    /// Parses a message from `buf` (as received, length included).
    ///
    /// Returns `None` for malformed messages (unknown kind, truncated
    /// payload) — a robustness requirement on anything that reads the
    /// network.
    pub fn decode(buf: &[u8]) -> Option<WireMsg> {
        if buf.len() < HEADER_BYTES {
            return None;
        }
        let kind = WireKind::from_code(buf[0])?;
        let file = FileId(u32::from_le_bytes(buf[4..8].try_into().ok()?));
        let token = u64::from_le_bytes(buf[8..16].try_into().ok()?);
        let sender_load = u32::from_le_bytes(buf[16..20].try_into().ok()?);
        let len = u32::from_le_bytes(buf[20..24].try_into().ok()?) as usize;
        let parent_span = u32::from_le_bytes(buf[24..28].try_into().ok()?);
        if buf.len() < HEADER_BYTES + len {
            return None;
        }
        Some(WireMsg {
            kind,
            file,
            token,
            sender_load,
            parent_span,
            payload: buf[HEADER_BYTES..HEADER_BYTES + len].to_vec(),
        })
    }
}

/// Trailer bytes at the end of each remote-write ring slot:
/// `len: u32 | token: u64 | parent: u32 | seq: u64` (the sequence number
/// last, as in the paper: "polling is done by looking at message
/// sequence numbers stored at the last position of each buffer entry").
/// `parent` is the sender-side causal span id — the trace context rides
/// the slot the data already occupies, costing no extra wire message.
pub const RING_TRAILER_BYTES: usize = 24;

/// Parses a ring slot's trailer (the last [`RING_TRAILER_BYTES`] of the
/// slot): returns `(len, token, parent, seq)`. The reader polls this
/// fixed per-slot offset, O(1) per check.
pub fn decode_ring_trailer(trailer: &[u8]) -> Option<(usize, u64, u32, u64)> {
    if trailer.len() != RING_TRAILER_BYTES {
        return None;
    }
    let len = u32::from_le_bytes(trailer[0..4].try_into().ok()?) as usize;
    let token = u64::from_le_bytes(trailer[4..12].try_into().ok()?);
    let parent = u32::from_le_bytes(trailer[12..16].try_into().ok()?);
    let seq = u64::from_le_bytes(trailer[16..24].try_into().ok()?);
    Some((len, token, parent, seq))
}

/// Encodes one ring slot of exactly `slot_bytes`: payload at the front,
/// trailer in the last [`RING_TRAILER_BYTES`] — so the reader polls a
/// fixed offset per slot, exactly like PRESS.
///
/// # Panics
///
/// Panics if the payload does not fit the slot.
pub fn encode_ring_slot(
    buf: &mut [u8],
    slot_bytes: usize,
    payload: &[u8],
    token: u64,
    parent: u32,
    seq: u64,
) {
    assert!(buf.len() >= slot_bytes, "staging buffer too small");
    assert!(
        payload.len() + RING_TRAILER_BYTES <= slot_bytes,
        "payload does not fit ring slot"
    );
    buf[..payload.len()].copy_from_slice(payload);
    let t = slot_bytes - RING_TRAILER_BYTES;
    buf[t..t + 4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf[t + 4..t + 12].copy_from_slice(&token.to_le_bytes());
    buf[t + 12..t + 16].copy_from_slice(&parent.to_le_bytes());
    buf[t + 16..t + 24].copy_from_slice(&seq.to_le_bytes());
}

/// Deterministic synthetic contents for a file: the live cluster's "disk"
/// generates data instead of reading real platters, and every consumer
/// can verify transfers byte-for-byte.
pub fn file_contents(file: FileId, len: usize) -> Vec<u8> {
    let mut state = (file.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        for kind in [
            WireKind::Forward,
            WireKind::FileData,
            WireKind::Caching,
            WireKind::Flow,
        ] {
            let msg = WireMsg {
                kind,
                file: FileId(1234),
                token: 0xDEAD_BEEF,
                sender_load: 42,
                parent_span: 0xCAFE_F00D,
                payload: if kind == WireKind::FileData {
                    vec![7; 100]
                } else {
                    Vec::new()
                },
            };
            let mut buf = vec![0u8; 256];
            let n = msg.encode(&mut buf);
            assert_eq!(n, HEADER_BYTES + msg.payload.len());
            let back = WireMsg::decode(&buf[..n]).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WireMsg::decode(&[]).is_none());
        assert!(WireMsg::decode(&[0u8; 10]).is_none());
        let mut buf = vec![0u8; HEADER_BYTES];
        buf[0] = 99; // unknown kind
        assert!(WireMsg::decode(&buf).is_none());
        // Truncated payload: claims 100 bytes, has none.
        let msg = WireMsg {
            kind: WireKind::FileData,
            file: FileId(0),
            token: 0,
            sender_load: 0,
            parent_span: 0,
            payload: vec![1; 100],
        };
        let mut full = vec![0u8; 256];
        let n = msg.encode(&mut full);
        assert!(WireMsg::decode(&full[..n - 50]).is_none());
    }

    #[test]
    fn contents_are_deterministic_and_distinct() {
        let a1 = file_contents(FileId(1), 64);
        let a2 = file_contents(FileId(1), 64);
        let b = file_contents(FileId(2), 64);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 64);
        // Longer reads share the prefix.
        let long = file_contents(FileId(1), 128);
        assert_eq!(&long[..64], &a1[..]);
    }

    #[test]
    fn ring_slot_round_trip() {
        let slot_bytes = 256;
        let mut buf = vec![0u8; slot_bytes];
        let payload = vec![9u8; 100];
        encode_ring_slot(&mut buf, slot_bytes, &payload, 77, 31, 5);
        let trailer = &buf[slot_bytes - RING_TRAILER_BYTES..];
        let (len, token, parent, seq) = decode_ring_trailer(trailer).expect("trailer");
        assert_eq!((len, token, parent, seq), (100, 77, 31, 5));
        assert_eq!(&buf[..100], &payload[..]);
    }

    #[test]
    fn ring_trailer_rejects_wrong_size() {
        assert!(decode_ring_trailer(&[0u8; 23]).is_none());
        assert!(decode_ring_trailer(&[0u8; 25]).is_none());
    }

    #[test]
    #[should_panic(expected = "does not fit ring slot")]
    fn ring_slot_checks_payload_fit() {
        let mut buf = vec![0u8; 64];
        encode_ring_slot(&mut buf, 64, &[0u8; 60], 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn encode_checks_capacity() {
        let msg = WireMsg {
            kind: WireKind::Forward,
            file: FileId(0),
            token: 0,
            sender_load: 0,
            parent_span: 0,
            payload: Vec::new(),
        };
        let mut buf = vec![0u8; 8];
        let _ = msg.encode(&mut buf);
    }
}

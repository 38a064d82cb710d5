//! Packets: what links carry.
//!
//! The simulator treats payloads as opaque bytes — the protocol crate
//! serializes its headers into them, exactly like a real wire. Only the
//! size matters for link timing.

use crate::time::SimTime;

/// A packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Total on-wire size in bytes (headers included). Determines
    /// serialization time and queue occupancy.
    size_bytes: usize,
    /// Opaque payload (protocol headers + application data).
    payload: Box<[u8]>,
    /// When the packet was handed to the link (stamped by the simulator).
    sent_at: SimTime,
}

impl Packet {
    /// Creates a packet of `size_bytes` carrying `payload`.
    ///
    /// `size_bytes` may exceed `payload.len()` to model padding or
    /// application data that is not explicitly materialized (the paper's
    /// 1024-byte messages carry a 32-byte header,
    /// `dmc_proto::wire::DATA_HEADER_BYTES`; we only materialize the
    /// header).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero or smaller than the payload.
    pub fn new(size_bytes: usize, payload: impl Into<Box<[u8]>>) -> Self {
        let payload = payload.into();
        assert!(size_bytes > 0, "packets must have positive size");
        assert!(
            size_bytes >= payload.len(),
            "size {size_bytes} smaller than payload {}",
            payload.len()
        );
        Packet {
            size_bytes,
            payload,
            sent_at: SimTime::ZERO,
        }
    }

    /// On-wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// On-wire size in bits (what the link's serializer consumes).
    pub fn size_bits(&self) -> u64 {
        self.size_bytes as u64 * 8
    }

    /// The opaque payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// When the packet entered its current link.
    pub fn sent_at(&self) -> SimTime {
        self.sent_at
    }

    pub(crate) fn stamp_sent(&mut self, at: SimTime) {
        self.sent_at = at;
    }

    /// The payload, writable in place (fault injection), so the on-wire
    /// size and link timestamp are untouched.
    pub(crate) fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let p = Packet::new(1024, *b"hdr");
        assert_eq!(p.size_bytes(), 1024);
        assert_eq!(p.size_bits(), 8192);
        assert_eq!(p.payload(), b"hdr");
    }

    #[test]
    fn a_packet_stays_small() {
        // A packet rides in every pending arrival's slab slot, so the
        // payload is a two-word handle to its bytes, not the bytes.
        assert!(std::mem::size_of::<Packet>() <= 32);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_panics() {
        Packet::new(0, []);
    }

    #[test]
    #[should_panic(expected = "smaller than payload")]
    fn undersized_panics() {
        Packet::new(2, *b"abcdef");
    }
}

//! Packet capture.
//!
//! Frames a switch mirrors (flow action `Mirror`) land in a bounded ring
//! buffer, and nothing else does. No production path reads the ring:
//! `tests/crowdsourcing_loop.rs` mines signatures from it (E13's
//! home A → repository → home B loop), and other tests count what it
//! holds.

use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::VecDeque;

/// One captured packet.
#[derive(Debug, Clone)]
pub struct CapturedPacket {
    /// Capture timestamp.
    pub at: SimTime,
    /// The structured packet.
    pub packet: Packet,
}

/// A bounded ring buffer of captured packets.
#[derive(Debug)]
pub struct Capture {
    ring: VecDeque<CapturedPacket>,
    capacity: usize,
}

impl Capture {
    /// A capture buffer holding up to `capacity` packets. The bound is
    /// its identity; what it holds is written by [`Capture::recycle`].
    /// Nothing is reserved here: only a `Mirror` rule ever records, so
    /// the ring grows with what is captured and a network that mirrors
    /// nothing never pays for one.
    pub fn new(capacity: usize) -> Capture {
        let mut capture = Capture { ring: VecDeque::new(), capacity };
        capture.recycle();
        capture
    }

    /// Record a packet, evicting the oldest if full.
    pub fn record(&mut self, at: SimTime, packet: Packet) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(CapturedPacket { at, packet });
    }

    /// Number of packets currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Iterate oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &CapturedPacket> {
        self.ring.iter()
    }

    /// Bring the buffer to its t = 0 state — empty, same
    /// `capacity` bound — retaining whatever the ring has grown to. The
    /// constructor ends here. A `VecDeque`'s spare capacity is
    /// behaviorally invisible, so a recycled capture records and evicts
    /// exactly like a new one.
    pub fn recycle(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ipv4Addr, MacAddr};
    use crate::packet::TransportHeader;
    use bytes::Bytes;

    fn pkt(n: u8) -> Packet {
        Packet::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TransportHeader::udp(n as u16, 80),
            Bytes::new(),
        )
    }

    #[test]
    fn records_and_evicts() {
        let mut c = Capture::new(3);
        for i in 0..5 {
            c.record(SimTime::from_millis(i as u64), pkt(i));
        }
        assert_eq!(c.len(), 3);
        let ports: Vec<u16> = c.iter().map(|p| p.packet.transport.src_port()).collect();
        assert_eq!(ports, vec![2, 3, 4]);
    }
}

//! Links: latency, bandwidth, loss and failure.
//!
//! A link connects two topology nodes. Packet delivery across a link takes
//! `propagation + serialization` time; serialization is queued behind the
//! previous packet on the same link (a simple fluid model of an output
//! queue), which is what makes the data-plane overhead experiment (E10)
//! show queueing effects under load.

use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// Static parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second; `0` means infinite (no serialization
    /// delay, no queueing).
    pub bandwidth_bps: u64,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkParams {
    /// A fast wired LAN segment: 100 µs, 1 Gbit/s, lossless.
    pub fn lan() -> LinkParams {
        LinkParams {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 1_000_000_000,
            loss: 0.0,
        }
    }

    /// A home Wi-Fi hop: 2 ms, 50 Mbit/s, 0.5% loss.
    pub fn wifi() -> LinkParams {
        LinkParams { latency: SimDuration::from_millis(2), bandwidth_bps: 50_000_000, loss: 0.005 }
    }

    /// A WAN/Internet path: 40 ms, 100 Mbit/s, 0.1% loss. Used for the
    /// remote-attacker and cloud-service attachment points.
    pub fn wan() -> LinkParams {
        LinkParams {
            latency: SimDuration::from_millis(40),
            bandwidth_bps: 100_000_000,
            loss: 0.001,
        }
    }
}

/// Runtime state of a link (one direction; the topology stores one `Link`
/// per direction so asymmetric paths are expressible).
#[derive(Debug, Clone)]
pub struct Link {
    /// Static parameters.
    pub params: LinkParams,
    /// Whether the link is administratively/physically up.
    pub up: bool,
    /// Time at which the transmitter becomes free (fluid queue model).
    tx_free_at: SimTime,
    /// Packets dropped by loss or failure.
    pub dropped: u64,
    /// Packets carried.
    pub carried: u64,
    /// Transient loss-probability override (fault-injection loss burst);
    /// while `Some`, it replaces `params.loss`.
    pub burst_loss: Option<f64>,
}

impl Link {
    /// A new, up link with the given parameters: `params` is the link's
    /// identity, everything else is written by [`Link::reset_runtime`].
    pub fn new(params: LinkParams) -> Link {
        let mut link = Link {
            params,
            up: false,
            tx_free_at: SimTime::ZERO,
            dropped: 0,
            carried: 0,
            burst_loss: None,
        };
        link.reset_runtime();
        link
    }

    /// Bring the link to its t = 0 state (up, idle transmitter, zeroed
    /// counters, no fault overrides), keeping the static parameters. The
    /// constructor ends here, so a link a resident world reuses across
    /// rounds is a cold-built one by construction.
    pub fn reset_runtime(&mut self) {
        self.up = true;
        self.tx_free_at = SimTime::ZERO;
        self.dropped = 0;
        self.carried = 0;
        self.burst_loss = None;
    }

    /// The loss probability currently in force: the burst override if one
    /// is active, the static parameter otherwise.
    pub(crate) fn effective_loss(&self) -> f64 {
        self.burst_loss.unwrap_or(self.params.loss)
    }

    /// Attempt to transmit `wire_bits` at time `now`.
    ///
    /// Returns `Some(delivery_time)` if the packet survives, `None` if it
    /// is lost or the link is down. Only a carried frame advances the
    /// transmitter queue; a lost one leaves it where it was.
    pub fn transmit<R: Rng>(
        &mut self,
        now: SimTime,
        wire_bits: u64,
        rng: &mut R,
    ) -> Option<SimTime> {
        self.transmit_frame(now, &mut WireFrame::new(wire_bits), rng)
    }

    /// [`Link::transmit`] of a frame whose serialization time may already
    /// be known at this link's bandwidth.
    pub(crate) fn transmit_frame<R: Rng>(
        &mut self,
        now: SimTime,
        frame: &mut WireFrame,
        rng: &mut R,
    ) -> Option<SimTime> {
        if !self.up {
            self.dropped += 1;
            return None;
        }
        let loss = self.effective_loss();
        if loss > 0.0 && rng.gen::<f64>() < loss {
            self.dropped += 1;
            return None;
        }
        let start = now.max(self.tx_free_at);
        let done_tx = start + frame.serialization(self.params.bandwidth_bps);
        self.tx_free_at = done_tx;
        self.carried += 1;
        Some(done_tx + self.params.latency)
    }

    /// Take the link down (failure injection).
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Bring the link back up.
    pub(crate) fn repair(&mut self) {
        self.up = true;
    }
}

/// One frame's size on the wire, with its serialization time at the last
/// bandwidth it was asked for: the copies of one flood leave over runs of
/// ports with one bandwidth, so the time is computed once per run rather
/// than once per port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireFrame {
    bits: u64,
    /// `(bandwidth_bps, serialization time)`, once computed.
    ser: Option<(u64, SimDuration)>,
}

impl WireFrame {
    /// A frame of `bits` bits, no serialization time computed yet.
    pub(crate) fn new(bits: u64) -> WireFrame {
        WireFrame { bits, ser: None }
    }

    fn serialization(&mut self, bandwidth_bps: u64) -> SimDuration {
        match self.ser {
            Some((bps, ser)) if bps == bandwidth_bps => ser,
            _ => {
                let ser = SimDuration::transmission(self.bits, bandwidth_bps);
                self.ser = Some((bandwidth_bps, ser));
                ser
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_delivery_time() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut link = Link::new(LinkParams {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 8_000_000, // 1 byte/µs
            loss: 0.0,
        });
        // 1000-byte packet: 1000 µs serialization + 1 ms latency = 2 ms.
        let t = link.transmit(SimTime::ZERO, 8000, &mut rng).unwrap();
        assert_eq!(t.as_micros(), 2000);
        assert_eq!(link.carried, 1);
    }

    #[test]
    fn queueing_behind_previous_packet() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut link = Link::new(LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: 8_000, // 1 ms per byte
            loss: 0.0,
        });
        let t1 = link.transmit(SimTime::ZERO, 8, &mut rng).unwrap();
        let t2 = link.transmit(SimTime::ZERO, 8, &mut rng).unwrap();
        assert_eq!(t1.as_millis(), 1);
        assert_eq!(t2.as_millis(), 2); // queued behind the first
    }

    #[test]
    fn down_link_drops() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut link = Link::new(LinkParams::lan());
        link.fail();
        assert!(link.transmit(SimTime::ZERO, 100, &mut rng).is_none());
        assert_eq!(link.dropped, 1);
        link.repair();
        assert!(link.transmit(SimTime::ZERO, 100, &mut rng).is_some());
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut link =
            Link::new(LinkParams { latency: SimDuration::ZERO, bandwidth_bps: 0, loss: 0.3 });
        let mut delivered = 0;
        for _ in 0..10_000 {
            if link.transmit(SimTime::ZERO, 100, &mut rng).is_some() {
                delivered += 1;
            }
        }
        let rate = delivered as f64 / 10_000.0;
        assert!((rate - 0.7).abs() < 0.03, "delivery rate {rate}");
    }

    #[test]
    fn burst_loss_overrides_static_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut link = Link::new(LinkParams::lan()); // static loss 0.0
        assert_eq!(link.effective_loss(), 0.0);
        link.burst_loss = Some(1.0);
        assert_eq!(link.effective_loss(), 1.0);
        assert!(link.transmit(SimTime::ZERO, 100, &mut rng).is_none());
        assert_eq!(link.dropped, 1);
        link.burst_loss = None;
        assert!(link.transmit(SimTime::ZERO, 100, &mut rng).is_some());
    }

    #[test]
    fn ideal_link_is_instant() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut link =
            Link::new(LinkParams { latency: SimDuration::ZERO, bandwidth_bps: 0, loss: 0.0 });
        let t = link.transmit(SimTime::from_millis(5), 1 << 20, &mut rng).unwrap();
        assert_eq!(t, SimTime::from_millis(5));
    }
}

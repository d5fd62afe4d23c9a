//! Simulated time.
//!
//! All timing in the reproduction is driven by a virtual clock measured in
//! nanoseconds since simulation start. Using an explicit clock (rather than
//! wall time) keeps every experiment deterministic and lets the benchmark
//! harness report latencies that are a function of the modelled system, not
//! of the machine running the simulation.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};
use serde::{Deserialize, Serialize};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nanoseconds).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1e9).round().max(0.0) as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Duration needed to serialize `bits` onto a link of `bits_per_sec`.
    ///
    /// Returns [`SimDuration::ZERO`] for an infinite-rate link
    /// (`bits_per_sec == 0` is treated as infinite, matching
    /// [`crate::link::LinkParams`]).
    pub fn transmission(bits: u64, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // ceil(bits * 1e9 / rate). Any frame-sized `bits` keeps the product
        // in a `u64` (one hardware divide); the 128-bit form is a library
        // call per link per copy and is left to the overflow case.
        match bits.checked_mul(1_000_000_000) {
            Some(bit_ns) => SimDuration(bit_ns.div_ceil(bits_per_sec)),
            None => SimDuration::transmission_wide(bits, bits_per_sec),
        }
    }

    /// [`SimDuration::transmission`] for a non-zero rate in 128-bit
    /// arithmetic, saturating at `u64::MAX` ns.
    fn transmission_wide(bits: u64, bits_per_sec: u64) -> SimDuration {
        let ns = (u128::from(bits) * 1_000_000_000).div_ceil(u128::from(bits_per_sec));
        SimDuration(ns.min(u128::from(u64::MAX)) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Largest `bits` whose product with 1e9 still fits a `u64`.
    const NARROW_MAX_BITS: u64 = u64::MAX / 1_000_000_000;

    fn bits() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..12_000 * 8, any::<u64>(), NARROW_MAX_BITS - 4..NARROW_MAX_BITS + 5]
    }

    fn rate() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(1u64), 1u64..1_000_000_000_000, any::<u64>()]
    }

    proptest! {
        /// The `u64` fast path and the `u128` form are one function: they
        /// agree wherever the fast path applies, and `transmission` equals
        /// the wide form everywhere else (an infinite-rate link is zero).
        #[test]
        fn transmission_narrow_and_wide_agree(bits in bits(), rate in rate()) {
            let got = SimDuration::transmission(bits, rate);
            if rate == 0 {
                prop_assert_eq!(got, SimDuration::ZERO);
            } else {
                prop_assert_eq!(got, SimDuration::transmission_wide(bits, rate));
            }
        }
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5000));
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(10)).as_millis(), 5);
        // Saturating: earlier - later == 0.
        assert_eq!(SimTime::from_millis(1) - SimTime::from_millis(9), SimDuration::ZERO);
    }

    #[test]
    fn transmission_delay() {
        // 1500-byte packet on 10 Mbit/s: 12000 bits / 1e7 bps = 1.2 ms.
        let d = SimDuration::transmission(1500 * 8, 10_000_000);
        assert_eq!(d.as_micros(), 1200);
        // Infinite-rate link.
        assert_eq!(SimDuration::transmission(1 << 20, 0), SimDuration::ZERO);
        // One bit past the `u64` product at 1 bit/s no longer fits in ns.
        assert_eq!(SimDuration::transmission(NARROW_MAX_BITS + 1, 1).as_nanos(), u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.50ms");
        assert_eq!(format!("{}", SimDuration::from_millis(2500)), "2.500s");
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(2));
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }
}

//! Streaming FNV-1a digests for fleet-scale determinism checks.
//!
//! E20 runs 10⁴–10⁶ home worlds and must compare the *entire fleet's*
//! outcome between serial and parallel executions byte-for-byte. Keeping
//! every per-home metrics line in memory just to compare them would cost
//! O(homes); instead each home folds its outcome into a 64-bit FNV-1a
//! stream and the fleet chains per-home digests in home order. FNV-1a is
//! chosen for the same reasons the E19 memo key uses a mixer: it is
//! deterministic across hosts, allocation-free, and order-sensitive —
//! any reordering of the chunk merge changes the final value, which is
//! exactly what the `--threads N ≡ serial` gate needs to detect.

/// A streaming 64-bit FNV-1a hasher.
///
/// Zero-allocation and `Copy`: a warm fleet round can fold thousands of
/// per-home outcomes without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: OFFSET }
    }

    /// Fold raw bytes into the stream.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Fold a `u64` (little-endian) into the stream.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a `u32` (little-endian) into the stream.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One-shot digest of a byte slice.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn u64_is_le_bytes() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), fnv64(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]));
    }
}

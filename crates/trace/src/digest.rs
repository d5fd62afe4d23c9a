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
//!
//! **The zero-run fold.** The fleet merge folds every home's outcome
//! as `u32` / `u64` words, and most of their high bytes are zero (a
//! home index, a block count, a violation count). An FNV-1a step on a
//! zero byte is `state ^= 0` — the identity — followed by one multiply
//! by the prime, and wrapping multiplication is associative, so a run
//! of *k* zero bytes is exactly one multiply by PRIMEᵏ.
//! [`Fnv64::write_u64`] and [`Fnv64::write_u32`] fold a word's bytes up
//! to its highest nonzero one, then its zero high bytes in that one
//! multiply: about half the dependent multiplies of a quiesced fleet
//! round, with every digest byte-identical to the byte-serial fold.
//! [`Fnv64::write_bytes`] and [`fnv64`] stay byte-serial.

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
/// `PRIME_POW[k]` is PRIMEᵏ (wrapping): the fold of `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

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

    /// Fold the `width` little-endian bytes of `v`, which must fit in
    /// them: byte by byte up to the highest nonzero one, then the zero
    /// bytes above it as one multiply (see the module doc).
    #[inline]
    fn write_word(&mut self, mut v: u64, width: usize) {
        let mut zeros = width;
        while v != 0 {
            self.state = (self.state ^ (v & 0xff)).wrapping_mul(PRIME);
            v >>= 8;
            zeros -= 1;
        }
        self.state = self.state.wrapping_mul(PRIME_POW[zeros]);
    }

    /// Fold a `u64` (little-endian) into the stream.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_word(v, 8);
    }

    /// Fold a `u32` (little-endian) into the stream.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_word(u64::from(v), 4);
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

    /// A fixed xorshift64 stream.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A `width`-byte word whose byte `i` is zero iff bit `i` of `mask`
    /// is set; every other byte is a nonzero one from the stream.
    fn masked_word(mask: u32, width: u32, x: &mut u64) -> u64 {
        (0..width).fold(0, |v, i| {
            let b = if (mask >> i) & 1 == 1 { 0 } else { (xorshift(x) as u8).max(1) };
            v | (u64::from(b) << (8 * i))
        })
    }

    /// The zero-run fold is exact: for every placement of zero bytes in
    /// a word, and for the all-zero and all-ones words, from several
    /// start states, `write_u64` / `write_u32` leave the state the
    /// byte-serial `write_bytes` of the word's little-endian bytes does.
    #[test]
    fn zero_run_fold_equals_the_byte_serial_fold() {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let mut states = vec![OFFSET, 0, u64::MAX];
        while states.len() < 8 {
            states.push(xorshift(&mut x));
        }
        let serial = |state: u64, bytes: &[u8]| {
            let mut h = Fnv64 { state };
            h.write_bytes(bytes);
            h.finish()
        };
        for &state in &states {
            for v in (0..256).map(|mask| masked_word(mask, 8, &mut x)).chain([0, u64::MAX]) {
                let mut h = Fnv64 { state };
                h.write_u64(v);
                assert_eq!(h.finish(), serial(state, &v.to_le_bytes()), "{v:#x} from {state:#x}");
            }
            for v in (0..16).map(|mask| masked_word(mask, 4, &mut x) as u32).chain([0, u32::MAX]) {
                let mut h = Fnv64 { state };
                h.write_u32(v);
                assert_eq!(h.finish(), serial(state, &v.to_le_bytes()), "{v:#x} from {state:#x}");
            }
        }
    }
}

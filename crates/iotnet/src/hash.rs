//! The word hasher of the packet path and the policy explorer.
//!
//! Every map a home-round probes — a switch's MAC table and decision
//! cache, the topology's address index, the steer registry, the world's
//! chain table, the hub's directory, a schema's device index — is keyed
//! by a few machine words the simulation itself produced: MAC and IP
//! addresses the topology builder assigned, packed header words, small
//! ids. `std`'s default SipHash is keyed to survive adversarial keys from
//! outside the program; here there is no outside, both switch tables are
//! bounded, and SipHash plus its per-map random key was the largest
//! single cost of a frame. [`WordHasher`] folds each written word in a
//! rotate, an xor and a multiply, and is unkeyed, so a map's layout is
//! also a pure function of its contents.
//!
//! The policy explorer's memo tables (`iotpolicy::packed`) are keyed the
//! same way, by four-word rule masks and by fingerprints. Its class ids
//! are handed out in first-sight order and its digests are XORs of
//! fingerprints, so no output depends on which hasher keys them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// An unkeyed hasher for keys made of a few machine words.
///
/// Not for keys that arrive from outside the program: it has no secret,
/// so colliding keys are easy to construct.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

/// The per-word multiplier (fxhash's) and the closing one (2⁶⁴ / φ). They
/// differ because squaring one constant leaves the low bits of `K²`
/// structured, and the spread tests below see it.
const K: u64 = 0x517c_c1b7_2722_0a95;
const CLOSE: u64 = 0x9e37_79b9_7f4a_7c15;

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    /// A multiply only carries differences upwards: keys that differ only
    /// above bit `k` — sequential MACs, a `/16` — have products that
    /// agree below bit `k`, and the table indexes buckets by the low
    /// bits. So the last multiply is a full 64 × 64 → 128 one with its
    /// high half folded into its low: every bit of the result, the low
    /// seven that pick a bucket and the top seven that tag the slot,
    /// depends on every bit written.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(CLOSE);
        wide as u64 ^ (wide >> 64) as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("chunks of eight")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ipv4Addr, MacAddr, PortNo};
    use crate::flow::PackedFlowKey;
    use std::hash::{BuildHasher, Hash};

    /// Of hashbrown's 128 possible values for each, how many distinct
    /// bucket indices (the low seven bits) and control tags (the top
    /// seven) `keys` reach.
    fn spread<K: Hash>(keys: impl IntoIterator<Item = K>) -> (usize, usize) {
        let build = BuildHasherDefault::<WordHasher>::default();
        let (mut buckets, mut tags) = ([false; 128], [false; 128]);
        for key in keys {
            let h = build.hash_one(key);
            buckets[(h & 127) as usize] = true;
            tags[(h >> 57) as usize] = true;
        }
        let used = |seen: [bool; 128]| seen.iter().filter(|s| **s).count();
        (used(buckets), used(tags))
    }

    fn assert_spreads<K: Hash>(what: &str, keys: impl IntoIterator<Item = K>) {
        let (buckets, tags) = spread(keys);
        assert!(buckets >= 116, "{what}: {buckets} of 128 buckets");
        assert!(tags >= 116, "{what}: {tags} of 128 tags");
    }

    #[test]
    fn sequential_macs_spread() {
        assert_spreads("macs", (0..4096).map(MacAddr::from_index));
    }

    #[test]
    fn a_slash_16_spreads() {
        assert_spreads(
            "10.0/16",
            (0..=u16::MAX).map(|i| Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8)),
        );
    }

    #[test]
    fn flow_keys_differing_in_one_field_spread() {
        // The decision cache's key, one field of the seven varying at a
        // time: (bit offset within its word, whether the word is `hi`).
        let base = PackedFlowKey {
            lo: 0x0200_0000_0001 << 80 | 0x0200_0000_0002 << 32 | 0x0a00_0001,
            hi: 0x0a00_0002 << 40 | 17 << 32 | 5683 << 16 | 5683,
        };
        for (field, shift, hi) in [
            ("eth_src", 80, false),
            ("eth_dst", 32, false),
            ("ip_src", 0, false),
            ("ip_dst", 40, true),
            ("src_port", 16, true),
            ("dst_port", 0, true),
        ] {
            let keys = (0u128..4096).map(|i| {
                let mut key = base;
                if hi {
                    key.hi ^= i << shift;
                } else {
                    key.lo ^= i << shift;
                }
                (PortNo(3), key)
            });
            // (The protocol byte, the seventh, has too few values to fill
            // 128 buckets nine tenths full.)
            assert_spreads(field, keys);
        }
        assert_spreads("in_port", (0..4096).map(|i| (PortNo(i), base)));
    }

    #[test]
    fn keys_differing_only_above_bit_32_spread() {
        // What `finish` folds for: a bare multiply puts every one of
        // these in bucket 0.
        assert_spreads("high words", (0u64..4096).map(|i| i << 32));
        assert!((0u64..4096).all(|i| (i << 32).wrapping_mul(K) & 127 == 0));
    }

    #[test]
    fn rule_masks_spread() {
        // The explorer's memo key, `iotpolicy::packed::RuleMask`: four
        // words, one fold each. Masks that differ only in one word, in its
        // low rules or its high ones, then masks that set any two rules.
        struct Mask([u64; 4]);
        impl Hash for Mask {
            fn hash<H: Hasher>(&self, state: &mut H) {
                for word in self.0 {
                    state.write_u64(word);
                }
            }
        }
        for word in 0..4 {
            for shift in [0, 52] {
                assert_spreads(
                    "one word",
                    (0u64..4096).map(|i| {
                        let mut mask = [0; 4];
                        mask[word] = i << shift;
                        Mask(mask)
                    }),
                );
            }
        }
        let two_rules = (0..256).flat_map(|a| {
            (0..a).map(move |b| {
                let mut mask = [0; 4];
                mask[a / 64] |= 1 << (a % 64);
                mask[b / 64] |= 1 << (b % 64);
                Mask(mask)
            })
        });
        assert_spreads("two rules", two_rules);
    }

    #[test]
    fn bytes_hash_as_the_words_they_spell() {
        let build = BuildHasherDefault::<WordHasher>::default();
        let hash = |bytes: &[u8]| {
            let mut h = build.build_hasher();
            h.write(bytes);
            h.finish()
        };
        // A trailing partial word is zero-padded, not dropped.
        assert_ne!(hash(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), hash(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 4]));
        let mut h = build.build_hasher();
        h.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(hash(&[1, 2, 3, 4, 5, 6, 7, 8]), h.finish());
    }
}

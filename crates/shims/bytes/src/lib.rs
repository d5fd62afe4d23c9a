//! Offline shim for the `bytes` crate (see `crates/shims/README.md`).
//!
//! Provides the slice of the API this workspace uses: cheaply cloneable
//! immutable [`Bytes`], an append-only [`BytesMut`] builder with
//! big-endian `put_*` writers via [`BufMut`], big-endian `get_*` readers
//! via [`Buf`] on `&[u8]`, and `freeze`.
//!
//! Most of what the simulation puts on the wire is a telemetry sample, a
//! login, an ack or an event — a dozen bytes. Both types therefore keep
//! short contents in the value itself: a [`Bytes`] of up to 30 bytes
//! never touches the allocator, nor does the [`BytesMut`] that builds
//! it; longer contents are ref-counted and heap-built as upstream's are.
//! Which of the two a value is shows in nothing but its allocation count.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// The longest contents a [`Bytes`] stores inline: with the length byte
/// and the enum tag the value is 32 bytes, twice an `Arc<[u8]>`.
const INLINE_CAP: usize = 30;

/// A cheaply cloneable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Bytes {
        Bytes(Repr::Inline { len: 0, buf: [0; INLINE_CAP] })
    }

    /// Wrap a static slice.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.len() > INLINE_CAP {
            return Bytes(Repr::Shared(Arc::from(data)));
        }
        let mut buf = [0; INLINE_CAP];
        buf[..data.len()].copy_from_slice(data);
        Bytes(Repr::Inline { len: data.len() as u8, buf })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.deref().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.deref().is_empty()
    }

    /// Copy out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.deref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(data) => data,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        if v.len() > INLINE_CAP {
            Bytes(Repr::Shared(Arc::from(v)))
        } else {
            Bytes::copy_from_slice(&v)
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for b in self.iter() {
            for esc in std::ascii::escape_default(*b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// The longest contents a [`BytesMut`] builds in place.
const BUILD_CAP: usize = 32;

/// A growable byte buffer for building wire images. It builds in place
/// up to 32 bytes and moves to a `Vec` with the write that would pass
/// that.
#[derive(Clone)]
pub struct BytesMut(MutRepr);

#[derive(Clone)]
enum MutRepr {
    Inline { len: u8, buf: [u8; BUILD_CAP] },
    Heap(Vec<u8>),
}

impl BytesMut {
    /// An empty builder.
    pub const fn new() -> BytesMut {
        BytesMut(MutRepr::Inline { len: 0, buf: [0; BUILD_CAP] })
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        if cap > BUILD_CAP {
            BytesMut(MutRepr::Heap(Vec::with_capacity(cap)))
        } else {
            BytesMut::new()
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.deref().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.deref().is_empty()
    }

    /// Convert to an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        match self.0 {
            MutRepr::Inline { len, buf } => Bytes::copy_from_slice(&buf[..usize::from(len)]),
            MutRepr::Heap(v) => Bytes::from(v),
        }
    }
}

impl Default for BytesMut {
    fn default() -> BytesMut {
        BytesMut::new()
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("BytesMut").field(&&self[..]).finish()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            MutRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            MutRepr::Heap(v) => v,
        }
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            MutRepr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            MutRepr::Heap(v) => v,
        }
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Big-endian reader methods over a shrinking front-consumed slice (the
/// subset of `bytes::Buf` in use). Reads past the end panic, as upstream.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Discard the next `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }
    /// Read a big-endian u16.
    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes(self.chunk()[..2].try_into().unwrap());
        self.advance(2);
        v
    }
    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }
    /// Read a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }
    /// Read a big-endian i16.
    fn get_i16(&mut self) -> i16 {
        self.get_u16() as i16
    }
    /// Read a big-endian f64.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
    /// Copy the next `dst.len()` bytes out.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Big-endian writer methods (the subset of `bytes::BufMut` in use).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16);
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32);
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64);

    /// Append a big-endian i16.
    fn put_i16(&mut self, v: i16) {
        self.put_u16(v as u16);
    }
    /// Append a big-endian f64.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        match &mut self.0 {
            MutRepr::Inline { len, buf } => {
                let (start, end) = (usize::from(*len), usize::from(*len) + src.len());
                if end <= BUILD_CAP {
                    buf[start..end].copy_from_slice(src);
                    *len = end as u8;
                } else {
                    let mut spilled = Vec::with_capacity(end.max(2 * BUILD_CAP));
                    spilled.extend_from_slice(&buf[..start]);
                    spilled.extend_from_slice(src);
                    self.0 = MutRepr::Heap(spilled);
                }
            }
            MutRepr::Heap(v) => v.extend_from_slice(src),
        }
    }
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_endianness() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u8(0x01);
        b.put_u16(0x0203);
        b.put_u32(0x0405_0607);
        b.put_slice(&[0xff]);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[1, 2, 3, 4, 5, 6, 7, 0xff]);
        assert_eq!(frozen, Bytes::copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 0xff]));
    }

    #[test]
    fn buf_reads_consume_from_the_front() {
        let data = [1u8, 0x02, 0x03, 0xAA, 0xBB, 0xCC, 0xDD, 9];
        let mut buf: &[u8] = &data;
        assert_eq!(buf.remaining(), 8);
        assert_eq!(buf.get_u8(), 1);
        assert_eq!(buf.get_u16(), 0x0203);
        assert_eq!(buf.get_u32(), 0xAABB_CCDD);
        assert_eq!(buf.remaining(), 1);
        buf.advance(1);
        assert_eq!(buf.remaining(), 0);

        let mut b = BytesMut::new();
        b.put_f64(1.5);
        b.put_i16(-2);
        let frozen = b.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_f64(), 1.5);
        assert_eq!(r.get_i16(), -2);
    }

    /// Every way of making a `Bytes` of `data`, and the representation
    /// the length does not pick: short contents forced behind an `Arc`.
    fn every_form(data: &[u8]) -> Vec<Bytes> {
        let mut built = BytesMut::new();
        built.put_slice(data);
        vec![
            Bytes::copy_from_slice(data),
            Bytes::from(data.to_vec()),
            built.freeze(),
            Bytes(Repr::Shared(Arc::from(data))),
        ]
    }

    #[test]
    fn representations_are_indistinguishable() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash_of = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            v(&mut h);
            h.finish()
        };
        for len in [0usize, 1, 30, 31, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let forms = every_form(&data);
            let inline = |b: &Bytes| matches!(b.0, Repr::Inline { .. });
            assert_eq!(inline(&forms[0]), len <= INLINE_CAP, "len {len}");
            assert_eq!(inline(&forms[2]), len <= INLINE_CAP, "len {len}");
            assert!(!inline(&forms[3]));
            for b in &forms {
                assert_eq!(b, &forms[0]);
                assert_eq!(b.clone(), *b);
                assert_eq!(*b, data[..]);
                assert_eq!(b.to_vec(), data);
                assert_eq!((b.len(), b.is_empty()), (len, len == 0));
                assert_eq!(format!("{b:?}"), format!("{:?}", forms[3]));
                // Hashes as the slice it derefs to, as an `Arc<[u8]>` does.
                assert_eq!(hash_of(&|h| b.hash(h)), hash_of(&|h| data[..].hash(h)));
            }
            let mut other = data.clone();
            other.push(0);
            assert_ne!(Bytes::from(other), forms[0]);
        }
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n\xff")), "b\"a\\n\\xff\"");
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
    }

    #[test]
    fn builder_spills_without_losing_bytes() {
        let data: Vec<u8> = (0..200u8).collect();
        // Every split point around the in-place capacity, the spill
        // landing mid-`put_slice`, on a `put_u8` and on a `put_u64`.
        for first in 0..=40 {
            let mut b = BytesMut::with_capacity(32);
            b.put_slice(&data[..first]);
            b.put_slice(&data[first..100]);
            assert_eq!(&b[..], &data[..100], "split at {first}");
            b.put_u8(data[100]);
            b.put_u64(u64::from_be_bytes(data[101..109].try_into().unwrap()));
            assert_eq!(b.len(), 109);
            assert_eq!(b.freeze(), Bytes::copy_from_slice(&data[..109]));
        }
        for len in 28..=36usize {
            let mut b = BytesMut::new();
            (0..len).for_each(|i| b.put_u8(i as u8));
            b[0] = 0xee;
            let mut want: Vec<u8> = (0..len).map(|i| i as u8).collect();
            want[0] = 0xee;
            assert_eq!(b.clone().freeze().to_vec(), want);
            let mut same = BytesMut::with_capacity(4096);
            same.put_slice(&want);
            assert_eq!(b, same, "an in-place and a heap builder compare by contents");
            assert_eq!(format!("{b:?}"), format!("{same:?}"));
        }
    }

    #[test]
    fn bytes_constructors() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"hi").len(), 2);
        assert_eq!(Bytes::from(vec![9u8]).to_vec(), vec![9u8]);
    }
}

//! Offline shim for the `smallvec` crate (see `crates/shims/README.md`).
//!
//! [`SmallVec<T, N>`] stores up to `N` elements inline (no heap allocation)
//! and spills to a `Vec<T>` beyond that. The workspace uses it on the
//! per-packet forwarding path, where the common port list is tiny (a
//! learned unicast output is one port), so the inline representation makes
//! the common case allocation-free. A flood is not that case: a 38-port
//! home floods 37 ports, far past any inline capacity worth carrying, so
//! the switch reserves a flood list exactly once with
//! [`SmallVec::with_capacity`] instead of growing it by doubling.
//!
//! The API mirrors the subset of the real crate's v2 generics form that the
//! workspace uses; `T: Copy + Default` keeps the inline buffer simple (no
//! `MaybeUninit` plumbing) and holds for the small id types stored here.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector with inline capacity `N`, spilling to the heap when it grows
/// past `N` elements.
#[derive(Clone)]
pub struct SmallVec<T: Copy + Default, const N: usize> {
    inline: [T; N],
    len: usize,
    /// `Some` once spilled; the inline buffer is then unused.
    spill: Option<Vec<T>>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// An empty vector (inline, no allocation).
    pub fn new() -> Self {
        SmallVec { inline: [T::default(); N], len: 0, spill: None }
    }

    /// An empty vector with room for `cap` elements: inline when they fit,
    /// otherwise spilled up front with one exact-size reservation.
    pub fn with_capacity(cap: usize) -> Self {
        let mut out = Self::new();
        if cap > N {
            out.spill = Some(Vec::with_capacity(cap));
        }
        out
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(v) => v.len(),
            None => self.len,
        }
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the contents have spilled to the heap.
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        if let Some(v) = &mut self.spill {
            v.push(value);
            return;
        }
        if self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            let mut v = Vec::with_capacity(N * 2);
            v.extend_from_slice(&self.inline[..self.len]);
            v.push(value);
            self.spill = Some(v);
        }
    }

    /// Remove all elements, keeping any spilled capacity.
    pub fn clear(&mut self) {
        if let Some(v) = &mut self.spill {
            v.clear();
        }
        self.len = 0;
    }

    /// Copy from a slice.
    pub fn from_slice(s: &[T]) -> Self {
        let mut out = Self::new();
        for &x in s {
            out.push(x);
        }
        out
    }

    /// Insert `value` at `index`, shifting later elements right.
    pub fn insert(&mut self, index: usize, value: T) {
        let len = self.len();
        assert!(index <= len, "insertion index {index} out of bounds (len {len})");
        if let Some(v) = &mut self.spill {
            v.insert(index, value);
            return;
        }
        if len < N {
            self.inline.copy_within(index..len, index + 1);
            self.inline[index] = value;
            self.len += 1;
        } else {
            let mut v = Vec::with_capacity(N * 2);
            v.extend_from_slice(&self.inline[..index]);
            v.push(value);
            v.extend_from_slice(&self.inline[index..len]);
            self.spill = Some(v);
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(v) => v.as_slice(),
            None => &self.inline[..self.len],
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(v) => v.as_mut_slice(),
            None => &mut self.inline[..self.len],
        }
    }

    /// Copy the contents into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for SmallVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() > N {
            SmallVec { inline: [T::default(); N], len: 0, spill: Some(v) }
        } else {
            Self::from_slice(&v)
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for x in iter {
            out.push(x);
        }
        out
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Owning iterator over a [`SmallVec`].
pub struct IntoIter<T: Copy + Default, const N: usize> {
    vec: SmallVec<T, N>,
    pos: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let item = self.vec.as_slice().get(self.pos).copied();
        self.pos += 1;
        item
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

impl<T: Copy + Default, const N: usize> ExactSizeIterator for IntoIter<T, N> {}

impl<T: Copy + Default, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter { vec: self, pos: 0 }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Construct a [`SmallVec`] from a list of elements, like `vec![]`.
#[macro_export]
macro_rules! smallvec {
    () => { $crate::SmallVec::new() };
    ($($x:expr),+ $(,)?) => {{
        let mut v = $crate::SmallVec::new();
        $(v.push($x);)+
        v
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: SmallVec<u16, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn with_capacity_spills_once_or_not_at_all() {
        let v: SmallVec<u16, 4> = SmallVec::with_capacity(4);
        assert!(!v.spilled());
        let mut v: SmallVec<u16, 4> = SmallVec::with_capacity(37);
        assert!(v.spilled() && v.is_empty());
        let reserved = v.spill.as_ref().map(Vec::capacity);
        v.extend(0..37);
        assert_eq!(v.len(), 37);
        assert_eq!(v.spill.as_ref().map(Vec::capacity), reserved, "filled without regrowing");
    }

    #[test]
    fn deref_and_iteration() {
        let v: SmallVec<u8, 8> = (0..5).collect();
        assert_eq!(v.iter().copied().sum::<u8>(), 10);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equality_and_conversions() {
        let v: SmallVec<u32, 2> = SmallVec::from(vec![1, 2, 3]);
        assert!(v.spilled());
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(v.to_vec(), vec![1, 2, 3]);
        let w: SmallVec<u32, 2> = smallvec![1, 2, 3];
        assert_eq!(v, w);
        let empty: SmallVec<u32, 2> = smallvec![];
        assert!(empty.is_empty());
    }

    #[test]
    fn clear_resets_both_representations() {
        let mut v: SmallVec<u8, 2> = smallvec![1, 2, 3];
        v.clear();
        assert!(v.is_empty());
        v.push(9);
        assert_eq!(v.as_slice(), &[9]);
    }
}

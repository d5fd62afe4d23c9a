//! Offline shim for the `serde` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so the workspace carries minimal in-repo substitutes for its external
//! dependencies (see `crates/shims/README.md`). This shim provides the
//! `Serialize`/`Deserialize` *marker* traits plus no-op derive macros.
//! No code in the workspace derives or names them any more; the crate
//! stays while `benchmark/Cargo.lock` pins the manifests' dependency
//! edges. Nothing in the workspace ever called serde's serialization methods
//! (the one JSON exchange format, crowdsourced signatures, has an explicit
//! hand-rolled codec in `iotlearn::signature`), so the traits are empty.

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

/// Marker trait standing in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Blanket coverage for std types that appear inside derived containers.
/// (The derives emit empty impls and never bound on field types, so these
/// exist only for code that spells the bound explicitly.)
mod impls {
    use super::{Deserialize, Serialize};

    macro_rules! mark {
        ($($t:ty),* $(,)?) => {
            $(
                impl Serialize for $t {}
                impl<'de> Deserialize<'de> for $t {}
            )*
        };
    }

    mark!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);
    mark!(f32, f64, bool, char, String, &'static str, ());

    impl<T> Serialize for Vec<T> {}
    impl<'de, T> Deserialize<'de> for Vec<T> {}
    impl<T> Serialize for Option<T> {}
    impl<'de, T> Deserialize<'de> for Option<T> {}
    impl<K, V> Serialize for std::collections::HashMap<K, V> {}
    impl<'de, K, V> Deserialize<'de> for std::collections::HashMap<K, V> {}
    impl<K, V> Serialize for std::collections::BTreeMap<K, V> {}
    impl<'de, K, V> Deserialize<'de> for std::collections::BTreeMap<K, V> {}
    impl<T> Serialize for std::collections::BTreeSet<T> {}
    impl<'de, T> Deserialize<'de> for std::collections::BTreeSet<T> {}
    impl<A, B> Serialize for (A, B) {}
    impl<'de, A, B> Deserialize<'de> for (A, B) {}
    impl<A, B, C> Serialize for (A, B, C) {}
    impl<'de, A, B, C> Deserialize<'de> for (A, B, C) {}
}

//! Empty stand-in for `serde_derive`: nothing names it (see `crates/shims/README.md`).

//! Empty stand-in for `serde`: nothing names it (see `crates/shims/README.md`).

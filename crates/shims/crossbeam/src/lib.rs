//! Empty stand-in for `crossbeam`: nothing names it (see `crates/shims/README.md`).

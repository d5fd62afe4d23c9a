//! Empty stand-in for `fixedbitset`: nothing names it (see `crates/shims/README.md`).

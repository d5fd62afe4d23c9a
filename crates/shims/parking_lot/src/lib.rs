//! Empty stand-in for `parking_lot`: nothing names it (see `crates/shims/README.md`).

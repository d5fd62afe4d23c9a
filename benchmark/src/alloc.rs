//! Counting global allocator: bytes and calls requested by *this thread*.
//!
//! Installed by `main.rs` (and therefore also in the harness's own unit
//! tests). Counters are thread-local on purpose: one shared atomic would
//! put a contended cache line under every allocation of a two-worker
//! leg and slow the very thing being measured. Allocation metrics are
//! therefore read on serial legs only, on the thread that runs them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: touching these can neither
    // allocate nor observe a torn-down slot.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    CALLS.with(|c| c.set(c.get() + 1));
}

/// `System`, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes this thread has requested so far.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocator calls (alloc, alloc_zeroed, realloc) this thread has made.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

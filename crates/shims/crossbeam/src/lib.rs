//! Offline shim for the `crossbeam` crate (see `crates/shims/README.md`).
//!
//! The workspace used one piece of crossbeam, `crossbeam::scope`, which
//! maps directly to `std::thread::scope` (std has had scoped threads
//! since 1.63); its callers now use `std::thread::scope` itself, and
//! nothing names this crate. It stays while `benchmark/Cargo.lock` pins
//! the manifests' dependency edges. The one API difference: crossbeam
//! passes a scope reference into each spawned closure for nested
//! spawning, so the shim passes `()`.

use std::thread;

/// Scope handle passed to [`scope`]'s closure.
pub struct Scope<'scope, 'env: 'scope>(&'scope thread::Scope<'scope, 'env>);

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread. The closure receives `()` where crossbeam
    /// would pass a nested scope handle.
    pub fn spawn<T, F>(&self, f: F) -> thread::ScopedJoinHandle<'scope, T>
    where
        T: Send + 'scope,
        F: FnOnce(()) -> T + Send + 'scope,
    {
        self.0.spawn(|| f(()))
    }
}

/// Run `f` with a scope in which borrowing spawned threads can be created;
/// all threads are joined before this returns. Always `Ok` (a panicking
/// child propagates the panic, as with `std::thread::scope`).
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(thread::scope(|s| f(&Scope(s))))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn scoped_threads_join_and_borrow() {
        let counter = AtomicU32::new(0);
        let out = super::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                handles.push(s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed)));
            }
            for h in handles {
                h.join().unwrap();
            }
            7
        })
        .unwrap();
        assert_eq!(out, 7);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }
}

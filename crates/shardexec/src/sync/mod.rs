//! The synchronization import point: every lock, condition variable
//! and thread primitive in this crate comes from here.
//!
//! The crate's two threaded pieces, the plan-ahead worker
//! ([`crate::ahead`]) and the shard pool ([`crate::pool`]), are each
//! one [`Mutex`] over their whole shared state plus [`Condvar`]s, and
//! every wait re-checks its condition under that one lock. Those are
//! the plain `std` primitives, re-exported: no lock-free protocol, no
//! memory-ordering choice and no wake-up token is left to get wrong,
//! and ThreadSanitizer and Miri over the real-thread tests check the
//! rest.
//!
//! Nothing else in `mrs-shardexec` names `std::sync`'s blocking
//! primitives or `std::thread` directly (the `atomics` family of
//! `mrs-lint` rules enforces this), so a new primitive has to be added
//! here, in view.

pub use std::sync::{Condvar, Mutex, MutexGuard};
pub use std::thread::JoinHandle;

/// Spawns a named thread (the name shows up in panics and debuggers).
///
/// # Panics
/// If the operating system refuses the thread.
pub fn spawn_named<T, F>(name: String, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("the operating system refused a worker thread")
}

/// The host's available parallelism (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

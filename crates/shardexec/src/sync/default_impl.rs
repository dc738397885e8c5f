use super::model::{ctx, AtomicRef, MutexRef, Ordering as ModelOrdering, ThreadRef};
// lint:allow(atomics-raw) — the shim is the one sanctioned importer.
use std::sync::atomic::{AtomicU32 as StdAtomicU32, AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{LockResult, Mutex as StdMutex, MutexGuard, PoisonError};

macro_rules! atomic_word {
    ($name:ident, $std:ty, $raw:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Created inside a [`model::explore`] run, the value lives in
        /// the model engine and every operation becomes a scheduling +
        /// read-choice point; created anywhere else it is the std
        /// primitive plus one predictable branch.
        #[derive(Debug)]
        pub struct $name {
            std: $std,
            model: Option<AtomicRef>,
        }

        impl $name {
            // Identity casts appear for the u64 instantiation of this
            // macro; they are real narrowing for u32.
            #[allow(clippy::unnecessary_cast)]
            #[inline]
            fn wide(v: $raw) -> u64 {
                v as u64
            }

            #[allow(clippy::unnecessary_cast, clippy::cast_possible_truncation)]
            #[inline]
            fn narrow(v: u64) -> $raw {
                v as $raw
            }

            /// A new atomic holding `v`.
            pub fn new(v: $raw) -> Self {
                $name {
                    std: <$std>::new(v),
                    model: ctx::new_atomic(Self::wide(v)),
                }
            }

            #[inline]
            fn op(
                &self,
                ord: ModelOrdering,
                f: impl FnOnce(u64, ModelOrdering) -> u64,
            ) -> Option<$raw> {
                let m = self.model.as_ref()?;
                // During an unwind (the engine tearing down an aborted
                // execution, or a counterexample panic) engine ops must
                // not run — they could panic again and abort the
                // process. The std fallback is harmless: the execution
                // is already dead.
                (ctx::in_model() && !std::thread::panicking()).then(|| Self::narrow(f(m.id(), ord)))
            }

            /// `load(Relaxed)`: no ordering; the value alone is the
            /// protocol.
            #[inline]
            pub fn load_relaxed(&self) -> $raw {
                self.op(ModelOrdering::Relaxed, ctx::load)
                    .unwrap_or_else(|| self.std.load(Ordering::Relaxed))
            }

            /// `load(Acquire)`: everything the releasing store
            /// published is visible after this load reads it.
            #[inline]
            pub fn load_acquire(&self) -> $raw {
                self.op(ModelOrdering::Acquire, ctx::load)
                    .unwrap_or_else(|| self.std.load(Ordering::Acquire))
            }

            /// `load(SeqCst)`: participates in the single total order —
            /// required on both loads of a store-buffering pair.
            #[inline]
            pub fn load_seqcst(&self) -> $raw {
                self.op(ModelOrdering::SeqCst, ctx::load)
                    .unwrap_or_else(|| self.std.load(Ordering::SeqCst))
            }

            /// `store(Relaxed)`: publication happens via a later
            /// release/SeqCst operation on another location.
            #[inline]
            pub fn store_relaxed(&self, v: $raw) {
                if self
                    .op(ModelOrdering::Relaxed, |id, ord| {
                        ctx::store(id, Self::wide(v), ord);
                        0
                    })
                    .is_none()
                {
                    self.std.store(v, Ordering::Relaxed);
                }
            }

            /// `store(Release)`: publishes everything before it to any
            /// acquire reader of this store.
            #[inline]
            pub fn store_release(&self, v: $raw) {
                if self
                    .op(ModelOrdering::Release, |id, ord| {
                        ctx::store(id, Self::wide(v), ord);
                        0
                    })
                    .is_none()
                {
                    self.std.store(v, Ordering::Release);
                }
            }

            /// `store(SeqCst)`: the flag side of a store-buffering
            /// pair; both it and the paired re-check load must be in
            /// the total order.
            #[inline]
            pub fn store_seqcst(&self, v: $raw) {
                if self
                    .op(ModelOrdering::SeqCst, |id, ord| {
                        ctx::store(id, Self::wide(v), ord);
                        0
                    })
                    .is_none()
                {
                    self.std.store(v, Ordering::SeqCst);
                }
            }

            /// `swap(SeqCst)`: atomically exchange, totally ordered.
            #[inline]
            pub fn swap_seqcst(&self, v: $raw) -> $raw {
                self.op(ModelOrdering::SeqCst, |id, ord| {
                    ctx::rmw(id, ord, |_| Self::wide(v))
                })
                .unwrap_or_else(|| self.std.swap(v, Ordering::SeqCst))
            }

            /// `fetch_add(SeqCst)`: totally ordered counter bump (the
            /// generation publish of a conditional-wake broadcast).
            #[inline]
            pub fn fetch_add_seqcst(&self, v: $raw) -> $raw {
                self.op(ModelOrdering::SeqCst, |id, ord| {
                    ctx::rmw(id, ord, |old| old.wrapping_add(Self::wide(v)))
                })
                .unwrap_or_else(|| self.std.fetch_add(v, Ordering::SeqCst))
            }

            /// `fetch_add(Release)`: publishes everything before it to
            /// any acquire reader — enough only when the wake that
            /// follows is unconditional.
            #[inline]
            pub fn fetch_add_release(&self, v: $raw) -> $raw {
                self.op(ModelOrdering::Release, |id, ord| {
                    ctx::rmw(id, ord, |old| old.wrapping_add(Self::wide(v)))
                })
                .unwrap_or_else(|| self.std.fetch_add(v, Ordering::Release))
            }

            /// `fetch_sub(SeqCst)`: totally ordered counter decrement
            /// (the worker side of the done-barrier SB pair).
            #[inline]
            pub fn fetch_sub_seqcst(&self, v: $raw) -> $raw {
                self.op(ModelOrdering::SeqCst, |id, ord| {
                    ctx::rmw(id, ord, |old| old.wrapping_sub(Self::wide(v)))
                })
                .unwrap_or_else(|| self.std.fetch_sub(v, Ordering::SeqCst))
            }
        }
    };
}

atomic_word!(
    AtomicU32,
    StdAtomicU32,
    u32,
    "A 32-bit atomic word routed through the shim."
);
atomic_word!(
    AtomicU64,
    StdAtomicU64,
    u64,
    "A 64-bit atomic word routed through the shim."
);

/// A mutex routed through the shim.
///
/// Under the model the *lock discipline* (blocking, happens-before,
/// self-deadlock) is enforced by the engine; the data itself still
/// lives in an inner [`std::sync::Mutex`] whose lock is — by
/// construction — uncontended once the model grants ownership, which
/// keeps this wrapper free of `unsafe`.
#[derive(Debug)]
pub struct Mutex<T> {
    std: StdMutex<T>,
    model: Option<MutexRef>,
}

/// A held [`Mutex`] lock; releases the model-side ownership on drop.
#[derive(Debug)]
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    model: Option<&'a MutexRef>,
}

impl<T> Drop for Guard<'_, T> {
    fn drop(&mut self) {
        if let Some(m) = self.model {
            // Skip the model unlock while unwinding: the execution is
            // being aborted (or reported as a counterexample) and a
            // second panic inside this drop would abort the process.
            // The engine resets all mutex state between executions.
            if ctx::in_model() && !std::thread::panicking() {
                ctx::mutex_unlock(m.id());
            }
        }
    }
}

impl<T> std::ops::Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Mutex<T> {
    /// A new mutex owning `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            std: StdMutex::new(value),
            model: ctx::new_mutex(),
        }
    }

    /// Locks the mutex, blocking (or yielding to the model scheduler)
    /// until it is free. Poisoning semantics match [`std::sync::Mutex`].
    pub fn lock(&self) -> LockResult<Guard<'_, T>> {
        let model = match &self.model {
            Some(m) if ctx::in_model() && !std::thread::panicking() => {
                ctx::mutex_lock(m.id());
                Some(m)
            }
            _ => None,
        };
        match self.std.lock() {
            Ok(inner) => Ok(Guard { inner, model }),
            Err(poison) => Err(PoisonError::new(Guard {
                inner: poison.into_inner(),
                model,
            })),
        }
    }
}

/// A handle to a shim-spawned (or current) thread, for [`unpark`].
#[derive(Clone, Debug)]
pub enum Thread {
    /// A real OS thread.
    Std(std::thread::Thread),
    /// A thread inside a [`model::explore`] run.
    Model(ThreadRef),
}

impl Thread {
    /// Wakes the thread if it is parked; otherwise banks one token that
    /// makes its next [`park`] return immediately.
    pub fn unpark(&self) {
        match self {
            Thread::Std(t) => t.unpark(),
            Thread::Model(t) => {
                if ctx::in_model() && !std::thread::panicking() {
                    ctx::unpark(t);
                }
            }
        }
    }
}

/// The current thread's handle.
pub fn current() -> Thread {
    match ctx::current() {
        Some(t) => Thread::Model(t),
        None => Thread::Std(std::thread::current()),
    }
}

/// Blocks the current thread until a token is available (see
/// [`std::thread::park`]; the model engine reproduces the token
/// semantics, including spurious returns).
pub fn park() {
    if ctx::in_model() {
        if !std::thread::panicking() {
            ctx::park();
        }
    } else {
        std::thread::park();
    }
}

/// One spin-loop pause (a scheduling point under the model).
#[inline]
pub fn spin_loop() {
    if ctx::in_model() && !std::thread::panicking() {
        ctx::spin_hint();
    } else {
        std::hint::spin_loop();
    }
}

/// A handle to join a shim-spawned thread.
#[derive(Debug)]
pub enum JoinHandle<T> {
    /// A real OS thread.
    Std(std::thread::JoinHandle<T>),
    /// A model thread plus the slot its return value lands in.
    Model(ThreadRef, std::sync::Arc<StdMutex<Option<T>>>),
}

impl<T> JoinHandle<T> {
    /// The handle of the underlying thread.
    pub fn thread(&self) -> Thread {
        match self {
            JoinHandle::Std(h) => Thread::Std(h.thread().clone()),
            JoinHandle::Model(t, _) => Thread::Model(t.clone()),
        }
    }

    /// Waits for the thread to finish, returning its value (or the
    /// panic payload, exactly like [`std::thread::JoinHandle::join`]).
    pub fn join(self) -> std::thread::Result<T> {
        match self {
            JoinHandle::Std(h) => h.join(),
            JoinHandle::Model(t, slot) => {
                // A join from a drop while the engine tears an
                // execution down (the caller is unwinding) must not
                // re-enter the engine, which would panic again and
                // abort the process; the execution is dead anyway.
                if std::thread::panicking() {
                    return Err(Box::new("model execution torn down before the join"));
                }
                ctx::join(&t);
                // A model-thread panic aborts the whole exploration
                // before any joiner resumes, so reaching this point
                // proves the thread completed and parked its value.
                Ok(slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("joined model thread completed, so its value slot is filled"))
            }
        }
    }
}

/// Spawns a named thread (the name shows up in panics and debuggers;
/// the model backend records it in traces instead).
pub fn spawn_named<T, F>(name: String, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    if ctx::in_model() {
        let slot = std::sync::Arc::new(StdMutex::new(None));
        let out = std::sync::Arc::clone(&slot);
        let t = ctx::spawn(name, move || {
            let v = f();
            *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
        });
        JoinHandle::Model(t, slot)
    } else {
        JoinHandle::Std(
            std::thread::Builder::new()
                .name(name)
                .spawn(f)
                .expect("spawning a shard worker thread failed"),
        )
    }
}

/// The host's available parallelism (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

//! Ordered look-ahead: one worker thread computes a fixed list of jobs
//! in index order, a bounded window ahead of the consumer that takes
//! their results.
//!
//! [`Ahead::new`] is given the job count and a job closure
//! `Fn(usize) -> T`; it knows nothing of what the jobs are (the runtime
//! uses it to plan queued arrivals' cold TreeSchedules while its event
//! loop runs). Each job index has one slot:
//!
//! * `Todo` — nobody has started it;
//! * `Busy` — the worker is computing it;
//! * `Done(T)` — the worker finished it and the result waits;
//! * `Taken` — the consumer has claimed the slot, with or without a
//!   result.
//!
//! The worker claims `Todo` slots in index order, and only below
//! `cursor + window`, where `cursor` is one past the highest index the
//! consumer has taken; at the window's edge it waits until a take moves
//! the cursor. [`Ahead::take`] reads a `Done` result, or waits until
//! the worker has finished the slot (a take moves the cursor past its
//! slot, so the worker always gets there). It returns `None`, and the
//! caller computes the job itself, only for a slot taken before or
//! once the worker has stopped. Every slot is therefore produced at
//! most once, by exactly one side, and a result reaches the consumer
//! only through `take` — the worker never decides *what* the consumer
//! sees, only which thread computed it.
//!
//! **The consumer never computes a job the worker will reach.** Which
//! thread computes a job must not depend on timing, because the
//! allocations a job makes land in that thread's malloc arena (glibc
//! gives each thread its own): had the consumer claimed every `Todo`
//! slot it reached before the worker, its own heap would have seen a
//! different allocation sequence in every process, and a peak RSS read
//! from it a different value (on the serving benchmark's
//! `distinct_steady` workload, 66 MiB in some invocations and 82 MiB
//! in others).
//!
//! **Memory dies where it was born.** The consumer only *reads* a
//! result (through a borrow, on its own thread); the result itself goes
//! back to the worker, which drops it, and the worker drops every
//! untaken result before it exits. So nothing a job allocated is freed
//! by the consumer. This matters under glibc: a chunk freed by a thread
//! that does not own it lands in the freeing thread's per-thread cache,
//! the consumer's next allocation of that size can reuse it, and every
//! later `realloc` of that allocation then grows inside the *worker's*
//! arena. When the consumer dropped the worker's results itself, a
//! worker arena on the serving benchmark's templated workload reached
//! 26 MB with under 100 KB in use in two runs of fourteen (peak RSS
//! +15 MB); with this rule it stayed under 1 MB in eight of eight. The
//! converse holds too: the list of read results is sized for every slot
//! when the consumer builds it, so the consumer's pushes never
//! reallocate it, and the job closure, with everything it captured, is
//! handed back through the join and dropped on the consumer's thread.
//!
//! All state sits behind one [`Mutex`], and each side sleeps on its
//! own [`Condvar`]: the worker on `claimable` until a take moves the
//! cursor (or the drop stops it), the consumer on `finished` until the
//! worker finishes a job. Each wait re-checks its condition under the
//! lock, so a notify that lands before the wait is never lost: the
//! waiter sees the changed state first. Dropping the [`Ahead`] stops
//! the worker, wakes it and joins it; a job in flight finishes first.

use crate::sync::{spawn_named, Condvar, JoinHandle, Mutex, MutexGuard};
use std::sync::{Arc, PoisonError};

/// How far (in job indices) the worker may run ahead of the consumer's
/// cursor. Each finished result is held until it is taken, so the
/// window bounds that memory; a window of 4 measured slower on the
/// serving benchmark.
pub const WINDOW: usize = 8;

/// The job closure, boxed on the consumer's thread and handed back to
/// it through the worker's join (see the [module docs](self)).
type Job<T> = Box<dyn Fn(usize) -> T + Send>;

/// One job's hand-off state.
#[derive(Debug)]
enum Slot<T> {
    Todo,
    Busy,
    Done(T),
    Taken,
}

#[derive(Debug)]
struct State<T> {
    slots: Vec<Slot<T>>,
    /// One past the highest index the consumer has taken.
    cursor: usize,
    /// Results the consumer has read, for the worker to drop; its
    /// capacity is the job count, so a push never reallocates.
    spent: Vec<T>,
    /// Set by [`Ahead`]'s drop: the worker claims nothing more.
    stop: bool,
}

#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    window: usize,
    /// Signalled when the cursor moves or `stop` is set; the worker
    /// waits on it at the window's edge.
    claimable: Condvar,
    /// Signalled when the worker finishes a job or hands one back; the
    /// consumer waits on it for its slot.
    finished: Condvar,
}

impl<T> Shared<T> {
    /// Every update under the lock is a single assignment that leaves
    /// the state valid, so a poisoned lock (a panic elsewhere while
    /// holding it) still guards consistent data.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases `st` while waiting on `cv`, and takes it back.
    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }
}

/// An ordered look-ahead over `len` jobs with one worker thread (named
/// `mrs-ahead`), joined on drop. See the [module docs](self).
///
/// The thread that calls [`Ahead::new`] is the consumer: only it may
/// call [`Ahead::take`].
pub struct Ahead<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    worker: Option<JoinHandle<Job<T>>>,
}

/// Gives a slot back on unwind: a job that panicked on the worker goes
/// back to `Todo` and the worker stops, so the consumer computes that
/// job (and every later one) itself instead of waiting forever.
struct ResetOnUnwind<'a, T> {
    shared: &'a Shared<T>,
    slot: usize,
}

impl<T> Drop for ResetOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.shared.lock();
            st.slots[self.slot] = Slot::Todo;
            st.stop = true;
            self.shared.finished.notify_one();
        }
    }
}

fn work<T>(shared: &Shared<T>, job: &Job<T>) {
    let mut next = 0;
    let mut st = shared.lock();
    loop {
        // The results the consumer has read die here, on the thread
        // that made them; the list keeps its capacity.
        st.spent.clear();
        if st.stop {
            for slot in &mut st.slots {
                if matches!(slot, Slot::Done(_)) {
                    *slot = Slot::Taken;
                }
            }
            return;
        }
        while next < st.slots.len() && !matches!(st.slots[next], Slot::Todo) {
            next += 1;
        }
        if next >= st.slots.len() || next >= st.cursor + shared.window {
            // Nothing to claim: wait for a take to move the cursor, or
            // for the drop's stop, then re-check.
            st = shared.wait(&shared.claimable, st);
            continue;
        }
        let i = next;
        st.slots[i] = Slot::Busy;
        drop(st);
        let out = {
            let _reset = ResetOnUnwind { shared, slot: i };
            job(i)
        };
        st = shared.lock();
        st.slots[i] = Slot::Done(out);
        shared.finished.notify_one();
    }
}

impl<T: Send + 'static> Ahead<T> {
    /// Starts the worker over jobs `0..len`, at most `window` indices
    /// ahead of the consumer's cursor (see [`WINDOW`]). The calling
    /// thread becomes the consumer.
    ///
    /// # Panics
    /// If `window` is zero (the worker could never start a job).
    pub fn new<F>(len: usize, window: usize, job: F) -> Self
    where
        F: Fn(usize) -> T + Send + 'static,
    {
        assert!(
            window >= 1,
            "a look-ahead window must hold at least one job"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                slots: (0..len).map(|_| Slot::Todo).collect(),
                cursor: 0,
                spent: Vec::with_capacity(len),
                stop: false,
            }),
            window,
            claimable: Condvar::new(),
            finished: Condvar::new(),
        });
        let job: Job<T> = Box::new(job);
        let worker = {
            let shared = Arc::clone(&shared);
            spawn_named("mrs-ahead".to_owned(), move || {
                work(&shared, &job);
                job
            })
        };
        Ahead {
            shared,
            worker: Some(worker),
        }
    }

    /// Claims job `i`. Once the worker has finished it, returns `read`
    /// applied to a borrow of the result, on the calling thread, and
    /// hands the result back to the worker to drop (see the [module
    /// docs](self)); waits until then. Returns `None` if the caller
    /// must compute the job itself: it was taken before, or the worker
    /// stopped before reaching it.
    ///
    /// # Panics
    /// If `i` is not below the job count.
    pub fn take<R>(&self, i: usize, read: impl FnOnce(&T) -> R) -> Option<R> {
        let mut st = self.shared.lock();
        if i >= st.cursor {
            st.cursor = i + 1;
            self.shared.claimable.notify_one();
        }
        let out = loop {
            match std::mem::replace(&mut st.slots[i], Slot::Taken) {
                Slot::Done(out) => break out,
                Slot::Taken => return None,
                Slot::Todo if st.stop => return None,
                // Busy, or Todo below the moved cursor, which the
                // worker claims in order: wait for it.
                pending => {
                    st.slots[i] = pending;
                    st = self.shared.wait(&self.shared.finished, st);
                }
            }
        };
        drop(st);
        let read = read(&out);
        self.shared.lock().spent.push(out);
        Some(read)
    }
}

impl<T: Send + 'static> Drop for Ahead<T> {
    fn drop(&mut self) {
        self.shared.lock().stop = true;
        self.shared.claimable.notify_one();
        if let Some(worker) = self.worker.take() {
            // The join hands the job closure back, so it drops here. A
            // job that panicked on the worker was handed back as `Todo`
            // (see `ResetOnUnwind`), so the consumer computes it itself
            // and meets any fault in the job there; the join's panic
            // payload adds nothing, and a drop must not panic.
            drop(worker.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How often the hand-off tests repeat, each a fresh worker meeting
    /// the consumer at a different point of its loop. Miri runs each
    /// thread switch ~2 orders of magnitude slower.
    const REPEATS: usize = if cfg!(miri) { 4 } else { 200 };

    /// Three jobs, window 1, each job counting its productions in
    /// `made`; returns the look-ahead and the counter.
    fn three_slots() -> (Ahead<usize>, Arc<Mutex<[u32; 3]>>) {
        let made = Arc::new(Mutex::new([0u32; 3]));
        let counter = Arc::clone(&made);
        let ahead = Ahead::new(3, 1, move |i| {
            counter.lock().expect("counter unpoisoned")[i] += 1;
            10 * i
        });
        (ahead, made)
    }

    /// Takes job `i`, computing it inline (and counting that) when the
    /// worker did not.
    fn take_or_make(ahead: &Ahead<usize>, made: &Mutex<[u32; 3]>, i: usize) -> usize {
        ahead.take(i, |&v| v).unwrap_or_else(|| {
            made.lock().expect("counter unpoisoned")[i] += 1;
            10 * i
        })
    }

    fn produced(made: &Mutex<[u32; 3]>) -> [u32; 3] {
        *made.lock().expect("counter unpoisoned")
    }

    #[test]
    fn in_order_takes_produce_each_slot_once() {
        for _ in 0..REPEATS {
            let (ahead, made) = three_slots();
            for i in 0..3 {
                assert_eq!(take_or_make(&ahead, &made, i), 10 * i, "wrong result");
            }
            drop(ahead);
            assert_eq!(
                produced(&made),
                [1, 1, 1],
                "a slot was produced twice or never"
            );
        }
    }

    #[test]
    fn taking_ahead_of_the_worker_waits_for_it() {
        for _ in 0..REPEATS {
            let (ahead, made) = three_slots();
            // Slot 2 is outside the worker's window until this take, so
            // it is `Todo` here whatever the worker has done; the take
            // moves the cursor past it and waits while the worker
            // computes slots 0, 1 and 2 in order.
            assert_eq!(ahead.take(2, |&v| v), Some(20), "the worker makes slot 2");
            for i in 0..2 {
                assert_eq!(take_or_make(&ahead, &made, i), 10 * i, "wrong result");
            }
            drop(ahead);
            assert_eq!(
                produced(&made),
                [1, 1, 1],
                "a slot was produced twice or never"
            );
        }
    }

    #[test]
    fn early_drop_joins_the_worker_without_overrun() {
        for _ in 0..REPEATS {
            let (ahead, made) = three_slots();
            assert_eq!(take_or_make(&ahead, &made, 0), 0);
            // The worker may be waiting on the window, mid-job or about
            // to claim slot 1; the drop must stop and join it in every
            // case (a lost wake-up hangs here).
            drop(ahead);
            let made = produced(&made);
            assert_eq!(made[0], 1, "the taken slot was produced twice or never");
            assert!(made[1] <= 1 && made[2] == 0, "the worker overran: {made:?}");
        }
    }

    #[test]
    fn worker_results_arrive_in_any_take_order() {
        let ahead = Ahead::new(40, WINDOW, |i| i * i);
        // Every third job from the top, then all of them: a first take
        // always gets the worker's result, a second one `None`.
        let mut taken = [false; 40];
        for i in (0..40).rev().step_by(3).chain(0..40) {
            match ahead.take(i, |&v| v) {
                Some(v) => assert_eq!(v, i * i),
                None => assert!(taken[i], "job {i} was not made by the worker"),
            }
            taken[i] = true;
        }
        assert_eq!(
            ahead.take(7, |&v| v),
            None,
            "a slot is handed out only once"
        );
    }

    /// Records the name of the thread that drops it.
    struct DropProbe(Arc<Mutex<Vec<String>>>);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            let name = std::thread::current().name().unwrap_or("?").to_owned();
            self.0.lock().expect("log unpoisoned").push(name);
        }
    }

    #[test]
    fn every_result_is_dropped_on_the_worker() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let probes = Arc::clone(&log);
        let ahead = Ahead::new(12, 4, move |_| DropProbe(Arc::clone(&probes)));
        // Take half of the jobs; the rest are left done or undone.
        let read = (0..12)
            .step_by(2)
            .filter_map(|i| ahead.take(i, |_| ()))
            .count();
        assert_eq!(read, 6, "the worker makes every job that is taken");
        drop(ahead);
        let log = log.lock().expect("log unpoisoned");
        assert!(read <= log.len(), "a read result was never dropped");
        assert!(
            log.iter().all(|name| name == "mrs-ahead"),
            "a result was dropped off the worker: {log:?}"
        );
    }

    #[test]
    fn a_panicking_job_is_handed_back_to_the_consumer() {
        let ahead = Ahead::new(3, WINDOW, |i| {
            assert!(i != 1, "job 1 fails on the worker");
            i
        });
        // The take waits while the worker makes slot 0 and fails on
        // slot 1, which it hands back as `Todo` before stopping: the
        // caller computes slot 1 and every later one itself.
        assert_eq!(ahead.take(1, |&v| v), None);
        assert_eq!(ahead.take(0, |&v| v), Some(0));
        assert_eq!(ahead.take(2, |&v| v), None);
        drop(ahead);
    }

    #[test]
    fn the_job_closure_is_dropped_on_the_consumer() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let probe = DropProbe(Arc::clone(&log));
        let ahead = Ahead::new(2, WINDOW, move |i| {
            let _captured = &probe;
            i
        });
        assert_eq!(ahead.take(0, |&v| v), Some(0));
        drop(ahead);
        let here = std::thread::current().name().unwrap_or("?").to_owned();
        assert_eq!(*log.lock().expect("log unpoisoned"), vec![here]);
    }
}

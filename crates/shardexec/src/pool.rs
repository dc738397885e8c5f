//! A pinned worker pool: one persistent thread per shard, driven one
//! round at a time through one [`Mutex`]-guarded round state.
//!
//! No runtime path uses it: the runtime drives one [`ShardState`] over
//! all sites inline on the event-loop thread, because one epoch's site
//! work (a few microseconds) never paid for a barrier round. The pool
//! stays for the end-to-end benchmark's barrier-cost probe
//! (`fabric.barrier_us`) until the next benchmark change retires it,
//! and the TSan and Miri jobs keep checking it meanwhile.
//!
//! The coordinator broadcasts one [`Command`] per round; every worker
//! executes it against its own [`ShardState`] cell and the coordinator
//! blocks until all have finished. Between rounds the coordinator is
//! the only party touching the cells ([`ShardPool::with_cell`] locks
//! the owning cell uncontended).
//!
//! A round is one lock and two condition variables: [`ShardPool::run`]
//! bumps the round's generation under the lock and wakes every worker
//! on `start`; each worker runs the generation it has not seen yet,
//! and the last to finish wakes the coordinator on `done`. Every wait
//! re-checks its condition under the lock. A worker that panics
//! mid-command records the panic and still completes its round (a
//! drop guard), so the coordinator never deadlocks on a dead worker;
//! [`ShardPool::run`] then re-raises on the coordinator, and [`Drop`]
//! joins without double-panicking.

use crate::state::ShardState;
use crate::sync::{spawn_named, Condvar, JoinHandle, Mutex, MutexGuard};
use std::sync::{Arc, PoisonError};

/// A site-local barrier command, broadcast to every worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Command {
    /// Compute the shard's earliest pending completion into
    /// [`ShardState::next`](crate::state::ShardState).
    NextTime,
    /// Advance every due site to the epoch time, collecting completions
    /// into the shard's buffer and refreshing the shard's next-event
    /// time in the same round (the fused min-fold).
    AdvanceDue(f64),
}

/// The barrier state, guarded by [`Shared::round`].
#[derive(Debug)]
struct Round {
    /// Bumped once per broadcast; each worker runs every generation
    /// once.
    gen: u64,
    /// The command of generation `gen`; `None` tells the workers to
    /// exit.
    cmd: Option<Command>,
    /// Workers that have not finished generation `gen`.
    pending: usize,
    /// A worker panicked while executing a command.
    panicked: bool,
}

/// State shared between the coordinator and the workers.
#[derive(Debug)]
struct Shared {
    round: Mutex<Round>,
    /// Signalled (to every worker) when a generation is published.
    start: Condvar,
    /// Signalled (to the coordinator) when `pending` reaches zero.
    done: Condvar,
    /// One cell per shard; worker `i` only ever locks `cells[i]`.
    cells: Vec<Mutex<ShardState>>,
}

impl Shared {
    /// The round lock is never held across a command, and every update
    /// under it leaves the round valid, so a poisoned lock still guards
    /// consistent data.
    fn lock(&self) -> MutexGuard<'_, Round> {
        self.round.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases `round` while waiting on `cv`, and takes it back.
    fn wait<'a>(&self, cv: &Condvar, round: MutexGuard<'a, Round>) -> MutexGuard<'a, Round> {
        cv.wait(round).unwrap_or_else(PoisonError::into_inner)
    }
}

/// One persistent worker thread per shard (named `mrs-shard-{i}`),
/// joined on drop.
#[derive(Debug)]
pub struct ShardPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Completes the worker's round on drop — including the unwind path,
/// where it first marks the round panicked so the coordinator can
/// re-raise instead of deadlocking on a `pending` count that would
/// never reach zero.
struct CompleteOnDrop<'a> {
    shared: &'a Shared,
}

impl Drop for CompleteOnDrop<'_> {
    fn drop(&mut self) {
        let last = {
            let mut round = self.shared.lock();
            if std::thread::panicking() {
                round.panicked = true;
            }
            round.pending -= 1;
            round.pending == 0
        };
        // Woken after the unlock, the coordinator takes the lock
        // without contending for it.
        if last {
            self.shared.done.notify_one();
        }
    }
}

fn worker(shared: &Shared, shard: usize) {
    let mut seen = 0u64;
    loop {
        let cmd = {
            let mut round = shared.lock();
            while round.gen == seen {
                round = shared.wait(&shared.start, round);
            }
            seen = round.gen;
            match round.cmd {
                Some(cmd) => cmd,
                None => return,
            }
        };
        let _complete = CompleteOnDrop { shared };
        let mut cell = shared.cells[shard]
            .lock()
            .expect("shard cell poisoned: a worker panicked");
        match cmd {
            Command::NextTime => cell.compute_next(),
            Command::AdvanceDue(t) => cell.advance_due(t),
        }
    }
}

impl ShardPool {
    /// Spawns one pinned worker per shard state.
    pub fn new(states: Vec<ShardState>) -> Self {
        let shared = Arc::new(Shared {
            round: Mutex::new(Round {
                gen: 0,
                cmd: None,
                pending: 0,
                panicked: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            cells: states.into_iter().map(Mutex::new).collect(),
        });
        let workers = (0..shared.cells.len())
            .map(|i| {
                let shared = Arc::clone(&shared);
                spawn_named(format!("mrs-shard-{i}"), move || worker(&shared, i))
            })
            .collect();
        ShardPool { shared, workers }
    }

    /// Number of shards (= workers).
    pub fn shards(&self) -> usize {
        self.shared.cells.len()
    }

    /// Broadcasts `cmd` to every worker and blocks until all finish.
    /// Re-raises on the coordinator if any worker panicked.
    pub fn run(&self, cmd: Command) {
        {
            let mut round = self.shared.lock();
            round.gen += 1;
            round.cmd = Some(cmd);
            round.pending = self.shards();
        }
        // Woken after the unlock, so no worker wakes only to wait for
        // the coordinator's lock.
        self.shared.start.notify_all();
        let mut round = self.shared.lock();
        while round.pending > 0 {
            round = self.shared.wait(&self.shared.done, round);
        }
        let panicked = round.panicked;
        drop(round);
        assert!(
            !panicked,
            "a shard worker panicked while executing {cmd:?}; \
             the full payload surfaces when the pool is dropped and joined"
        );
    }

    /// Runs `f` against one shard's state. Only call between broadcasts
    /// (no command in flight): the cell lock is then uncontended, and
    /// per-site effects stay in coordinator order.
    pub fn with_cell<R>(&self, shard: usize, f: impl FnOnce(&mut ShardState) -> R) -> R {
        let mut cell = self.shared.cells[shard]
            .lock()
            .expect("shard cell poisoned: a worker panicked");
        f(&mut cell)
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // A generation with no command: a dead (panicked) worker simply
        // never observes it, and the live ones exit without completing.
        {
            let mut round = self.shared.lock();
            round.gen += 1;
            round.cmd = None;
        }
        self.shared.start.notify_all();
        for handle in self.workers.drain(..) {
            // Propagate worker panics instead of swallowing them — but
            // only when not already unwinding (e.g. from the `run`
            // re-raise), where a second panic would abort the process.
            if let Err(panic) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::available_parallelism;
    use mrs_core::vector::WorkVector;
    use mrs_sim::engine::{SimClone, SimConfig, SiteSim};

    /// Scales a repeat count down under Miri, which runs each thread
    /// switch ~2 orders of magnitude slower.
    const fn repeats(n: usize) -> usize {
        if cfg!(miri) {
            n / 10
        } else {
            n
        }
    }

    fn pool(shards: usize, sites_per: usize) -> ShardPool {
        let states = (0..shards)
            .map(|s| {
                let sims = (0..sites_per)
                    .map(|_| SiteSim::new(SimConfig::default(), 1))
                    .collect();
                ShardState::new(s, s * sites_per, sims, 1)
            })
            .collect();
        ShardPool::new(states)
    }

    #[test]
    fn broadcast_runs_every_shard_exactly_once() {
        let pool = pool(4, 2);
        for (i, tag) in [(0usize, 10usize), (3, 11)] {
            pool.with_cell(i, |st| {
                let site = st.base();
                st.add_clone(
                    site,
                    &SimClone {
                        tag,
                        work: WorkVector::from_slice(&[2.0]),
                        duration: 2.0,
                    },
                );
            });
        }
        pool.run(Command::NextTime);
        let nexts: Vec<Option<f64>> = (0..4).map(|s| pool.with_cell(s, |st| st.next)).collect();
        assert_eq!(nexts, vec![Some(2.0), None, None, Some(2.0)]);
        pool.run(Command::AdvanceDue(2.0));
        let done: Vec<usize> = (0..4)
            .map(|s| pool.with_cell(s, |st| st.buf.len()))
            .collect();
        assert_eq!(done, vec![1, 0, 0, 1]);
    }

    #[test]
    fn repeated_broadcasts_do_not_deadlock() {
        let pool = pool(3, 1);
        for _ in 0..repeats(100) {
            pool.run(Command::NextTime);
        }
        assert_eq!(pool.shards(), 3);
    }

    #[test]
    fn advance_due_fuses_the_next_time_refresh() {
        // One broadcast must both drain the due sites and leave each
        // shard's `next` refreshed — no separate NextTime round needed.
        let pool = pool(2, 2);
        pool.with_cell(0, |st| {
            st.add_clone(
                0,
                &SimClone {
                    tag: 0,
                    work: WorkVector::from_slice(&[1.0]),
                    duration: 1.0,
                },
            );
            st.add_clone(
                1,
                &SimClone {
                    tag: 1,
                    work: WorkVector::from_slice(&[3.0]),
                    duration: 3.0,
                },
            );
        });
        pool.run(Command::AdvanceDue(1.5));
        let (buf_len, next) = pool.with_cell(0, |st| (st.buf.len(), st.next));
        assert_eq!(buf_len, 1, "only the due clone completes");
        // Remaining work of the second clone at its own pace.
        assert!(next.is_some(), "fused refresh must leave next populated");
        assert_eq!(pool.with_cell(1, |st| st.next), None);
    }

    #[test]
    fn many_rounds_with_mixed_commands_stay_consistent() {
        let pool = pool(5, 2);
        for round in 0..repeats(200) {
            if round % 2 == 0 {
                pool.run(Command::NextTime);
            } else {
                pool.run(Command::AdvanceDue(round as f64));
            }
        }
        assert_eq!(pool.shards(), 5);
    }

    #[test]
    fn worker_panic_while_coordinator_waits_reraises_instead_of_deadlocking() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let pool = pool(2, 1);
        // Poison shard 0's cell from the coordinator side: the panic
        // unwinds through the cell's MutexGuard, so the *next* worker
        // lock sees the poison and panics mid-command — while the
        // coordinator waits on `done`.
        let inject = catch_unwind(AssertUnwindSafe(|| {
            pool.with_cell(0, |_| panic!("inject poison"))
        }));
        assert!(inject.is_err());

        // The drop guard must still complete the dead worker's round
        // (no deadlock) and run() must re-raise on the coordinator.
        let round = catch_unwind(AssertUnwindSafe(|| pool.run(Command::NextTime)));
        let msg = *round
            .expect_err("run must re-raise the worker panic")
            .downcast::<String>()
            .expect("assert! carries a String payload");
        assert!(
            msg.contains("a shard worker panicked"),
            "unexpected re-raise message: {msg}"
        );

        // Drop joins the dead worker and surfaces its original payload
        // (the poison expect), exactly once — no abort, no hang on the
        // surviving waiting worker.
        let dropped = catch_unwind(AssertUnwindSafe(|| drop(pool)));
        let msg = *dropped
            .expect_err("drop must propagate the worker's own panic")
            .downcast::<String>()
            .expect("expect carries a String payload");
        assert!(
            msg.contains("shard cell poisoned"),
            "unexpected join payload: {msg}"
        );
    }

    #[test]
    fn one_shard_per_core_runs_mixed_rounds() {
        // Every core busy with a shard: each round's coordinator and
        // workers contend for the cores, so the waits on `start` and
        // `done` really sleep instead of finding their condition met.
        let n = available_parallelism();
        let pool = pool(n, 1);
        assert_eq!(pool.shards(), n);
        for round in 0..repeats(50) {
            pool.run(Command::NextTime);
            pool.run(Command::AdvanceDue(round as f64));
        }
    }

    #[test]
    fn drop_while_workers_wait_shuts_down_cleanly() {
        // Workers may still be starting up or already waiting on
        // `start` when the shutdown generation lands; repetition varies
        // the OS schedule across those phases. Each iteration must join
        // all workers (a lost wake-up hangs here).
        for _ in 0..repeats(30) {
            let fresh = pool(3, 1);
            drop(fresh);
        }
        for round in 0..repeats(30) {
            let busy = pool(3, 1);
            busy.run(Command::AdvanceDue(round as f64));
            drop(busy);
        }
    }
}

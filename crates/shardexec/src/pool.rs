//! A pinned worker pool: one persistent thread per shard, driven by
//! the sense-reversing spin-then-park [`Gate`].
//!
//! No runtime path uses it: the [`Fabric`](crate::fabric::Fabric) runs
//! every shard inline on the event-loop thread, because one epoch's
//! site work (a few microseconds) never paid for a barrier round. The
//! pool stays for the barrier-cost probes (the `barrier` bench group
//! and the end-to-end benchmark's `fabric.barrier_us`) until the next
//! benchmark change retires them, and the loom, TSan and Miri jobs keep
//! checking it meanwhile.
//!
//! The coordinator broadcasts one [`Command`] per barrier round; every
//! worker executes it against its own [`ShardState`] cell and the
//! coordinator blocks until all have finished. Between broadcasts the
//! coordinator is the only party touching the cells
//! ([`ShardPool::with_cell`] locks the owning cell uncontended).
//!
//! The barrier protocol itself — the generation sense, the park
//! protocol, the chosen memory orderings, and their machine-checked
//! justification — lives in [`crate::gate`]; this module owns what the
//! barrier carries: command encoding, the shard cells, and panic
//! propagation. A worker that panics mid-command records the panic on
//! the gate and still completes its round (a drop guard), so the
//! coordinator never deadlocks on a dead worker; [`ShardPool::run`]
//! then re-raises on the coordinator, and [`Drop`] joins without
//! double-panicking.
//!
//! Every synchronization primitive routes through [`crate::sync`], so
//! the whole pool — not just the gate — can run under loom in CI and
//! under ThreadSanitizer/Miri unchanged.

use crate::gate::{Gate, SPIN_BUDGET};
use crate::state::ShardState;
use crate::sync::{self, JoinHandle, Mutex, Thread};
use std::sync::Arc;

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

/// `cmd_kind` encodings published before the generation bump.
const CMD_NEXT_TIME: u32 = 0;
const CMD_ADVANCE_DUE: u32 = 1;
const CMD_SHUTDOWN: u32 = 2;

/// State shared between the coordinator and the workers.
#[derive(Debug)]
struct Shared {
    /// The broadcast/completion barrier.
    gate: Gate,
    /// One cell per shard; worker `i` only ever locks `cells[i]`.
    cells: Vec<Mutex<ShardState>>,
}

/// One persistent worker thread per shard (named `mrs-shard-{i}`),
/// joined on drop.
#[derive(Debug)]
pub struct ShardPool {
    shared: Arc<Shared>,
    /// Unpark handles, one per worker (same order as `cells`).
    threads: Vec<Thread>,
    workers: Vec<JoinHandle<()>>,
}

/// Completes the worker's round on drop — including the unwind path,
/// where it first marks the gate panicked so the coordinator can
/// re-raise instead of deadlocking on a `pending` count that would
/// never reach zero.
struct CompleteOnDrop<'a> {
    gate: &'a Gate,
}

impl Drop for CompleteOnDrop<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.gate.record_panic();
        }
        self.gate.complete();
    }
}

fn worker(shared: &Shared, shard: usize) {
    let mut seen = 0u64;
    loop {
        let (gen, kind, payload) = shared.gate.await_command(shard, seen);
        seen = gen;
        let cmd = match kind {
            CMD_SHUTDOWN => return,
            CMD_NEXT_TIME => Command::NextTime,
            _ => Command::AdvanceDue(f64::from_bits(payload)),
        };
        let _complete = CompleteOnDrop { gate: &shared.gate };
        {
            let mut cell = shared.cells[shard]
                .lock()
                .expect("shard cell poisoned: a worker panicked");
            match cmd {
                Command::NextTime => cell.compute_next(),
                Command::AdvanceDue(t) => cell.advance_due(t),
            }
        }
    }
}

impl ShardPool {
    /// Spawns one pinned worker per shard state.
    pub fn new(states: Vec<ShardState>) -> Self {
        let n = states.len();
        // Spinning only pays when the machine can actually run the other
        // side concurrently; on a saturated (or single-core) host it
        // steals the exact timeslice the workers need.
        let cores = sync::available_parallelism();
        let spin = if cores > n { SPIN_BUDGET } else { 0 };
        let shared = Arc::new(Shared {
            gate: Gate::new(n, spin),
            cells: states.into_iter().map(Mutex::new).collect(),
        });
        let workers: Vec<JoinHandle<()>> = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                sync::spawn_named(format!("mrs-shard-{i}"), move || worker(&shared, i))
            })
            .collect();
        let threads = workers.iter().map(JoinHandle::thread).collect();
        ShardPool {
            shared,
            threads,
            workers,
        }
    }

    /// Number of shards (= workers).
    pub fn shards(&self) -> usize {
        self.shared.cells.len()
    }

    /// Broadcasts `cmd` to every worker and blocks until all finish.
    /// Re-raises on the coordinator if any worker panicked this round.
    pub fn run(&self, cmd: Command) {
        let (kind, payload) = match cmd {
            Command::NextTime => (CMD_NEXT_TIME, 0),
            Command::AdvanceDue(t) => (CMD_ADVANCE_DUE, t.to_bits()),
        };
        self.shared.gate.broadcast(kind, payload, &self.threads);
        self.shared.gate.wait_done();
        assert!(
            !self.shared.gate.panicked(),
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
        // Unconditional wake: a dead (panicked) worker simply never
        // observes it, and the live ones exit without completing.
        self.shared
            .gate
            .broadcast_all(CMD_SHUTDOWN, 0, &self.threads);
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
    use mrs_core::vector::WorkVector;
    use mrs_sim::engine::{SimClone, SimConfig, SiteSim};

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
        for _ in 0..100 {
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
        for round in 0..200 {
            if round % 2 == 0 {
                pool.run(Command::NextTime);
            } else {
                pool.run(Command::AdvanceDue(round as f64));
            }
        }
        assert_eq!(pool.shards(), 5);
    }

    #[test]
    fn worker_panic_while_coordinator_parked_reraises_instead_of_deadlocking() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let pool = pool(2, 1);
        // Poison shard 0's cell from the coordinator side: the panic
        // unwinds through the cell's MutexGuard, so the *next* worker
        // lock sees the poison and panics mid-command — while the
        // coordinator is parked in wait_done.
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
        // surviving parked worker.
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
    fn shards_covering_every_core_take_the_spin_budget_zero_path() {
        // With shards >= cores the constructor must pick spin budget 0
        // (spinning would steal the timeslice the workers need), so
        // every one of these rounds goes through the full store-parked
        // -> re-check -> park leg on every host, regardless of core
        // count.
        let n = sync::available_parallelism();
        let pool = pool(n, 1);
        assert_eq!(pool.shards(), n);
        for round in 0..50 {
            pool.run(Command::NextTime);
            pool.run(Command::AdvanceDue(round as f64));
        }
    }

    #[test]
    fn drop_while_workers_parked_shuts_down_cleanly() {
        // Workers may still be starting up, spinning, or already parked
        // when the shutdown broadcast lands; repetition varies the OS
        // schedule across those phases. Each iteration must join all
        // workers (a hang here is a lost-unpark bug in the R8 leg).
        for _ in 0..30 {
            let fresh = pool(3, 1);
            drop(fresh);
        }
        for round in 0..30 {
            let busy = pool(3, 1);
            busy.run(Command::AdvanceDue(round as f64));
            drop(busy);
        }
    }
}

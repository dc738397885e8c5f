//! The gate and look-ahead model tests, re-run under real [loom].
//!
//! The in-repo checker (`shardexec::sync::model`, exercised by
//! `gate::tests::model_*`) and loom are independent implementations of
//! the same idea — bounded exhaustive exploration of a C11-style memory
//! model — so agreement between them is a meaningful cross-check on
//! both the gate *and* the checker. This file only compiles under
//! `--cfg loom`, where the `shardexec::sync` shim re-exports loom's
//! primitives and the loom dep is injected by the CI `loom` job:
//!
//! ```text
//! cargo add --target 'cfg(loom)' --package mrs-shardexec loom@0.7
//! RUSTFLAGS="--cfg loom" LOOM_MAX_PREEMPTIONS=3 \
//!   cargo test -p mrs-shardexec --test loom --release -- --test-threads=1
//! ```
//!
//! loom reads `LOOM_MAX_PREEMPTIONS` itself, so the CI bound applies
//! here without plumbing. The gate scenarios mirror `gate::tests`
//! one-for-one (the relaxation numbers R1..R8 refer to the comments in
//! `gate.rs`); the last one mirrors `ahead::tests`.
//!
//! [loom]: https://github.com/tokio-rs/loom
#![cfg(loom)]

use mrs_shardexec::ahead::Ahead;
use mrs_shardexec::gate::Gate;
use mrs_shardexec::sync::{spawn_named, AtomicU64, JoinHandle, Mutex};
use std::sync::Arc;

/// Shutdown kind used by the tests (the gate itself is agnostic).
const STOP: u32 = u32::MAX;

/// One waiter loops on the gate until told to stop, echoing each
/// payload into `data`.
fn echo_worker(gate: Arc<Gate>, data: Arc<AtomicU64>) -> JoinHandle<()> {
    spawn_named("w0".to_owned(), move || {
        let mut seen = 0u64;
        loop {
            let (gen, kind, payload) = gate.await_command(0, seen);
            seen = gen;
            if kind == STOP {
                return;
            }
            data.store_relaxed(payload);
            gate.complete();
        }
    })
}

#[test]
fn loom_handshake_one_worker() {
    // Mirrors model_handshake_one_worker: full protocol on the park
    // path (spin budget 0); checks R1/R3/R4 and R5/R7.
    loom::model(|| {
        let gate = Arc::new(Gate::new(1, 0));
        let data = Arc::new(AtomicU64::new(0));
        let h = echo_worker(Arc::clone(&gate), Arc::clone(&data));
        let workers = [h.thread()];
        gate.broadcast(7, 41, &workers);
        gate.wait_done();
        assert_eq!(data.load_relaxed(), 41, "payload lost in the round trip");
        assert!(!gate.panicked());
        gate.broadcast_all(STOP, 0, &workers);
        h.join().expect("worker exits cleanly");
    });
}

#[test]
fn loom_two_rounds_sense_reversal() {
    // Mirrors model_two_rounds_sense_reversal: stale parked flag (R2)
    // or banked unpark token (R6) must not leak across generations.
    loom::model(|| {
        let gate = Arc::new(Gate::new(1, 0));
        let data = Arc::new(AtomicU64::new(0));
        let h = echo_worker(Arc::clone(&gate), Arc::clone(&data));
        let workers = [h.thread()];
        gate.broadcast(1, 7, &workers);
        gate.wait_done();
        assert_eq!(data.load_relaxed(), 7);
        gate.broadcast(1, 9, &workers);
        gate.wait_done();
        assert_eq!(data.load_relaxed(), 9);
        gate.broadcast_all(STOP, 0, &workers);
        h.join().expect("worker exits cleanly");
    });
}

#[test]
fn loom_two_workers_single_round() {
    // Mirrors model_two_workers_single_round: the pending count reaches
    // zero exactly once and the last finisher wakes the coordinator.
    loom::model(|| {
        let gate = Arc::new(Gate::new(2, 0));
        let data = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let gate = Arc::clone(&gate);
                let cell = Arc::clone(&data[i]);
                spawn_named(format!("w{i}"), move || {
                    let mut seen = 0u64;
                    loop {
                        let (gen, kind, payload) = gate.await_command(i, seen);
                        seen = gen;
                        if kind == STOP {
                            return;
                        }
                        cell.store_relaxed(payload + i as u64);
                        gate.complete();
                    }
                })
            })
            .collect();
        let workers: Vec<_> = handles.iter().map(|h| h.thread()).collect();
        gate.broadcast(1, 10, &workers);
        gate.wait_done();
        assert_eq!(data[0].load_relaxed(), 10);
        assert_eq!(data[1].load_relaxed(), 11);
        gate.broadcast_all(STOP, 0, &workers);
        for h in handles {
            h.join().expect("worker exits cleanly");
        }
    });
}

#[test]
fn loom_spin_budget_fast_path() {
    // Mirrors model_spin_budget_fast_path: fast path (generation
    // observed without parking) explored alongside the park path.
    loom::model(|| {
        let gate = Arc::new(Gate::new(1, 1));
        let data = Arc::new(AtomicU64::new(0));
        let h = echo_worker(Arc::clone(&gate), Arc::clone(&data));
        let workers = [h.thread()];
        gate.broadcast(3, 5, &workers);
        gate.wait_done();
        assert_eq!(data.load_relaxed(), 5);
        gate.broadcast_all(STOP, 0, &workers);
        h.join().expect("worker exits cleanly");
    });
}

#[test]
fn loom_panic_flag_visible() {
    // Mirrors model_panic_flag_visible: record_panic is Relaxed and
    // rides the completion's release edge.
    loom::model(|| {
        let gate = Arc::new(Gate::new(1, 0));
        let g2 = Arc::clone(&gate);
        let h = spawn_named("w0".to_owned(), move || {
            let (_, kind, _) = g2.await_command(0, 0);
            if kind != STOP {
                g2.record_panic();
                g2.complete();
                let (_, kind, _) = g2.await_command(0, 1);
                assert_eq!(kind, STOP);
            }
        });
        let workers = [h.thread()];
        gate.broadcast(1, 0, &workers);
        gate.wait_done();
        assert!(gate.panicked(), "panic flag lost");
        gate.broadcast_all(STOP, 0, &workers);
        h.join().expect("worker exits cleanly");
    });
}

#[test]
fn loom_shutdown_wakes_parked_worker() {
    // Mirrors model_shutdown_wakes_parked_worker: the R8 release-only
    // generation bump plus unconditional unpark.
    loom::model(|| {
        let gate = Arc::new(Gate::new(1, 0));
        let g2 = Arc::clone(&gate);
        let h = spawn_named("w0".to_owned(), move || {
            let (_, kind, payload) = g2.await_command(0, 0);
            assert_eq!(kind, STOP);
            assert_eq!(payload, 123, "R8 release bump must publish the payload");
        });
        let workers = [h.thread()];
        gate.broadcast_all(STOP, 123, &workers);
        h.join().expect("worker exits cleanly");
    });
}

#[test]
fn loom_ahead_in_order_hand_off() {
    // Mirrors model_in_order_takes_produce_each_slot_once: three jobs,
    // window 1, taken in order; each slot is produced exactly once (by
    // the worker; the inline fallback runs only once it has stopped),
    // and the drop joins the worker.
    loom::model(|| {
        let made = Arc::new(Mutex::new([0u32; 3]));
        let counter = Arc::clone(&made);
        let ahead = Ahead::new(3, 1, move |i| {
            counter.lock().expect("counter unpoisoned")[i] += 1;
            10 * i
        });
        for i in 0..3 {
            let out = ahead.take(i, |&v| v).unwrap_or_else(|| {
                made.lock().expect("counter unpoisoned")[i] += 1;
                10 * i
            });
            assert_eq!(out, 10 * i, "wrong result");
        }
        drop(ahead);
        assert_eq!(*made.lock().expect("counter unpoisoned"), [1, 1, 1]);
    });
}

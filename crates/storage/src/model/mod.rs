//! An in-repo, `std`-only model checker in the style of `loom`,
//! specialized to the storage concurrency protocols.
//!
//! [`explore`] runs a closure under every (preemption-bounded)
//! interleaving of its model threads: each blocking acquire of a
//! [`sync::Mutex`]/[`sync::RwLock`] and each non-`Relaxed` operation on
//! a model atomic is a scheduling point, and the scheduler DFS-walks
//! the decision tree one schedule per run (see `sched`). Under
//! `--cfg vdb_loom`, [`crate::sync`] routes the real
//! `OrderedMutex`/`OrderedRwLock` and the `sync::atomic` facade through
//! these instrumented types, so the *actual* buffer-pool and change-log
//! code is what gets explored ([`scenarios`]). Without the cfg, the
//! same scenarios compile and run as single-schedule smoke tests, and
//! the deliberately buggy protocol replicas in [`scenarios`] — which
//! use the model types directly — still explore for real.
//!
//! ## Honest scope
//!
//! This is not `loom` (the container image is offline, so no external
//! crates): it explores thread *interleavings* under sequential
//! consistency. It will catch atomicity bugs, ordering-protocol bugs
//! (lost updates, skipped revalidation, double-applied cursors) and
//! deadlocks, but not weak-memory reorderings — those are covered by
//! the rule that protocol atomics must pair Acquire/Release (`cargo
//! xtask lint`, `atomic-ordering`) plus the ThreadSanitizer CI job.
//!
//! Determinism is load-bearing: model bodies must not branch on wall
//! clocks, randomness, or anything else that varies between replays —
//! the scheduler asserts that replayed decisions see identical
//! runnable sets and fails the run otherwise.

pub mod scenarios;
mod sched;
pub mod sync;
pub mod thread;

pub use sched::Config;

use sched::Controller;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// The lock backend [`crate::sync`] uses under `vdb_loom`, in place of
/// `sync::std_lock`.
pub mod plimp {
    pub use super::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
}

/// Run `body` under every schedule the configuration admits and return
/// how many schedules were explored. Panics (with the original
/// payload) as soon as any schedule panics — assertion failures inside
/// the body are how model invariants report violations.
pub fn explore<F>(cfg: Config, body: F) -> usize
where
    F: Fn() + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let ctl = Arc::new(Controller::new(cfg));
    let mut schedules = 0usize;
    loop {
        schedules += 1;
        ctl.reset_run();
        let root = ctl.register();
        debug_assert_eq!(root, 0, "root thread must register first");
        let handle = {
            let ctl = Arc::clone(&ctl);
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                sched::set_ctx(Arc::clone(&ctl), 0);
                ctl.start_wait(0);
                match panic::catch_unwind(AssertUnwindSafe(|| body())) {
                    Ok(()) => ctl.finish(0, None),
                    Err(p) => ctl.finish(0, Some(p)),
                }
            })
        };
        ctl.launch();
        ctl.wait_run_end();
        let _ = handle.join();
        if let Some(p) = ctl.take_payload() {
            panic::resume_unwind(p);
        }
        if schedules >= cfg.max_schedules || !ctl.advance() {
            return schedules;
        }
    }
}

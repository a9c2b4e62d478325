//! Executable concurrency models of the change-log replay protocol.
//!
//! Positive models drive the *real* [`ChangeLog`] — append racing
//! drain never skips or double-applies a record, `drain_with` is a
//! true barrier (everything appended before the call starts is applied
//! when it returns), and the `head`/`applied` cursors never cross.
//! Under `--cfg vdb_loom` the log's mutex and cursor atomics are
//! instrumented and every (preemption-bounded) interleaving is
//! explored; without the cfg the same functions run single-schedule as
//! smoke tests.
//!
//! [`mini_log_model`] replicates the cursor protocol directly on the
//! model primitives — always instrumented — with a switch seeding the
//! classic bug: publishing the applied cursor after dropping the
//! records lock, which lets two drainers double-apply. The negative
//! test in `crates/decoupled/tests/loom_changelog.rs` proves the
//! explorer catches it.

use crate::changelog::{ChangeLog, ChangeRecord};
use std::sync::Arc;
use vdb_storage::model::sync as msync;
use vdb_storage::model::thread as mthread;
use vdb_storage::model::{explore, Config};
use vdb_storage::sync::atomic::Ordering;
use vdb_storage::Tid;

/// Number of records the appender writes in each model.
pub const MODEL_RECORDS: u64 = 2;

fn insert(id: u64) -> ChangeRecord {
    ChangeRecord::Insert {
        id,
        tid: Tid::new(0, 1),
        vector: vec![id as f32],
    }
}

fn record_id(rec: &ChangeRecord) -> u64 {
    match rec {
        ChangeRecord::Insert { id, .. } => *id,
        ChangeRecord::Delete { id } => *id,
    }
}

/// Protocol (b), exactly-once: an appender races a drainer. Every
/// record is applied exactly once, in append order, across the
/// concurrent drains and the final catch-up drain.
pub fn changelog_exactly_once(cfg: Config) -> usize {
    explore(cfg, || {
        let log = Arc::new(ChangeLog::new());
        let appender = {
            let log = Arc::clone(&log);
            mthread::spawn(move || {
                for id in 0..MODEL_RECORDS {
                    log.append(insert(id));
                }
            })
        };
        let drainer = {
            let log = Arc::clone(&log);
            mthread::spawn(move || {
                let mut seen = Vec::new();
                log.drain_with(|rec| seen.push(record_id(rec)));
                seen
            })
        };
        appender.join();
        let mut seen = drainer.join();
        log.drain_with(|rec| seen.push(record_id(rec)));
        // The concurrent drain happened-before the final one, so the
        // concatenation must be every record exactly once, in order.
        let expect: Vec<u64> = (0..MODEL_RECORDS).collect();
        assert_eq!(seen, expect, "records skipped or double-applied");
        assert_eq!(log.lag(), 0, "final drain must catch up");
    })
}

/// Protocol (b), barrier: whatever head a thread observes before
/// calling `drain_with`, the applied cursor has passed it when the
/// call returns — even with an appender racing in.
pub fn changelog_refresh_barrier(cfg: Config) -> usize {
    explore(cfg, || {
        let log = Arc::new(ChangeLog::new());
        let appender = {
            let log = Arc::clone(&log);
            mthread::spawn(move || {
                for id in 0..MODEL_RECORDS {
                    log.append(insert(id));
                }
            })
        };
        let refresher = {
            let log = Arc::clone(&log);
            mthread::spawn(move || {
                let head_before = log.head();
                log.drain_with(|_| {});
                assert!(
                    log.applied() >= head_before,
                    "drain_with returned without covering the head it started from"
                );
            })
        };
        appender.join();
        refresher.join();
    })
}

/// Protocol (b), bounded staleness: the cursors never cross — sampled
/// in `applied`-then-`head` order, `applied <= head` holds on every
/// interleaving, so a `Bounded(n)` read path deciding on `lag()` never
/// underestimates its staleness.
pub fn changelog_bounded_staleness(cfg: Config) -> usize {
    explore(cfg, || {
        let log = Arc::new(ChangeLog::new());
        let writer = {
            let log = Arc::clone(&log);
            mthread::spawn(move || {
                for id in 0..MODEL_RECORDS {
                    log.append(insert(id));
                    log.drain_with(|_| {});
                }
            })
        };
        let sampler = {
            let log = Arc::clone(&log);
            mthread::spawn(move || {
                for _ in 0..2 {
                    let applied = log.applied();
                    let head = log.head();
                    assert!(
                        applied <= head,
                        "applied cursor ({applied}) overtook head ({head})"
                    );
                }
            })
        };
        writer.join();
        sampler.join();
    })
}

// ---- seeded-bug replica: the applied-cursor publication ----------------

/// Replica of the cursor protocol on model primitives: records under a
/// mutex, the applied cursor in an atomic — like the real
/// [`ChangeLog`], minus the payloads.
struct MiniLog {
    records: msync::Mutex<Vec<u64>>,
    applied: msync::AtomicU64,
}

/// Drain the replica. `atomic_cursor` is the protocol switch: the
/// correct drain holds the records lock from cursor read to cursor
/// publication; the seeded bug snapshots under the lock but applies
/// and publishes after releasing it, so two drainers can both read the
/// same cursor and double-apply.
fn mini_drain(log: &MiniLog, atomic_cursor: bool, apply: &mut dyn FnMut(u64)) {
    if atomic_cursor {
        let g = log.records.lock();
        let from = log.applied.load(Ordering::Acquire) as usize;
        for &v in &g[from..] {
            apply(v);
        }
        log.applied.store(g.len() as u64, Ordering::Release);
    } else {
        let (from, upto, snapshot) = {
            let g = log.records.lock();
            let from = log.applied.load(Ordering::Acquire) as usize;
            (from, g.len(), g.clone())
        };
        for &v in &snapshot[from..upto] {
            apply(v);
        }
        log.applied.store(upto as u64, Ordering::Release);
    }
}

/// Model over `MiniLog`: two drainers race over a pre-filled log,
/// counting how often each record is applied. With the atomic cursor
/// every schedule applies each record exactly once; with the seeded
/// bug the explorer finds the double-apply (`#[should_panic]` in the
/// negative test).
pub fn mini_log_model(cfg: Config, atomic_cursor: bool) -> usize {
    explore(cfg, move || {
        let log = Arc::new(MiniLog {
            records: msync::Mutex::new((0..MODEL_RECORDS).collect()),
            applied: msync::AtomicU64::new(0),
        });
        let counts = Arc::new(msync::Mutex::new(vec![0usize; MODEL_RECORDS as usize]));
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let log = Arc::clone(&log);
                let counts = Arc::clone(&counts);
                mthread::spawn(move || {
                    mini_drain(&log, atomic_cursor, &mut |v| {
                        let mut c = counts.lock();
                        c[v as usize] += 1;
                        assert!(c[v as usize] <= 1, "record {v} applied twice");
                    });
                })
            })
            .collect();
        for d in drainers {
            d.join();
        }
        let counts = counts.lock();
        assert!(
            counts.iter().all(|&c| c == 1),
            "some record was never applied"
        );
    })
}

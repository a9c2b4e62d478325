//! The admission/batching scheduler.
//!
//! Concurrent top-k queries against one index queue under a single
//! [`LockClass::ServeQueue`] mutex. The first submitter to find the
//! queue idle becomes the **leader**: it waits until either
//! [`BatchConfig::max_batch`] queries are queued or
//! [`BatchConfig::max_wait_us`] has elapsed, drains everything,
//! partitions by search knob (queries with different `nprobe` cannot
//! share an index pass), executes each partition in chunks of at most
//! `max_batch` through the *submitter-supplied* closure, and fans the
//! per-query results back over channels. Followers just block on their
//! channel — by the time they wake, the leader has already done their
//! work as part of one SGEMM-amortized index pass.
//!
//! Lock discipline: `ServeQueue` is rank 0 — the tracker requires that
//! nothing be held when acquiring it, so an engine closure that
//! re-submits into a scheduler panics (under `strict-invariants`)
//! instead of deadlocking. The queue lock is never held across the
//! executor closure: the leader drains first, releases, then runs the
//! batch, keeping admission open while a batch executes.
//!
//! Errors cross the fan-out as `String` (every waiter of a failed batch
//! gets a clone); the executor itself returns `Result<Vec<Vec<Neighbor>>,
//! String>` with one result vector per query, in submission order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vdb_profile::{scoped, Category};
use vdb_storage::lockorder::LockClass;
use vdb_storage::sync::OrderedMutex;
use vdb_vecmath::{Neighbor, VectorSet};

/// Batching-window parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchConfig {
    /// Maximum queries per batch (the `Q` of the `Q×d` query matrix).
    /// A full queue closes the window early.
    pub max_batch: usize,
    /// Maximum time the leader holds the window open waiting for
    /// stragglers, in microseconds. `0` means drain immediately —
    /// batching then only groups queries that were already queued.
    pub max_wait_us: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            max_wait_us: 200,
        }
    }
}

/// Cumulative scheduler counters (for benches and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Executor invocations (batches run).
    pub batches: u64,
    /// Queries served.
    pub queries: u64,
}

type Reply = mpsc::Sender<Result<Vec<Neighbor>, String>>;

struct Pending {
    vector: Vec<f32>,
    k: usize,
    knob: Option<usize>,
    reply: Reply,
}

struct Queue {
    pending: Vec<Pending>,
    leader_active: bool,
}

/// A per-index admission scheduler (see module docs).
pub struct BatchScheduler {
    cfg: BatchConfig,
    dim: usize,
    queue: OrderedMutex<Queue>,
    batches: AtomicU64,
    queries: AtomicU64,
}

impl BatchScheduler {
    /// A scheduler for an index of dimensionality `dim`.
    pub fn new(cfg: BatchConfig, dim: usize) -> BatchScheduler {
        BatchScheduler {
            cfg,
            dim,
            queue: OrderedMutex::new(
                LockClass::ServeQueue,
                Queue {
                    pending: Vec::new(),
                    leader_active: false,
                },
            ),
            batches: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// The config the scheduler was built with.
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            // RELAXED-OK: monotonic stats counters read for reporting only.
            batches: self.batches.load(Ordering::Relaxed),
            // RELAXED-OK: monotonic stats counters read for reporting only.
            queries: self.queries.load(Ordering::Relaxed),
        }
    }

    /// Submit one top-k query and block until its result is ready.
    ///
    /// `exec(queries, ks, knob)` evaluates a whole batch (row-major
    /// packed queries, per-query k, shared search knob) and returns one
    /// neighbor list per query in order. Every submitter passes its own
    /// executor; whichever thread ends up leading a batch runs *its*
    /// closure for everyone in it — submitters to one scheduler must
    /// therefore be homogeneous (all targeting the same index), which
    /// the per-index scheduler registry in `vdb-sql` guarantees.
    pub fn submit<F>(
        &self,
        vector: Vec<f32>,
        k: usize,
        knob: Option<usize>,
        mut exec: F,
    ) -> Result<Vec<Neighbor>, String>
    where
        F: FnMut(&VectorSet, &[usize], Option<usize>) -> Result<Vec<Vec<Neighbor>>, String>,
    {
        if vector.len() != self.dim {
            return Err(format!(
                "query dimension {} does not match index dimension {}",
                vector.len(),
                self.dim
            ));
        }
        if k == 0 {
            return Err("k must be positive".into());
        }
        let (tx, rx) = mpsc::channel();
        let lead = {
            let mut q = self.queue.lock();
            q.pending.push(Pending {
                vector,
                k,
                knob,
                reply: tx,
            });
            if q.leader_active {
                false
            } else {
                q.leader_active = true;
                true
            }
        };
        if lead {
            let drained = self.hold_window();
            self.run(drained, &mut exec);
        }
        match rx.recv() {
            Ok(res) => res,
            Err(_) => Err("batch leader dropped the reply channel".into()),
        }
    }

    /// Leader: keep the window open until the batch fills or the wait
    /// expires, then drain the queue and hand leadership back.
    fn hold_window(&self) -> Vec<Pending> {
        let start = Instant::now();
        let wait = Duration::from_micros(self.cfg.max_wait_us);
        // Poll in slices an order of magnitude finer than the window so
        // a filling batch closes promptly.
        let slice = (wait / 10).max(Duration::from_micros(10));
        loop {
            {
                let mut q = self.queue.lock();
                if q.pending.len() >= self.cfg.max_batch.max(1) || start.elapsed() >= wait {
                    q.leader_active = false;
                    return std::mem::take(&mut q.pending);
                }
            }
            std::thread::sleep(slice);
        }
    }

    /// Execute a drained queue: partition by knob (stable), chunk to
    /// `max_batch`, run, fan out.
    fn run<F>(&self, drained: Vec<Pending>, exec: &mut F)
    where
        F: FnMut(&VectorSet, &[usize], Option<usize>) -> Result<Vec<Vec<Neighbor>>, String>,
    {
        let mut groups: Vec<(Option<usize>, Vec<Pending>)> = Vec::new();
        for p in drained {
            match groups.iter_mut().find(|(knob, _)| *knob == p.knob) {
                Some((_, group)) => group.push(p),
                None => groups.push((p.knob, vec![p])),
            }
        }
        for (knob, group) in groups {
            let mut rest = group;
            while !rest.is_empty() {
                let take = rest.len().min(self.cfg.max_batch.max(1));
                let tail = rest.split_off(take);
                let chunk = std::mem::replace(&mut rest, tail);
                self.run_chunk(knob, chunk, exec);
            }
        }
    }

    fn run_chunk<F>(&self, knob: Option<usize>, chunk: Vec<Pending>, exec: &mut F)
    where
        F: FnMut(&VectorSet, &[usize], Option<usize>) -> Result<Vec<Vec<Neighbor>>, String>,
    {
        let (queries, ks) = {
            let _t = scoped(Category::BatchAssembly);
            let mut queries = VectorSet::empty(self.dim);
            let mut ks = Vec::with_capacity(chunk.len());
            for p in &chunk {
                queries.push(&p.vector);
                ks.push(p.k);
            }
            (queries, ks)
        };
        // RELAXED-OK: monotonic stats counters, never synchronized on.
        self.batches.fetch_add(1, Ordering::Relaxed);
        // RELAXED-OK: monotonic stats counters, never synchronized on.
        self.queries
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        match exec(&queries, &ks, knob) {
            Ok(results) if results.len() == chunk.len() => {
                for (p, res) in chunk.into_iter().zip(results) {
                    // A submitter that gave up waiting closed its
                    // receiver; nothing to deliver to.
                    let _ = p.reply.send(Ok(res));
                }
            }
            Ok(results) => {
                let msg = format!(
                    "batch executor returned {} results for {} queries",
                    results.len(),
                    chunk.len()
                );
                for p in chunk {
                    let _ = p.reply.send(Err(msg.clone()));
                }
            }
            Err(e) => {
                for p in chunk {
                    let _ = p.reply.send(Err(e.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier, Mutex};

    /// A trivial executor: "distance" is the first component of the
    /// query plus the knob; ids count up to k.
    fn toy_exec(
        queries: &VectorSet,
        ks: &[usize],
        knob: Option<usize>,
    ) -> Result<Vec<Vec<Neighbor>>, String> {
        Ok(queries
            .iter()
            .zip(ks)
            .map(|(q, &k)| {
                (0..k as u64)
                    .map(|id| Neighbor::new(id, q[0] + knob.unwrap_or(0) as f32))
                    .collect()
            })
            .collect())
    }

    #[test]
    fn single_submit_round_trips() {
        let s = BatchScheduler::new(
            BatchConfig {
                max_batch: 4,
                max_wait_us: 0,
            },
            2,
        );
        let res = s.submit(vec![3.0, 0.0], 2, Some(5), toy_exec).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].distance, 8.0);
        assert_eq!(
            s.stats(),
            SchedulerStats {
                batches: 1,
                queries: 1
            }
        );
    }

    #[test]
    fn dimension_and_k_are_validated() {
        let s = BatchScheduler::new(BatchConfig::default(), 3);
        assert!(s.submit(vec![1.0], 1, None, toy_exec).is_err());
        assert!(s.submit(vec![1.0; 3], 0, None, toy_exec).is_err());
        assert_eq!(s.stats().batches, 0);
    }

    #[test]
    fn concurrent_submits_share_batches() {
        // 8 threads, window held open until the batch fills: the
        // scheduler must group them into far fewer executor calls, and
        // every thread must get its own k-sized result back.
        let n = 8;
        let s = Arc::new(BatchScheduler::new(
            BatchConfig {
                max_batch: n,
                max_wait_us: 200_000,
            },
            2,
        ));
        let barrier = Arc::new(Barrier::new(n));
        let max_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..n {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                let max_seen = Arc::clone(&max_seen);
                scope.spawn(move || {
                    barrier.wait();
                    let k = t + 1;
                    let res = s
                        .submit(vec![t as f32, 0.0], k, None, |qs, ks, knob| {
                            max_seen.fetch_max(qs.len(), Ordering::SeqCst);
                            toy_exec(qs, ks, knob)
                        })
                        .unwrap();
                    assert_eq!(res.len(), k, "per-query k respected");
                    assert_eq!(res[0].distance, t as f32);
                });
            }
        });
        let stats = s.stats();
        assert_eq!(stats.queries, n as u64);
        assert!(
            max_seen.load(Ordering::SeqCst) > 1,
            "no batching happened: {stats:?}"
        );
        assert!(stats.batches < n as u64, "every query ran solo: {stats:?}");
    }

    #[test]
    fn mixed_knobs_split_into_homogeneous_batches() {
        let n = 6;
        let s = Arc::new(BatchScheduler::new(
            BatchConfig {
                max_batch: n,
                max_wait_us: 100_000,
            },
            1,
        ));
        let barrier = Arc::new(Barrier::new(n));
        let seen = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for t in 0..n {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                let seen = Arc::clone(&seen);
                scope.spawn(move || {
                    barrier.wait();
                    let knob = Some(t % 2);
                    let res = s
                        .submit(vec![t as f32], 1, knob, |qs, ks, kn| {
                            seen.lock().unwrap().push((qs.len(), kn));
                            toy_exec(qs, ks, kn)
                        })
                        .unwrap();
                    // knob flows through to the executor and the result
                    assert_eq!(res[0].distance, t as f32 + (t % 2) as f32);
                });
            }
        });
        for (len, knob) in seen.lock().unwrap().iter() {
            assert!(knob.is_some(), "knob lost in batching");
            assert!(*len <= n, "chunking exceeded max_batch");
        }
    }

    #[test]
    fn oversize_queue_is_chunked_to_max_batch() {
        // Five concurrent submitters against max_batch = 2: whatever
        // the leader drains beyond 2 must be split into ≤2-query
        // executor calls.
        let s = Arc::new(BatchScheduler::new(
            BatchConfig {
                max_batch: 2,
                max_wait_us: 50_000,
            },
            1,
        ));
        let n = 5;
        let barrier = Arc::new(Barrier::new(n));
        let sizes = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for t in 0..n {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                let sizes = Arc::clone(&sizes);
                scope.spawn(move || {
                    barrier.wait();
                    let res = s
                        .submit(vec![t as f32], 1, None, |qs, ks, kn| {
                            sizes.lock().unwrap().push(qs.len());
                            toy_exec(qs, ks, kn)
                        })
                        .unwrap();
                    assert_eq!(res[0].distance, t as f32);
                });
            }
        });
        assert!(sizes.lock().unwrap().iter().all(|&b| b <= 2));
        assert_eq!(s.stats().queries, n as u64);
    }

    #[test]
    fn executor_errors_reach_every_waiter() {
        let s = Arc::new(BatchScheduler::new(
            BatchConfig {
                max_batch: 4,
                max_wait_us: 50_000,
            },
            1,
        ));
        let n = 4;
        let barrier = Arc::new(Barrier::new(n));
        std::thread::scope(|scope| {
            for t in 0..n {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let err = s
                        .submit(vec![t as f32], 1, None, |_, _, _| {
                            Err("engine exploded".into())
                        })
                        .unwrap_err();
                    assert!(err.contains("engine exploded"));
                });
            }
        });
    }

    #[test]
    fn arity_mismatch_is_an_error_not_a_misdelivery() {
        let s = BatchScheduler::new(
            BatchConfig {
                max_batch: 2,
                max_wait_us: 0,
            },
            1,
        );
        let err = s
            .submit(vec![1.0], 1, None, |_, _, _| Ok(vec![]))
            .unwrap_err();
        assert!(err.contains("0 results for 1 queries"), "{err}");
    }
}

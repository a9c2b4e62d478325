//! The six workloads and the loop that drives them.
//!
//! Every caller of this embedded engine waits for its reply, so each
//! workload is a closed loop: a client issues its next statement when
//! the previous one has returned. One client, except where stated.

use crate::check::{self, Recall, Sample};
use crate::inputs::{Inputs, Mix, Op, OpKind, OpStream, K, NPROBE};
use crate::layers::{self, Bitmap, Db, Engine, Filter, PoolCounters, Scheduler, Specialized, Twin};
use crate::metrics::{self, Values};
use crate::stats;
use crate::trace::{self, Recorder, SpanId, NO_PARENT};
use std::sync::RwLock;
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also its `why` in `BENCHMARK.json`).
    pub why: &'static str,
    pub engine: Engine,
    /// Pool at a quarter of heap + index pages instead of all resident.
    pub cold: bool,
    pub clients: usize,
    pub batched: bool,
    pub mix: Mix,
    /// `recall_at_10` below this fails the run. Frozen at the commit that
    /// added the benchmark, about 0.02 under the lowest of thirty seeds
    /// there (0.906 unfiltered, 0.895 under churn, 0.671 filtered, where
    /// post-filter recall is a known failure).
    pub recall_floor: f64,
    /// Operations, from the first after warm-up, whose results feed
    /// `recall_at_10`.
    pub recall_ops: usize,
    /// Operations of the traced pass's counting phase.
    pub count_ops: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "topk.generalized",
        why: "The paper's subject path, all pages resident: page-based IVF_FLAT scan, buffer-pool hit path and the reference distance kernel do nearly all the work.",
        engine: Engine::Generalized,
        cold: false,
        clients: 1,
        batched: false,
        mix: Mix::TopK,
        recall_floor: 0.88,
        recall_ops: 500,
        count_ops: 500,
    },
    Workload {
        name: "topk.decoupled",
        why: "Same data and SQL on the decoupled engine: zero buffer pins and a cheap scan, so the SQL front-end shows; the bypass workload for any storage or generalized change.",
        engine: Engine::Decoupled,
        cold: false,
        clients: 1,
        batched: false,
        mix: Mix::TopK,
        recall_floor: 0.88,
        recall_ops: 500,
        count_ops: 500,
    },
    Workload {
        name: "topk.generalized.cold",
        why: "Buffer pool at a quarter of heap plus index pages: the only workload where storage misses, evictions and clock sweeps run.",
        engine: Engine::Generalized,
        cold: true,
        clients: 1,
        batched: false,
        mix: Mix::TopK,
        recall_floor: 0.88,
        recall_ops: 500,
        count_ops: 500,
    },
    Workload {
        name: "topk.generalized.batched-2c",
        why: "Two clients under ServeMode::Batched: the only workload where the admission window, batch assembly, the SGEMM distance table and scan_batch run.",
        engine: Engine::Generalized,
        cold: false,
        clients: 2,
        batched: true,
        mix: Mix::TopK,
        recall_floor: 0.88,
        recall_ops: 500,
        count_ops: 500,
    },
    Workload {
        name: "filtered.generalized",
        why: "WHERE price < t at 0.1 % to 50 % selectivity over 100k rows: predicate evaluation, bitmap build, strategy choice and two full heap passes per query dominate.",
        engine: Engine::Generalized,
        cold: false,
        clients: 1,
        batched: false,
        mix: Mix::Filtered,
        recall_floor: 0.65,
        recall_ops: 400,
        count_ops: 100,
    },
    Workload {
        name: "churn.generalized",
        why: "80 % SELECT, 10 % INSERT, 10 % DELETE from one client: writes beside reads, so dead entries, over-fetch and index size grow while latency is measured.",
        engine: Engine::Generalized,
        cold: false,
        clients: 1,
        batched: false,
        mix: Mix::Churn,
        recall_floor: 0.87,
        recall_ops: 2000,
        count_ops: 500,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Epochs the measured phase is cut into; `qps` and `p99_ms` are the
/// median epoch's, so one disturbed stretch of a run does not set them.
const EPOCHS: usize = 5;

pub struct RunConfig {
    pub seconds: f64,
    pub trace: bool,
    /// Times the database is set up; `setup_s` is their median.
    pub setups: usize,
    /// Where `trace-<workload>.jsonl` goes, if anywhere.
    pub trace_dir: Option<std::path::PathBuf>,
}

pub struct Report {
    pub workload: &'static Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines of the run record.
    pub notes: Vec<String>,
}

// ------------------------------------------------------------ client loop

/// A phase ends at whichever limit comes first.
#[derive(Clone, Copy)]
struct Stop {
    ops_per_client: usize,
    deadline: Instant,
}

/// What the traced pass needs beside the database.
struct Twins {
    twin: RwLock<Twin>,
    scheduler: Scheduler,
}

const TWIN_LOCK: &str = "no thread panics while holding the twin lock";

/// One client's tracing state.
struct ClientTrace<'a> {
    rec: Recorder,
    twins: &'a Twins,
    inputs: &'a Inputs,
    scan_name: &'static str,
    batched: bool,
    /// DELETEs so far: the executor over-fetches by the dead-set size.
    dead: usize,
    pre_filter_plans: usize,
    filter_plans: usize,
    /// `(queries, exec_ns)` of every batch this client led.
    batches: Vec<(usize, u64)>,
}

impl ClientTrace<'_> {
    /// The benchmark's own calls into each layer for the request whose
    /// root span is `root`, with the inputs the root call had.
    fn children(&mut self, db: &Db, op: &Op, root: SpanId) -> Result<(), String> {
        let req = op.index;
        match op.kind {
            OpKind::Delete { .. } => {
                self.rec
                    .span(req, root, "sql.parse", || layers::parse_only(&op.sql));
                self.dead += 1;
            }
            OpKind::Insert { id } => {
                self.rec
                    .span(req, root, "sql.parse", || layers::parse_only(&op.sql));
                let mut twin = self.twins.twin.write().expect(TWIN_LOCK);
                let vector = self.inputs.inserted_vector(id);
                self.rec
                    .span(req, root, "generalized.insert", || {
                        twin.insert(id as u64, vector)
                    })
                    .0?;
            }
            OpKind::Read { query, class } => {
                let explain_sql = format!("EXPLAIN {}", op.sql);
                let (plan, explain) = self
                    .rec
                    .span(req, root, "sql.explain", || db.explain(&explain_sql));
                let plan = plan?;
                self.rec
                    .span(req, explain, "sql.parse", || layers::parse_only(&op.sql));
                let vector = self.inputs.data.queries.row(query as usize);
                let twin = self.twins.twin.read().expect(TWIN_LOCK);
                let scanned = if class.is_some() {
                    let pre = layers::plan_is_pre_filter(&plan)
                        .ok_or_else(|| format!("no filter strategy in plan: {plan}"))?;
                    self.filter_plans += 1;
                    self.pre_filter_plans += usize::from(pre);
                    let attrs = &self.inputs.data.attrs[..self.inputs.scale.rows];
                    let filter = Filter::from_select(&op.sql)?;
                    let (bitmap, _) = self
                        .rec
                        .span(req, root, "filter.bitmap_build", || filter.bitmap(attrs));
                    self.rec.span(req, root, self.scan_name, || {
                        twin.scan_filtered(vector, K, &bitmap, pre, NPROBE)
                    })
                } else if self.batched {
                    let submit = self.rec.open(req, root, "serve.submit");
                    let (rec, batches) = (&mut self.rec, &mut self.batches);
                    let found = self.twins.scheduler.submit(
                        &twin,
                        vector,
                        K,
                        NPROBE,
                        |queries, start, end| {
                            rec.push(req, submit, "generalized.scan_batch", start, end);
                            batches.push((queries, (end - start).as_nanos() as u64));
                        },
                    );
                    self.rec.close(submit);
                    (found, submit)
                } else {
                    self.rec.span(req, root, self.scan_name, || {
                        twin.scan(vector, K + self.dead, NPROBE)
                    })
                };
                scanned.0?;
            }
        }
        Ok(())
    }
}

/// Reads go through `&Db` and may be shared by clients; writes need the
/// database to themselves, as `Database::execute` does.
enum DbHandle<'a> {
    Shared(&'a Db),
    Exclusive(&'a mut Db),
}

impl DbHandle<'_> {
    fn shared(&self) -> &Db {
        match self {
            DbHandle::Shared(db) => db,
            DbHandle::Exclusive(db) => db,
        }
    }

    fn run(&mut self, op: &Op) -> Result<layers::Rows, String> {
        match (&op.kind, self) {
            (OpKind::Read { .. }, handle) => handle.shared().query(&op.sql),
            (_, DbHandle::Exclusive(db)) => db.execute(&op.sql).map(|()| Vec::new()),
            (_, DbHandle::Shared(_)) => Err("a write reached a shared database handle".into()),
        }
    }
}

/// Run one client's closed loop until `stop`.
fn client_loop(
    mut db: DbHandle<'_>,
    stream: &mut OpStream<'_>,
    stop: Stop,
    origin: Instant,
    mut tracer: Option<&mut ClientTrace<'_>>,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    while samples.len() < stop.ops_per_client && Instant::now() < stop.deadline {
        let op = stream.next().expect("op streams are endless");
        let start = Instant::now();
        let reply = db.run(&op);
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let root_name = match op.kind {
                OpKind::Read { .. } => "sql.query",
                OpKind::Insert { .. } => "sql.insert",
                OpKind::Delete { .. } => "sql.delete",
            };
            let root = t.rec.push(op.index, NO_PARENT, root_name, start, end);
            t.children(db.shared(), &op, root)?;
        }
        samples.push(Sample {
            index: op.index,
            kind: op.kind,
            start_ns: (start - origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
            reply,
        });
    }
    Ok(samples)
}

/// One phase of a run: every client loops until `stop`.
fn run_phase(
    db: &mut Db,
    streams: &mut [OpStream<'_>],
    stop: Stop,
    origin: Instant,
    tracers: Option<&mut Vec<ClientTrace<'_>>>,
) -> Result<Vec<Sample>, String> {
    if let [stream] = streams {
        let tracer = tracers.map(|t| &mut t[0]);
        return client_loop(DbHandle::Exclusive(db), stream, stop, origin, tracer);
    }
    let shared: &Db = db;
    let tracer_slots: Vec<Option<&mut ClientTrace<'_>>> = match tracers {
        Some(t) => t.iter_mut().map(Some).collect(),
        None => streams.iter().map(|_| None).collect(),
    };
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(tracer_slots)
            .map(|(stream, tracer)| {
                scope.spawn(move || {
                    client_loop(DbHandle::Shared(shared), stream, stop, origin, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for samples in per_client {
        all.extend(samples?);
    }
    Ok(all)
}

// -------------------------------------------------------------------- run

/// Build the workload's database, drive it, check it, measure it.
pub fn run(w: &'static Workload, inputs: &Inputs, cfg: &RunConfig) -> Result<Report, String> {
    let scale = inputs.scale;
    let pool_pages = if w.cold {
        scale.cold_pool_pages
    } else {
        scale.resident_pool_pages
    };
    let mut values = Values::default();
    let mut notes = Vec::new();

    // Set-up, repeated. The first also pays for faulting in a fresh pool.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setups.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(Db::setup(&inputs.data, w.engine, scale.ivf, pool_pages)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut db, setup_times) = built.expect("set up at least once");
    db.set_batched(w.batched);
    let heap_pages = db.heap_pages();
    let index_pages = db.index_bytes()? / layers::PAGE_BYTES;
    notes.push(format!(
        "pool {pool_pages} pages; working set {heap_pages} heap + {index_pages} index pages; set-ups took {} s",
        rounded(&setup_s)
    ));

    let twins = if cfg.trace {
        let twin = Twin::build(&inputs.data, w.engine, scale.ivf, pool_pages)?;
        values.set(
            "vecmath.rows_per_query",
            NPROBE as f64 * twin.mean_bucket_rows(),
        );
        Some(Twins {
            twin: RwLock::new(twin),
            scheduler: Scheduler::new(inputs.data.base.dim()),
        })
    } else {
        None
    };

    // Warm-up: one read-only pass over the query set, cut short on the
    // slow mixes so that it stays a fraction of the run.
    let origin = Instant::now();
    let warm_mix = if w.mix == Mix::Churn {
        Mix::TopK
    } else {
        w.mix
    };
    let mut warm: Vec<OpStream> = (0..w.clients)
        .map(|c| inputs.ops(warm_mix, c, w.clients))
        .collect();
    let warm_stop = Stop {
        ops_per_client: scale.n_queries / w.clients,
        deadline: origin + Duration::from_secs_f64(cfg.seconds / 4.0),
    };
    let warmed = run_phase(&mut db, &mut warm, warm_stop, origin, None)?.len();

    let mut streams: Vec<OpStream> = (0..w.clients)
        .map(|c| inputs.ops(w.mix, c, w.clients))
        .collect();
    let mut tracers: Option<Vec<ClientTrace>> = twins.as_ref().map(|twins| {
        (0..w.clients)
            .map(|c| ClientTrace {
                rec: Recorder::new(origin, c as u32),
                twins,
                inputs,
                scan_name: match w.engine {
                    Engine::Generalized => "generalized.scan",
                    Engine::Decoupled => "decoupled.search",
                },
                batched: w.batched,
                dead: 0,
                pre_filter_plans: 0,
                filter_plans: 0,
                batches: Vec::new(),
            })
            .collect()
    });

    // Traced pass only: a fixed number of operations with nothing else
    // running, for the counts that must repeat exactly.
    let mut all: Vec<Sample> = Vec::new();
    if let (Some(twins), Some(tracers)) = (&twins, &mut tracers) {
        let before = db.pool_counters();
        let stop = Stop {
            ops_per_client: w.count_ops / w.clients,
            deadline: Instant::now() + Duration::from_secs(60),
        };
        all = run_phase(&mut db, &mut streams, stop, origin, None)?;
        let delta = db.pool_counters().since(before);
        let ops = all.len().max(1) as f64;
        values.set("storage.pins_per_query", delta.pins() as f64 / ops);
        values.set(
            "storage.miss_ratio",
            ratio(delta.misses as f64, delta.pins() as f64),
        );
        values.set("storage.evictions_per_query", delta.evictions as f64 / ops);
        let twin_pins = replay_on_twin(twins, &all, inputs, &db, &mut tracers[0])?;
        if w.mix == Mix::Filtered {
            // The twin holds index pages only, so what it does not pin of
            // the database's count was pinned in the heap.
            let heap_pins = delta.pins().saturating_sub(twin_pins.pins()) as f64 / ops;
            values.set(
                "filter.heap_passes_per_query",
                heap_pins / heap_pages as f64,
            );
        }
    }

    // The measured phase.
    let phase_start = Instant::now();
    let stop = Stop {
        ops_per_client: usize::MAX,
        deadline: phase_start + Duration::from_secs_f64(cfg.seconds),
    };
    all.extend(run_phase(
        &mut db,
        &mut streams,
        stop,
        origin,
        tracers.as_mut(),
    )?);
    let phase_start_ns = (phase_start - origin).as_nanos() as u64;
    drop(streams);

    // Correctness, over everything executed since warm-up, in op order
    // (which is execution order wherever there are writes).
    all.sort_by_key(|s| s.index);
    let mut verdict = check::check(&all, inputs);
    let recall = check::recall(&all, w.recall_ops, inputs, w.mix);
    if w.mix == Mix::Churn {
        notes.push(check_inserted_reachable(&db, &all, &mut verdict));
        let dead = check_dead_entries(&db, &all, scale.rows, &mut verdict)?;
        values.set("churn.dead_entries", dead);
    }
    let correct = verdict.failed == 0 && recall.mean >= w.recall_floor;
    notes.push(format!(
        "warm-up {warmed} ops; checked {} ops, {} failed; recall_at_10 {:.4} over {} reads (floor {})",
        verdict.attempted, verdict.failed, recall.mean, recall.compared, w.recall_floor
    ));
    notes.extend(verdict.examples.iter().map(|e| format!("failure: {e}")));

    // End-to-end metrics, over the measured phase in completion order.
    let mut measured: Vec<&Sample> = all
        .iter()
        .filter(|s| s.start_ns >= phase_start_ns)
        .collect();
    measured.sort_by_key(|s| s.end_ns());
    notes.push(latency_metrics(
        &measured,
        phase_start_ns,
        w.clients,
        &mut values,
    ));
    values.set("recall_at_10", recall.mean);
    values.set("index_mb", db.index_bytes()? as f64 / 1e6);
    values.set("setup_s", stats::median(&setup_s));

    if let (Some(twins), Some(tracers)) = (&twins, &tracers) {
        values.set("datagen.generate_s", inputs.generate_s);
        values.set("datagen.ground_truth_s", recall.oracle_s);
        values.set("storage.pool_alloc_s", setup_times.pool_alloc_s);
        values.set("sql.bulk_load_s", setup_times.bulk_load_s);
        let build = match w.engine {
            Engine::Generalized => "generalized.build_s",
            Engine::Decoupled => "decoupled.build_s",
        };
        values.set(build, setup_times.build_s);
        notes.push(format!(
            "twin index built in {:.3} s",
            twins.twin.read().expect(TWIN_LOCK).build_s
        ));
        let untraced_read_ms: Vec<f64> = all
            .iter()
            .filter(|s| s.start_ns < phase_start_ns && s.is_read())
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        span_metrics(
            w,
            tracers,
            twins,
            stats::percentile(&untraced_read_ms, 0.50),
            &mut values,
        );
        sample_metrics(w, &measured, &recall, &mut values);
        probe_metrics(w, inputs, twins, &mut values)?;
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join(format!("trace-{}.jsonl", w.name));
            write_trace(&path, tracers).map_err(|e| format!("writing {}: {e}", path.display()))?;
            notes.push(format!("spans written to {}", path.display()));
        }
    }

    let defined = |n: &str| {
        metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .any(|d| d.name == n)
    };
    if let Some(stray) = values.names().find(|n| !defined(n)) {
        return Err(format!(
            "metric {stray} is set but not defined in metrics.rs"
        ));
    }
    Ok(Report {
        workload: w,
        correct,
        attempted: verdict.attempted,
        failed: verdict.failed,
        values,
        notes,
    })
}

/// `p50_ms`, `p99_ms` and `qps` of the measured phase (samples in
/// completion order), and the line of the record that states the sample
/// counts behind them.
fn latency_metrics(
    measured: &[&Sample],
    phase_start_ns: u64,
    clients: usize,
    values: &mut Values,
) -> String {
    let read_ms: Vec<f64> = measured
        .iter()
        .filter(|s| s.is_read())
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    let epoch_p99 = stats::per_epoch(&read_ms, EPOCHS, |e| stats::percentile(e, 0.99));
    // The completion times, phase start included, cut into epochs: the
    // n times of an epoch bracket the n − 1 operations between them.
    let ends: Vec<u64> = std::iter::once(phase_start_ns)
        .chain(measured.iter().map(|s| s.end_ns()))
        .collect();
    let epoch_qps = stats::per_epoch(&ends, EPOCHS, |e| {
        (e.len() - 1) as f64 / ((e[e.len() - 1] - e[0]).max(1) as f64 / 1e9)
    });
    values.set("p50_ms", stats::percentile(&read_ms, 0.50));
    values.set("p99_ms", stats::median(&epoch_p99));
    values.set("qps", stats::median(&epoch_qps));
    format!(
        "measured {} ops ({} reads) in {:.2} s by {clients} client(s); per epoch: p99 {} ms, rate {} 1/s",
        measured.len(),
        read_ms.len(),
        (ends[ends.len() - 1] - phase_start_ns) as f64 / 1e9,
        rounded(&epoch_p99),
        rounded(&epoch_qps),
    )
}

/// After the counting phase: bring the twin and the tracer's dead count
/// in step with the writes it executed, and on the filtered mix replay
/// its reads on the twin to count the index's share of the pins.
fn replay_on_twin(
    twins: &Twins,
    counted: &[Sample],
    inputs: &Inputs,
    db: &Db,
    tracer: &mut ClientTrace<'_>,
) -> Result<PoolCounters, String> {
    let mut twin = twins.twin.write().expect(TWIN_LOCK);
    let before = twin.pool_counters();
    let attrs = &inputs.data.attrs[..inputs.scale.rows];
    let mut bitmaps: [Option<Bitmap>; 4] = [None, None, None, None];
    let mut in_order: Vec<&Sample> = counted.iter().collect();
    in_order.sort_by_key(|s| s.index);
    for s in in_order {
        match s.kind {
            OpKind::Insert { id } if s.reply.is_ok() => {
                twin.insert(id as u64, inputs.inserted_vector(id))?
            }
            OpKind::Delete { .. } if s.reply.is_ok() => tracer.dead += 1,
            OpKind::Read {
                query,
                class: Some(class),
            } => {
                let sql = inputs.select_sql(query, Some(class));
                let pre = layers::plan_is_pre_filter(&db.explain(&format!("EXPLAIN {sql}"))?)
                    .ok_or("no filter strategy in plan")?;
                if bitmaps[class as usize].is_none() {
                    bitmaps[class as usize] = Some(Filter::from_select(&sql)?.bitmap(attrs));
                }
                let bitmap = bitmaps[class as usize].as_ref().expect("built just above");
                twin.scan_filtered(
                    inputs.data.queries.row(query as usize),
                    K,
                    bitmap,
                    pre,
                    NPROBE,
                )?;
            }
            _ => {}
        }
    }
    Ok(twin.pool_counters().since(before))
}

/// Every row the churn mix inserted must be found by `WHERE id =`.
fn check_inserted_reachable(db: &Db, all: &[Sample], verdict: &mut check::Verdict) -> String {
    let mut probed = 0u64;
    let mut missing = 0u64;
    for s in all {
        if let (OpKind::Insert { id }, Ok(_)) = (&s.kind, &s.reply) {
            probed += 1;
            let found = db.query(&format!("SELECT id FROM t WHERE id = {id}"));
            if !matches!(found.as_deref(), Ok([(got, _)]) if got == id) {
                missing += 1;
                verdict
                    .examples
                    .push(format!("inserted id {id} not found by WHERE id ="));
            }
        }
    }
    verdict.attempted += probed;
    verdict.failed += missing;
    format!("{probed} inserted ids probed by WHERE id =, {missing} missing")
}

/// Index entries without a heap row: the page-based index never drops
/// an entry, so they are the rows loaded and inserted less the rows the
/// heap still returns. They must be exactly the DELETEs that succeeded.
fn check_dead_entries(
    db: &Db,
    all: &[Sample],
    loaded: usize,
    verdict: &mut check::Verdict,
) -> Result<f64, String> {
    let succeeded = |pick: fn(&OpKind) -> bool| {
        all.iter()
            .filter(|s| pick(&s.kind) && s.reply.is_ok())
            .count()
    };
    let inserted = succeeded(|k| matches!(k, OpKind::Insert { .. }));
    let deleted = succeeded(|k| matches!(k, OpKind::Delete { .. }));
    let live = db.query("SELECT id FROM t")?.len();
    let dead = (loaded + inserted) as f64 - live as f64;
    verdict.attempted += 1;
    if dead != deleted as f64 {
        verdict.failed += 1;
        verdict
            .examples
            .push(format!("{dead} dead index entries after {deleted} DELETEs"));
    }
    Ok(dead)
}

// ------------------------------------------------------ per-layer metrics

/// Medians over the spans of the traced phase.
fn span_metrics(
    w: &Workload,
    tracers: &[ClientTrace<'_>],
    twins: &Twins,
    untraced_p50_ms: f64,
    values: &mut Values,
) {
    // Span ids are per client, so each client's tree is resolved alone.
    let gather = |f: &dyn Fn(&[trace::Span]) -> Vec<f64>| -> Vec<f64> {
        tracers.iter().flat_map(|t| f(t.rec.spans())).collect()
    };
    let median_dur = |name: &str| stats::median(&gather(&|s| trace::durations_us(s, name)));
    let median_self = |name: &str| stats::median(&gather(&|s| trace::self_us(s, name)));
    values.set("sql.parse_us", median_dur("sql.parse"));
    // EXPLAIN's only child is the parse, so its self time is the plan.
    values.set("sql.plan_us", median_self("sql.explain"));
    values.set("sql.exec_overhead_us", median_self("sql.query"));
    let scan_us = median_dur(tracers[0].scan_name);
    values.set(
        match w.engine {
            Engine::Generalized => "generalized.scan_us",
            Engine::Decoupled => "decoupled.search_us",
        },
        scan_us,
    );
    values.set(
        "unattributed_pct",
        trace::unattributed_pct(tracers.iter().map(|t| t.rec.spans())),
    );
    let traced_p50_ms = median_dur("sql.query") / 1e3;
    values.set(
        "trace.overhead_pct",
        100.0 * (ratio(traced_p50_ms, untraced_p50_ms) - 1.0),
    );
    if w.mix == Mix::Filtered {
        values.set("filter.bitmap_build_us", median_dur("filter.bitmap_build"));
        let plans: usize = tracers.iter().map(|t| t.filter_plans).sum();
        let pre: usize = tracers.iter().map(|t| t.pre_filter_plans).sum();
        values.set("filter.pre_filter_share", ratio(pre as f64, plans as f64));
    }
    if w.batched {
        let batches: Vec<(usize, u64)> = tracers
            .iter()
            .flat_map(|t| t.batches.iter().copied())
            .collect();
        let queries: usize = batches.iter().map(|b| b.0).sum();
        let exec_ns: u64 = batches.iter().map(|b| b.1).sum();
        let batch_us: Vec<f64> = batches.iter().map(|b| b.1 as f64 / 1e3).collect();
        values.set(
            "serve.exec_us_per_query",
            ratio(exec_ns as f64 / 1e3, queries as f64),
        );
        // What a submitter waits beyond the scan of the batch it rode in.
        values.set(
            "serve.queue_wait_us",
            median_dur("serve.submit") - stats::median(&batch_us),
        );
        let (ran, served) = twins.scheduler.stats();
        values.set("serve.batch_size_mean", ratio(served as f64, ran as f64));
    }
}

/// Per-class and churn views of the measured samples.
fn sample_metrics(w: &Workload, measured: &[&Sample], recall: &Recall, values: &mut Values) {
    let ms = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        measured
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    };
    if w.mix == Mix::Filtered {
        for class in 0..4u8 {
            let of_class =
                ms(&|s| matches!(s.kind, OpKind::Read { class: Some(c), .. } if c == class));
            values.set(
                metrics::FILTER_P50[class as usize],
                stats::percentile(&of_class, 0.50),
            );
            values.set(
                metrics::FILTER_RECALL[class as usize],
                recall.per_class[class as usize],
            );
        }
    }
    if w.mix == Mix::Churn {
        values.set("churn.write_mean_ms", stats::mean(&ms(&|s| !s.is_read())));
        let tenth = measured.len() / 10;
        let read_p50 = |part: &[&Sample]| {
            let reads: Vec<f64> = part
                .iter()
                .filter(|s| s.is_read())
                .map(|s| s.dur_ns as f64 / 1e6)
                .collect();
            stats::percentile(&reads, 0.50)
        };
        values.set(
            "churn.read_slowdown_x",
            ratio(
                read_p50(&measured[measured.len() - tenth..]),
                read_p50(&measured[..tenth]),
            ),
        );
    }
}

/// Probe loops over single layers, outside any request.
fn probe_metrics(
    w: &Workload,
    inputs: &Inputs,
    twins: &Twins,
    values: &mut Values,
) -> Result<(), String> {
    let data = &inputs.data;
    let dim = data.base.dim();
    let bucket_rows = inputs.scale.ivf.clusters.min(inputs.scale.rows);
    let block = layers::vector_set(dim, data.base.as_flat()[..bucket_rows * dim].to_vec());
    let (hit_ns, miss_ns) = layers::probe_pin_ns(20_000)?;
    values.set("storage.pin_hit_ns", hit_ns);
    values.set("storage.pin_miss_ns", miss_ns);
    let (ref_ns, simd_ns) = layers::probe_l2_ns_per_row(&block, data.queries.row(0), 200);
    values.set("vecmath.l2_ref_ns_per_row", ref_ns);
    values.set("vecmath.l2_simd_ns_per_row", simd_ns);
    let pair = layers::vector_set(dim, data.queries.as_flat()[..2 * dim].to_vec());
    values.set(
        "gemm.table_ns_per_cell",
        layers::probe_gemm_ns_per_cell(&pair, &block, 200),
    );

    let time_us = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let t0 = Instant::now();
        f()?;
        Ok(t0.elapsed().as_nanos() as f64 / 1e3)
    };
    let nq = inputs.scale.n_queries;
    if w.mix == Mix::TopK && !w.cold && !w.batched {
        // The Faiss-side floor, over the same queries.
        let specialized = Specialized::build(data, inputs.scale.ivf);
        let mut us = Vec::with_capacity(nq);
        for q in 0..nq {
            us.push(time_us(&mut || {
                std::hint::black_box(specialized.search(data.queries.row(q), K, NPROBE));
                Ok(())
            })?);
        }
        let floor = stats::median(&us);
        values.set("specialized.search_us", floor);
        match w.engine {
            Engine::Generalized => {
                let scan = values.get("generalized.scan_us").unwrap_or(0.0);
                values.set("gap_x", ratio(scan, floor));
            }
            Engine::Decoupled => {
                let search = values.get("decoupled.search_us").unwrap_or(0.0);
                values.set("decoupled.overhead_us", search - floor);
            }
        }
    }
    if w.batched {
        let twin = twins.twin.read().expect(TWIN_LOCK);
        let mut us = Vec::new();
        for q in (0..nq.min(200)).step_by(2) {
            let two =
                layers::vector_set(dim, data.queries.as_flat()[q * dim..(q + 2) * dim].to_vec());
            us.push(time_us(&mut || twin.scan_batch(&two, K, NPROBE).map(|_| ()))? / 2.0);
        }
        values.set("generalized.scan_batch_us_per_query", stats::median(&us));
    }
    if w.mix == Mix::Filtered {
        let attrs = &data.attrs[..inputs.scale.rows];
        let mut us = Vec::new();
        for class in 0..4u8 {
            let filter = Filter::from_select(&inputs.select_sql(0, Some(class)))?;
            for _ in 0..25 {
                us.push(time_us(&mut || {
                    std::hint::black_box(filter.estimate(attrs));
                    Ok(())
                })?);
            }
        }
        values.set("filter.estimate_us", stats::median(&us));
    }
    Ok(())
}

fn write_trace(path: &std::path::Path, tracers: &[ClientTrace<'_>]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        t.rec.write_jsonl(&mut out)?;
    }
    out.flush()
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// `[1.234, 5.678]` with three decimals, for the notes.
fn rounded(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    format!("[{}]", parts.join(", "))
}

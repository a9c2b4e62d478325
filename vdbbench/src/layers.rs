//! The one place where the benchmark calls into the workspace's crates.
//!
//! Everything else in this package works with the plain types defined
//! here (`Rows`, `Db`, `Twin`, ...), so a later signature change in an
//! engine crate lands in this file only. SQL-level calls are preferred;
//! the twin structures exist because `Database` does not expose its
//! index, so a layer below the SQL surface can only be timed on a copy
//! built with identical parameters.

use std::sync::Arc;
use std::time::Instant;
use vdb_core::datagen::{self, DatasetId, DatasetSpec};
use vdb_core::decoupled::{Consistency, DecoupledIndex, NativeParams};
use vdb_core::filter::{AttrSchema, BoundPredicate, FilterStrategy, SelectionBitmap};
use vdb_core::gemm::{l2_distance_table, GemmKernel};
use vdb_core::generalized::{GeneralizedOptions, PaseIndex, PaseIvfFlatIndex};
use vdb_core::serve::{BatchConfig, BatchScheduler, ServeMode};
use vdb_core::specialized::{IvfFlatIndex, SpecializedOptions};
use vdb_core::sql::{parser, Database, Statement, Value};
use vdb_core::storage::{BufferManager, BufferPoolMode, DiskManager, PageSize, RelId, Tid};
use vdb_core::vecmath::distance::{l2_sqr, DistanceKernel};
use vdb_core::vecmath::{simd, IvfParams, Metric, VectorSet};

/// Page size of every database and twin the benchmark builds.
pub const PAGE_BYTES: usize = 8192;
const PAGE_SIZE: PageSize = PageSize::Size8K;
const POOL_MODE: BufferPoolMode = BufferPoolMode::Sharded;
const TABLE_DDL: &str = "CREATE TABLE t (id int, price float, vec float";
pub const INDEX_NAME: &str = "ix";

/// Rows of one SELECT: `(id, distance)`; distance is NaN when the
/// statement did not project it.
pub type Rows = Vec<(i64, f64)>;

/// Which engine serves `ORDER BY vec <->`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Page-based IVF_FLAT through the buffer pool (the paper's PASE).
    Generalized,
    /// Native IVF_FLAT with TID back-links, `consistency = sync`.
    Decoupled,
}

impl Engine {
    fn using(self) -> &'static str {
        match self {
            Engine::Generalized => "ivfflat",
            Engine::Decoupled => "decoupled_ivfflat",
        }
    }
}

/// IVF parameters shared by the SQL index and every twin.
#[derive(Clone, Copy, Debug)]
pub struct IvfSetup {
    pub clusters: usize,
    /// PASE's thousandths (`50` = 5 % of the rows train k-means).
    pub sample_ratio_thousandths: usize,
}

impl IvfSetup {
    fn params(self) -> IvfParams {
        IvfParams {
            clusters: self.clusters,
            sample_ratio: self.sample_ratio_thousandths as f64 / 1000.0,
            ..IvfParams::default()
        }
    }
}

// ---------------------------------------------------------------- datagen

/// The generated inputs every workload shares.
pub struct Dataset {
    /// The table's rows followed by the churn workload's insert pool; a
    /// row's id is its position.
    pub base: VectorSet,
    pub queries: VectorSet,
    /// `price` of every row of `base`.
    pub attrs: Vec<f64>,
    /// The rows every set-up loads, in the shapes the engines take them,
    /// made once so that no set-up is charged for copying its input.
    table: Table,
}

struct Table {
    ids: Vec<i64>,
    attr_rows: Vec<Vec<f64>>,
    vectors: VectorSet,
}

pub fn generate_dataset(
    dim: usize,
    rows: usize,
    insert_pool: usize,
    n_queries: usize,
    mixture: usize,
    seed: u64,
) -> Dataset {
    let ds = DatasetSpec {
        id: DatasetId::Sift1M,
        dim,
        n_vectors: rows + insert_pool,
        n_queries,
        n_clusters: mixture,
        seed,
    }
    .generate();
    let attrs = datagen::uniform_attrs(rows + insert_pool, seed ^ 0xA77E);
    Dataset {
        table: Table {
            ids: (0..rows as i64).collect(),
            attr_rows: attrs[..rows].iter().map(|&a| vec![a]).collect(),
            vectors: VectorSet::from_flat(dim, ds.base.as_flat()[..rows * dim].to_vec()),
        },
        attrs,
        base: ds.base,
        queries: ds.queries,
    }
}

pub fn threshold_for_selectivity(attrs: &[f64], selectivity: f64) -> f64 {
    datagen::threshold_for_selectivity(attrs, selectivity)
}

/// Exact top-k ids over the rows of `base` for which `passes` holds.
pub fn brute_force_topk_filtered(
    base: &VectorSet,
    queries: &VectorSet,
    k: usize,
    threads: usize,
    passes: &(impl Fn(u64) -> bool + Sync),
) -> Vec<Vec<u64>> {
    datagen::brute_force_topk_filtered(base, queries, Metric::L2, k, threads, passes).neighbors
}

pub fn vector_set(dim: usize, flat: Vec<f32>) -> VectorSet {
    VectorSet::from_flat(dim, flat)
}

// -------------------------------------------------------------------- sql

/// One workload's own database.
pub struct Db {
    inner: Database,
}

/// Wall time of the set-up steps.
pub struct SetupTimes {
    /// `Database::with_pool_mode`: every frame of the pool is allocated
    /// up front.
    pub pool_alloc_s: f64,
    pub bulk_load_s: f64,
    pub build_s: f64,
}

impl Db {
    /// Bulk load the dataset's table and `CREATE INDEX`.
    pub fn setup(
        data: &Dataset,
        engine: Engine,
        ivf: IvfSetup,
        pool_pages: usize,
    ) -> Result<(Db, SetupTimes), String> {
        let t0 = Instant::now();
        let mut inner = Database::with_pool_mode(PAGE_SIZE, pool_pages, POOL_MODE);
        let pool_alloc_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        // PASE as measured: the root-cause toggles are the product, so a
        // flipped default must not read as a speed-up of this benchmark.
        inner.options = GeneralizedOptions::default();
        inner.set_serve_mode(ServeMode::Serial);
        let dim = data.base.dim();
        inner
            .execute(&format!("{TABLE_DDL}[{dim}])"))
            .map_err(|e| e.to_string())?;
        let table = &data.table;
        inner
            .bulk_load_with_attrs("t", &table.ids, &table.attr_rows, &table.vectors)
            .map_err(|e| e.to_string())?;
        let bulk_load_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let consistency = match engine {
            Engine::Generalized => "",
            Engine::Decoupled => ", consistency = sync",
        };
        inner
            .execute(&format!(
                "CREATE INDEX {INDEX_NAME} ON t USING {}(vec) WITH (clusters = {}, sample_ratio = {}{consistency})",
                engine.using(),
                ivf.clusters,
                ivf.sample_ratio_thousandths,
            ))
            .map_err(|e| e.to_string())?;
        let build_s = t1.elapsed().as_secs_f64();
        Ok((
            Db { inner },
            SetupTimes {
                pool_alloc_s,
                bulk_load_s,
                build_s,
            },
        ))
    }

    pub fn set_batched(&mut self, batched: bool) {
        self.inner.set_serve_mode(if batched {
            ServeMode::Batched(BatchConfig::default())
        } else {
            ServeMode::Serial
        });
    }

    /// SQL string in, rows out, through the shared-reference read path.
    pub fn query(&self, sql: &str) -> Result<Rows, String> {
        let res = self.inner.query(sql).map_err(|e| e.to_string())?;
        let id_col = res.columns.iter().position(|c| c == "id");
        let dist_col = res.columns.iter().position(|c| c == "distance");
        res.rows
            .iter()
            .map(|row| {
                let id = match id_col.map(|c| &row[c]) {
                    Some(Value::Int(i)) => *i,
                    other => return Err(format!("row without integer id: {other:?}")),
                };
                let dist = match dist_col.map(|c| &row[c]) {
                    Some(Value::Float(d)) => *d,
                    _ => f64::NAN,
                };
                Ok((id, dist))
            })
            .collect()
    }

    /// INSERT / DELETE through the exclusive write path.
    pub fn execute(&mut self, sql: &str) -> Result<(), String> {
        self.inner
            .execute(sql)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// The plan line of an `EXPLAIN <select>` statement.
    pub fn explain(&self, explain_sql: &str) -> Result<String, String> {
        let res = self.inner.query(explain_sql).map_err(|e| e.to_string())?;
        match res.rows.first().and_then(|r| r.first()) {
            Some(Value::Text(line)) => Ok(line.clone()),
            other => Err(format!("EXPLAIN returned {other:?}")),
        }
    }

    pub fn index_bytes(&self) -> Result<usize, String> {
        self.inner
            .index_size_bytes(INDEX_NAME)
            .map_err(|e| e.to_string())
    }

    /// Pages of the table's heap. The table is the first relation a
    /// fresh `Database` creates.
    pub fn heap_pages(&self) -> usize {
        self.inner.buffer_manager().disk().nblocks(RelId(0))
    }

    pub fn pool_counters(&self) -> PoolCounters {
        PoolCounters::of(self.inner.buffer_manager())
    }
}

/// Buffer-pool counters; subtract two snapshots for a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl PoolCounters {
    fn of(bm: &BufferManager) -> PoolCounters {
        let s = bm.stats();
        PoolCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
        }
    }

    pub fn since(self, earlier: PoolCounters) -> PoolCounters {
        PoolCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    pub fn pins(self) -> u64 {
        self.hits + self.misses
    }
}

/// `parser::parse` alone; returns whether the text parsed.
pub fn parse_only(sql: &str) -> bool {
    parser::parse(sql).is_ok()
}

/// The strategy word of a filtered plan line, if it has one.
pub fn plan_is_pre_filter(plan: &str) -> Option<bool> {
    if plan.contains("strategy: pre-filter") {
        Some(true)
    } else if plan.contains("strategy: post-filter") {
        Some(false)
    } else {
        None
    }
}

// ----------------------------------------------------------------- filter

/// The WHERE clause of `select_sql`, bound to the table's `(id, price)`.
pub struct Filter {
    bound: BoundPredicate,
}

impl Filter {
    pub fn from_select(select_sql: &str) -> Result<Filter, String> {
        let Ok(Statement::Select {
            where_clause: Some(pred),
            ..
        }) = parser::parse(select_sql)
        else {
            return Err(format!("no WHERE clause parsed from {select_sql:.60}"));
        };
        let schema = AttrSchema::new(vec!["id".to_string(), "price".to_string()]);
        Ok(Filter {
            bound: pred.bind(&schema)?,
        })
    }

    /// Evaluate over every `(id, price)` row into a selection bitmap:
    /// the work of the executor's bitmap build, without the heap pass.
    pub fn bitmap(&self, attrs: &[f64]) -> Bitmap {
        let mut bitmap = SelectionBitmap::new();
        for (id, &price) in attrs.iter().enumerate() {
            if self.bound.eval(&[id as f64, price]) {
                bitmap.insert(id as u64);
            }
        }
        Bitmap(bitmap)
    }

    /// The planner's estimate over its 256-row sample.
    pub fn estimate(&self, attrs: &[f64]) -> f64 {
        let rows: Vec<[f64; 2]> = attrs
            .iter()
            .take(256)
            .enumerate()
            .map(|(id, &price)| [id as f64, price])
            .collect();
        vdb_core::filter::estimate_selectivity(&self.bound, rows.iter().map(|r| &r[..]))
    }
}

pub struct Bitmap(SelectionBitmap);

// ------------------------------------------------------------------ twins

/// A copy of the workload's index, built outside the database with the
/// same parameters on an equally sized pool, so the index-scan layer can
/// be timed without the SQL layer around it.
pub struct Twin {
    kind: TwinKind,
    pub build_s: f64,
}

enum TwinKind {
    Generalized(BufferManager, PaseIvfFlatIndex),
    Decoupled(DecoupledIndex),
}

impl Twin {
    pub fn build(
        data: &Dataset,
        engine: Engine,
        ivf: IvfSetup,
        pool_pages: usize,
    ) -> Result<Twin, String> {
        let loaded = &data.table.vectors;
        let ids: Vec<u64> = data.table.ids.iter().map(|&id| id as u64).collect();
        let t0 = Instant::now();
        let kind = match engine {
            Engine::Generalized => {
                let disk = Arc::new(DiskManager::new(PAGE_SIZE));
                let bm = BufferManager::with_mode(disk, pool_pages, POOL_MODE);
                let (index, _) = PaseIvfFlatIndex::build_with_ids(
                    GeneralizedOptions::default(),
                    ivf.params(),
                    &bm,
                    Some(&ids),
                    loaded,
                )
                .map_err(|e| e.to_string())?;
                TwinKind::Generalized(bm, index)
            }
            Engine::Decoupled => {
                // The back-links are never followed by a search; any
                // valid TID per row will do.
                let tids: Vec<Tid> = ids.iter().map(|&id| Tid::new(id as u32, 1)).collect();
                TwinKind::Decoupled(DecoupledIndex::build(
                    SpecializedOptions::default(),
                    NativeParams::IvfFlat(ivf.params()),
                    Consistency::Sync,
                    &ids,
                    &tids,
                    loaded,
                ))
            }
        };
        Ok(Twin {
            kind,
            build_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// `PaseIndex::scan_with_knob` / `DecoupledIndex::search_with_knob`.
    pub fn scan(&self, query: &[f32], k: usize, nprobe: usize) -> Result<usize, String> {
        match &self.kind {
            TwinKind::Generalized(bm, ix) => ix
                .scan_with_knob(bm, query, k, Some(nprobe))
                .map(|found| found.len())
                .map_err(|e| e.to_string()),
            TwinKind::Decoupled(ix) => Ok(ix.search_with_knob(query, k, Some(nprobe)).len()),
        }
    }

    /// `PaseIndex::scan_filtered` with the strategy the planner chose.
    pub fn scan_filtered(
        &self,
        query: &[f32],
        k: usize,
        bitmap: &Bitmap,
        pre_filter: bool,
        nprobe: usize,
    ) -> Result<usize, String> {
        let strategy = if pre_filter {
            FilterStrategy::PreFilter
        } else {
            FilterStrategy::PostFilter
        };
        match &self.kind {
            TwinKind::Generalized(bm, ix) => ix
                .scan_filtered(bm, query, k, &bitmap.0, strategy, Some(nprobe))
                .map(|found| found.len())
                .map_err(|e| e.to_string()),
            TwinKind::Decoupled(ix) => Ok(ix
                .search_filtered(query, k, &bitmap.0, strategy, Some(nprobe))
                .len()),
        }
    }

    /// `PaseIndex::scan_batch` over a packed batch of queries.
    pub fn scan_batch(
        &self,
        queries: &VectorSet,
        k: usize,
        nprobe: usize,
    ) -> Result<usize, String> {
        let ks = vec![k; queries.len()];
        match &self.kind {
            TwinKind::Generalized(bm, ix) => ix
                .scan_batch(bm, queries, &ks, Some(nprobe))
                .map(|found| found.len())
                .map_err(|e| e.to_string()),
            TwinKind::Decoupled(ix) => {
                Ok(ix.search_batch_with_knob(queries, &ks, Some(nprobe)).len())
            }
        }
    }

    /// Keep the twin in step with an INSERT the database just took.
    pub fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), String> {
        match &mut self.kind {
            TwinKind::Generalized(bm, ix) => ix.insert(bm, id, vector).map_err(|e| e.to_string()),
            TwinKind::Decoupled(ix) => {
                ix.insert(id, Tid::new(id as u32, 1), vector);
                Ok(())
            }
        }
    }

    pub fn pool_counters(&self) -> PoolCounters {
        match &self.kind {
            TwinKind::Generalized(bm, _) => PoolCounters::of(bm),
            TwinKind::Decoupled(_) => PoolCounters::default(),
        }
    }

    /// Mean rows per bucket (0 for the decoupled twin, whose buckets are
    /// not visible from outside).
    pub fn mean_bucket_rows(&self) -> f64 {
        match &self.kind {
            TwinKind::Generalized(_, ix) => {
                let sizes = ix.bucket_sizes();
                sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
            }
            TwinKind::Decoupled(_) => 0.0,
        }
    }
}

/// The Faiss-side floor: the specialized engine's IVF_FLAT.
pub struct Specialized(IvfFlatIndex);

impl Specialized {
    pub fn build(data: &Dataset, ivf: IvfSetup) -> Specialized {
        Specialized(
            IvfFlatIndex::build(
                SpecializedOptions::default(),
                ivf.params(),
                &data.table.vectors,
            )
            .0,
        )
    }

    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> usize {
        self.0.search_with_nprobe(query, k, nprobe).len()
    }
}

// ------------------------------------------------------------------ serve

/// A `BatchScheduler` the benchmark owns, fed with the same executor
/// shape `Database` uses.
pub struct Scheduler(BatchScheduler);

impl Scheduler {
    pub fn new(dim: usize) -> Scheduler {
        Scheduler(BatchScheduler::new(BatchConfig::default(), dim))
    }

    /// Submit one query; `on_batch(queries_in_batch, start, end)` runs on
    /// the thread that ends up leading the batch, with the interval of
    /// the batch's `scan_batch` call.
    pub fn submit(
        &self,
        twin: &Twin,
        query: &[f32],
        k: usize,
        nprobe: usize,
        mut on_batch: impl FnMut(usize, Instant, Instant),
    ) -> Result<usize, String> {
        self.0
            .submit(query.to_vec(), k, Some(nprobe), |queries, _ks, knob| {
                let t0 = Instant::now();
                let found = twin.scan_batch(queries, k, knob.unwrap_or(nprobe))?;
                on_batch(queries.len(), t0, Instant::now());
                // The scheduler only needs one reply per query.
                Ok(vec![Vec::new(); found])
            })
            .map(|found| found.len())
    }

    /// `(batches, queries)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.0.stats();
        (s.batches, s.queries)
    }
}

// ----------------------------------------------------------- micro probes

/// Mean nanoseconds of a buffer-pool pin on the hit and on the miss
/// path, over `rounds` accesses each, on a pool of the benchmark's own.
pub fn probe_pin_ns(rounds: usize) -> Result<(f64, f64), String> {
    const FRAMES: usize = 64;
    const BLOCKS: u32 = 256;
    let disk = Arc::new(DiskManager::new(PAGE_SIZE));
    let bm = BufferManager::with_mode(disk, FRAMES, POOL_MODE);
    let rel = bm.disk().create_relation();
    for _ in 0..BLOCKS {
        bm.new_page(rel, 0, |_| ()).map_err(|e| e.to_string())?;
    }
    bm.flush_all().map_err(|e| e.to_string())?;
    let pin = |block: u32| {
        bm.with_page(rel, block, |p| p.bytes()[0])
            .map_err(|e| e.to_string())
    };
    // Hit path: a working set well under the pool, touched once first.
    const HOT: u32 = 16;
    for b in 0..HOT {
        pin(b)?;
    }
    let before = PoolCounters::of(&bm);
    let t0 = Instant::now();
    for i in 0..rounds {
        std::hint::black_box(pin(i as u32 % HOT)?);
    }
    let hit_ns = t0.elapsed().as_nanos() as f64 / rounds as f64;
    let hits = PoolCounters::of(&bm).since(before);
    // Miss path: a sequential cycle four times the pool, entered past the
    // hot blocks, never finds its block resident under clock replacement.
    let before = PoolCounters::of(&bm);
    let t0 = Instant::now();
    for i in 0..rounds {
        std::hint::black_box(pin((HOT + i as u32) % BLOCKS)?);
    }
    let miss_ns = t0.elapsed().as_nanos() as f64 / rounds as f64;
    let misses = PoolCounters::of(&bm).since(before);
    if hits.misses != 0 || misses.hits != 0 {
        return Err(format!(
            "pin probe did not isolate its path: hit loop {hits:?}, miss loop {misses:?}"
        ));
    }
    Ok((hit_ns, miss_ns))
}

/// Nanoseconds per row of the reference and of the dispatched L2 kernel
/// over one bucket-sized block.
pub fn probe_l2_ns_per_row(block: &VectorSet, query: &[f32], rounds: usize) -> (f64, f64) {
    let rows = block.len();
    let mut out = vec![0.0f32; rows];
    let t0 = Instant::now();
    for _ in 0..rounds {
        for (o, row) in out.iter_mut().zip(block.iter()) {
            *o = l2_sqr(DistanceKernel::Reference, std::hint::black_box(query), row);
        }
        std::hint::black_box(&out);
    }
    let reference = t0.elapsed().as_nanos() as f64 / (rounds * rows) as f64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        simd::l2_sqr_batch(std::hint::black_box(query), block, &mut out);
        std::hint::black_box(&out);
    }
    let dispatched = t0.elapsed().as_nanos() as f64 / (rounds * rows) as f64;
    (reference, dispatched)
}

/// Nanoseconds per cell of the `queries × block` distance table.
pub fn probe_gemm_ns_per_cell(queries: &VectorSet, block: &VectorSet, rounds: usize) -> f64 {
    let cells = queries.len() * block.len();
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(l2_distance_table(
            GemmKernel::Blas,
            std::hint::black_box(queries.as_flat()),
            block.as_flat(),
            block.dim(),
        ));
    }
    t0.elapsed().as_nanos() as f64 / (rounds * cells) as f64
}

// ------------------------------------------------------------ fingerprint

pub fn active_kernel() -> String {
    format!("{:?}", simd::active_kernel())
}

pub fn force_scalar() -> bool {
    simd::force_scalar()
}

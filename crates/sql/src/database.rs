//! The database façade: catalog, DDL/DML handling, and the `execute`
//! entry point.

use crate::ast::{ColumnDef, DecoupledKind, IndexKind, IndexOption, OptionValue, Statement};
use crate::executor;
use crate::parser::parse;
use crate::planner::{plan_select, IndexCandidate, TableStats};
use crate::{Result, SqlError};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use vdb_decoupled::{Consistency, DecoupledIndex, DecoupledPaseIndex, NativeParams};
use vdb_filter::{estimate_selectivity, FilterStrategy, Predicate};
use vdb_generalized::{
    GeneralizedOptions, PaseHnswIndex, PaseIndex, PaseIvfFlatIndex, PaseIvfPqIndex,
};
use vdb_profile::{self as profile, Category};
use vdb_serve::{BatchScheduler, ServeMode};
use vdb_specialized::SpecializedOptions;
use vdb_storage::btree::key_from_i64;
use vdb_storage::sync::OrderedMutex;
use vdb_storage::tuple::{decode_attr, decode_id, encode_tuple, vector_slice};
use vdb_storage::{BTree, BufferManager, BufferPoolMode, DiskManager, HeapTable, PageSize, Tid};
use vdb_vecmath::{HnswParams, IvfParams, Metric, PqParams, VectorSet};

/// Planner sample size for predicate selectivity estimation.
const SELECTIVITY_SAMPLE_ROWS: usize = 256;

/// A scalar or vector value in a result row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Integer (the `id` column).
    Int(i64),
    /// Text (EXPLAIN output).
    Text(String),
    /// A float (the `distance` pseudo-column).
    Float(f64),
    /// A vector (the `vec` column).
    Vector(Vec<f32>),
}

/// Rows returned by a query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Column names, in projection order.
    pub columns: Vec<String>,
    /// Row values.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Convenience: the `id` column of every row.
    ///
    /// # Panics
    /// Panics if the result has no integer `id` column. This is a
    /// test/assertion helper — production callers read `rows` directly.
    pub fn ids(&self) -> Vec<i64> {
        let idx = self
            .columns
            .iter()
            .position(|c| c == "id")
            // PANIC-OK: documented panic of an assertion helper (see # Panics).
            .expect("no id column");
        self.rows
            .iter()
            .map(|r| match &r[idx] {
                Value::Int(i) => *i,
                // PANIC-OK: documented panic of an assertion helper.
                other => panic!("id column holds {other:?}"),
            })
            .collect()
    }
}

pub(crate) struct TableState {
    pub heap: HeapTable,
    /// `(id, tid)` of every live row: DELETE, `WHERE id =` and row
    /// fetches go through it instead of scanning the heap. Duplicates of
    /// an id come back in TID order, so the newest row is the last.
    pub ids: BTree,
    pub dim: Option<usize>,
    /// Scalar attribute column names, in declaration (= tuple) order.
    pub attrs: Vec<String>,
    /// Live row count (inserts minus deletes) — the planner's `nrows`.
    pub nrows: usize,
    /// Ids deleted since any index was built. Index scans filter
    /// against this set — the moral equivalent of PostgreSQL's heap
    /// visibility check on every TID an index returns (the index
    /// itself keeps the dead entry until VACUUM).
    pub deleted: std::collections::HashSet<i64>,
}

pub(crate) struct IndexState {
    pub table: String,
    pub column: String,
    pub metric: Metric,
    pub index: Box<dyn PaseIndex>,
}

/// An embedded vector database speaking the PASE SQL dialect.
///
/// ```
/// use vdb_sql::Database;
/// let mut db = Database::in_memory();
/// db.execute("CREATE TABLE t (id int, vec float[3])").unwrap();
/// db.execute("INSERT INTO t VALUES (1, '{1,0,0}'), (2, '{0,1,0}')").unwrap();
/// let res = db.execute("SELECT id FROM t ORDER BY vec <-> '1,0,0' LIMIT 1").unwrap();
/// assert_eq!(res.ids(), vec![1]);
/// ```
pub struct Database {
    bm: BufferManager,
    tables: HashMap<String, TableState>,
    indexes: HashMap<String, IndexState>,
    /// Engine configuration applied to indexes created from now on. The
    /// default is PASE-as-measured; flip root-cause switches to study
    /// ablations through SQL.
    pub options: GeneralizedOptions,
    /// How concurrent top-k scans are served (serial per session, or
    /// grouped into admission batches — see [`ServeMode`]).
    serve_mode: ServeMode,
    /// Per-index admission schedulers, created lazily on the first
    /// batched scan of each index. Keyed by index name; dropped with the
    /// index. The map lock is engine-rank and must be released before
    /// submitting (the scheduler's queue lock is rank 0: acquired with
    /// nothing held).
    schedulers: OrderedMutex<HashMap<String, Arc<BatchScheduler>>>,
}

impl Database {
    /// A database with the given page size and buffer-pool capacity (see
    /// [`BufferManager::new`] for how the pool is sharded and rounded).
    pub fn new(page_size: PageSize, pool_pages: usize) -> Database {
        let disk = Arc::new(DiskManager::new(page_size));
        Database {
            bm: BufferManager::new(disk, pool_pages),
            tables: HashMap::new(),
            indexes: HashMap::new(),
            options: GeneralizedOptions::default(),
            serve_mode: ServeMode::Serial,
            schedulers: OrderedMutex::engine(HashMap::new()),
        }
    }

    /// [`Database::new`]: `mode` has a single value. Kept only for
    /// `vdbbench/src/layers.rs`, which calls it (see [`BufferPoolMode`]).
    pub fn with_pool_mode(
        page_size: PageSize,
        pool_pages: usize,
        mode: BufferPoolMode,
    ) -> Database {
        let BufferPoolMode::Sharded = mode;
        Database::new(page_size, pool_pages)
    }

    /// A database with defaults sized for tests and examples (8KB pages,
    /// 64K-page pool ≈ 512MB ceiling, allocated lazily).
    pub fn in_memory() -> Database {
        Database::new(PageSize::Size8K, 65_536)
    }

    /// The underlying buffer manager (for experiments that measure
    /// buffer behaviour through SQL workloads).
    pub fn buffer_manager(&self) -> &BufferManager {
        &self.bm
    }

    /// How top-k index scans are served. [`ServeMode::Serial`] (the
    /// default) runs each [`query`](Self::query) on its own;
    /// [`ServeMode::Batched`] groups concurrent scans of the same index
    /// into admission batches evaluated with one query-batch × block
    /// SGEMM per bucket — same results, amortized per-query cost.
    pub fn serve_mode(&self) -> ServeMode {
        self.serve_mode
    }

    /// Switch the serving mode. Existing admission schedulers are
    /// discarded so a new batching window takes effect immediately.
    pub fn set_serve_mode(&mut self, mode: ServeMode) {
        self.serve_mode = mode;
        self.schedulers.lock().clear();
    }

    /// Serve one top-k scan of index `name` under the current
    /// [`ServeMode`]. Serial mode calls the access method directly;
    /// batched mode routes through the index's admission scheduler, so
    /// concurrent callers arriving within the batching window share one
    /// batched scan. Results are bit-for-bit identical either way.
    pub(crate) fn serve_scan(
        &self,
        name: &str,
        ix: &IndexState,
        vector: &[f32],
        k: usize,
        knob: Option<usize>,
    ) -> Result<Vec<vdb_vecmath::Neighbor>> {
        let cfg = match self.serve_mode {
            ServeMode::Serial => {
                return Ok(ix.index.scan_with_knob(&self.bm, vector, k, knob)?);
            }
            ServeMode::Batched(cfg) => cfg,
        };
        let scheduler = {
            // Engine-rank map guard: must not be held across submit(),
            // whose queue lock is rank 0 (taken with nothing held).
            let mut map = self.schedulers.lock();
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(BatchScheduler::new(cfg, ix.index.dim()))),
            )
        };
        scheduler
            .submit(vector.to_vec(), k, knob, |queries, ks, knob| {
                ix.index
                    .scan_batch(&self.bm, queries, ks, knob)
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| SqlError::Semantic(format!("batched scan of {name:?} failed: {e}")))
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = {
            let _t = profile::scoped(Category::SqlFrontend);
            parse(sql)?
        };
        self.run(stmt)
    }

    /// Parse and execute one read-only statement (SELECT or EXPLAIN)
    /// through a shared reference — the concurrent serving path. Many
    /// sessions can call this on one `Database` at once; the buffer
    /// manager is the only shared mutable
    /// state underneath, as in PostgreSQL's backend-per-connection
    /// model with a shared buffer pool. DDL/DML still require `execute`
    /// (`&mut self`), which serializes writers at the type level.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let stmt = {
            let _t = profile::scoped(Category::SqlFrontend);
            parse(sql)?
        };
        match stmt {
            select @ Statement::Select { .. } => self.select(select),
            Statement::Explain(inner) => self.explain(*inner),
            other => Err(SqlError::Semantic(format!(
                "query() is read-only; run {} through execute()",
                statement_kind(&other)
            ))),
        }
    }

    /// Execute a parsed statement.
    pub fn run(&mut self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => self.create_table(name, columns),
            Statement::CreateIndex {
                name,
                table,
                kind,
                column,
                options,
            } => self.create_index(name, table, kind, column, options),
            Statement::Insert { table, rows } => self.insert(table, rows),
            select @ Statement::Select { .. } => self.select(select),
            Statement::Delete { table, id } => self.delete(table, id),
            Statement::Explain(inner) => self.explain(*inner),
            Statement::Drop { what, name } => self.drop(what, name),
        }
    }

    /// Bulk-load `(id, vector)` pairs, bypassing the SQL per-row path
    /// (the moral equivalent of `COPY`). Fails if any index exists on
    /// the table — create indexes after loading, as the paper's
    /// experiments do.
    pub fn bulk_load(&mut self, table: &str, ids: &[i64], vectors: &VectorSet) -> Result<()> {
        self.bulk_load_with_attrs(table, ids, &[], vectors)
    }

    /// Bulk-load rows with scalar attribute values. `attr_rows` must be
    /// empty (for attribute-less tables) or one row per id, each with
    /// one value per declared attribute column.
    pub fn bulk_load_with_attrs(
        &mut self,
        table: &str,
        ids: &[i64],
        attr_rows: &[Vec<f64>],
        vectors: &VectorSet,
    ) -> Result<()> {
        assert_eq!(ids.len(), vectors.len(), "ids/vectors length mismatch");
        if self.indexes.values().any(|ix| ix.table == table) {
            return Err(SqlError::Semantic(format!(
                "bulk_load into {table:?} with existing indexes is not supported"
            )));
        }
        let state = self
            .tables
            .get_mut(table)
            .ok_or_else(|| SqlError::Semantic(format!("unknown table {table:?}")))?;
        let nattrs = state.attrs.len();
        if attr_rows.is_empty() && nattrs > 0 {
            return Err(SqlError::Semantic(format!(
                "table {table:?} has {nattrs} attribute column(s); use bulk_load_with_attrs"
            )));
        }
        if !attr_rows.is_empty() && attr_rows.len() != ids.len() {
            return Err(SqlError::Semantic("ids/attr_rows length mismatch".into()));
        }
        check_dim(&mut state.dim, vectors.dim())?;
        static NO_ATTRS: Vec<f64> = Vec::new();
        let mut entries = Vec::with_capacity(ids.len());
        let mut load = || {
            for (i, &id) in ids.iter().enumerate() {
                let attrs = attr_rows.get(i).unwrap_or(&NO_ATTRS);
                if attrs.len() != nattrs {
                    return Err(SqlError::Semantic(format!(
                        "expected {nattrs} attribute value(s), got {}",
                        attrs.len()
                    )));
                }
                let tid = state
                    .heap
                    .insert(&self.bm, &encode_tuple(id, attrs, vectors.row(i)))?;
                entries.push((key_from_i64(id), tid));
                state.nrows += 1;
            }
            Ok(())
        };
        let loaded = load();
        // The rows a failed load left in the heap are indexed too.
        state.ids.extend(&self.bm, &entries)?;
        loaded
    }

    fn create_table(&mut self, name: String, columns: Vec<ColumnDef>) -> Result<QueryResult> {
        if self.tables.contains_key(&name) {
            return Err(SqlError::Semantic(format!("table {name:?} already exists")));
        }
        let mut dim = None;
        let mut saw_id = false;
        let mut saw_vec = false;
        let mut attrs: Vec<String> = Vec::new();
        for col in &columns {
            match col {
                ColumnDef::Id(c) => {
                    if c != "id" || saw_id {
                        return Err(SqlError::Semantic(
                            "exactly one integer column named 'id' is supported".into(),
                        ));
                    }
                    saw_id = true;
                }
                ColumnDef::Attr(c) => {
                    if c == "vec" || c == "distance" || attrs.contains(c) {
                        return Err(SqlError::Semantic(format!(
                            "bad attribute column name {c:?} (reserved or duplicate)"
                        )));
                    }
                    attrs.push(c.clone());
                }
                ColumnDef::Vector(c, d) => {
                    if c != "vec" || saw_vec {
                        return Err(SqlError::Semantic(
                            "exactly one vector column named 'vec' is supported".into(),
                        ));
                    }
                    saw_vec = true;
                    dim = *d;
                }
            }
        }
        if !saw_id || !saw_vec {
            return Err(SqlError::Semantic(
                "tables need an 'id int' and a 'vec float[]' column".into(),
            ));
        }
        let heap = HeapTable::create(&self.bm);
        let ids = BTree::create(&self.bm);
        self.tables.insert(
            name,
            TableState {
                heap,
                ids,
                dim,
                attrs,
                nrows: 0,
                deleted: std::collections::HashSet::new(),
            },
        );
        Ok(QueryResult::default())
    }

    fn create_index(
        &mut self,
        name: String,
        table: String,
        kind: IndexKind,
        column: String,
        options: Vec<IndexOption>,
    ) -> Result<QueryResult> {
        if self.indexes.contains_key(&name) {
            return Err(SqlError::Semantic(format!("index {name:?} already exists")));
        }
        if column != "vec" {
            return Err(SqlError::Semantic(
                "only the 'vec' column can be indexed".into(),
            ));
        }
        let state = self
            .tables
            .get(&table)
            .ok_or_else(|| SqlError::Semantic(format!("unknown table {table:?}")))?;

        // Collect the table's contents.
        let dim = state.dim.ok_or_else(|| {
            SqlError::Semantic("cannot index an empty table of unknown dimension".into())
        })?;
        let nattrs = state.attrs.len();
        let mut ids: Vec<i64> = Vec::new();
        let mut tids: Vec<Tid> = Vec::new();
        let mut data = VectorSet::empty(dim);
        state.heap.scan(&self.bm, |tid, bytes| {
            ids.push(decode_id(bytes));
            tids.push(tid);
            data.push(vector_slice(bytes, nattrs));
        })?;
        if data.is_empty() {
            return Err(SqlError::Semantic(
                "cannot build an index over an empty table".into(),
            ));
        }

        let opt = IndexBuildOptions::from_sql(&options, data.len())?;
        let opts = GeneralizedOptions {
            metric: opt.metric,
            ..self.options
        };
        let app_ids: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
        let index: Box<dyn PaseIndex> = match kind {
            IndexKind::IvfFlat => {
                let (idx, _) = PaseIvfFlatIndex::build_with_ids(
                    opts,
                    opt.ivf,
                    &self.bm,
                    Some(&app_ids),
                    &data,
                )?;
                Box::new(idx)
            }
            IndexKind::IvfPq => {
                let (idx, _) = PaseIvfPqIndex::build_with_ids(
                    opts,
                    opt.ivf,
                    opt.pq,
                    &self.bm,
                    Some(&app_ids),
                    &data,
                )?;
                Box::new(idx)
            }
            IndexKind::Hnsw => {
                let (idx, _) = build_hnsw_with_ids(opts, opt.hnsw, &self.bm, &ids, &data)?;
                Box::new(idx)
            }
            IndexKind::Decoupled(dk) => {
                let sopts = SpecializedOptions {
                    metric: opt.metric,
                    ..SpecializedOptions::default()
                };
                let params = match dk {
                    DecoupledKind::Flat => NativeParams::Flat,
                    DecoupledKind::IvfFlat => NativeParams::IvfFlat(opt.ivf),
                    DecoupledKind::IvfPq => NativeParams::IvfPq(opt.ivf, opt.pq),
                    DecoupledKind::Hnsw => NativeParams::Hnsw(opt.hnsw),
                };
                let idx =
                    DecoupledIndex::build(sopts, params, opt.consistency, &app_ids, &tids, &data);
                Box::new(DecoupledPaseIndex::new(idx, state.heap.rel()))
            }
        };
        self.indexes.insert(
            name,
            IndexState {
                table,
                column,
                metric: opt.metric,
                index,
            },
        );
        Ok(QueryResult::default())
    }

    fn insert(
        &mut self,
        table: String,
        rows: Vec<(i64, Vec<f64>, Vec<f32>)>,
    ) -> Result<QueryResult> {
        let state = self
            .tables
            .get_mut(&table)
            .ok_or_else(|| SqlError::Semantic(format!("unknown table {table:?}")))?;
        let nattrs = state.attrs.len();
        let mut row_tids: Vec<Tid> = Vec::with_capacity(rows.len());
        for (id, attrs, v) in &rows {
            if attrs.len() != nattrs {
                return Err(SqlError::Semantic(format!(
                    "expected {nattrs} attribute value(s) before the vector, got {}",
                    attrs.len()
                )));
            }
            check_dim(&mut state.dim, v.len())?;
            state.deleted.remove(id);
            let tid = state.heap.insert(&self.bm, &encode_tuple(*id, attrs, v))?;
            state.ids.insert(&self.bm, key_from_i64(*id), tid)?;
            row_tids.push(tid);
            state.nrows += 1;
        }
        // Maintain all indexes on this table. The heap TID rides along
        // so the decoupled engine can record its back-link; page-based
        // AMs ignore it.
        for ix in self.indexes.values_mut().filter(|ix| ix.table == table) {
            for ((id, _, v), tid) in rows.iter().zip(&row_tids) {
                ix.index.insert_with_tid(&self.bm, *id as u64, v, *tid)?;
            }
        }
        Ok(QueryResult::default())
    }

    fn select(&self, stmt: Statement) -> Result<QueryResult> {
        let Statement::Select {
            ref table,
            ref columns,
            ref where_clause,
            ..
        } = stmt
        else {
            return Err(SqlError::Semantic(
                "select() requires a SELECT statement".into(),
            ));
        };
        let table_name = table.clone();
        let projection = columns.clone();
        if !self.tables.contains_key(&table_name) {
            return Err(SqlError::Semantic(format!("unknown table {table_name:?}")));
        }
        let candidates = self.candidates_for(&table_name);
        let stats = self.stats_for(&table_name, where_clause.as_ref())?;
        let plan = plan_select(&stmt, &candidates, &stats)?;
        executor::execute_select(self, &table_name, &projection, plan)
    }

    fn candidates_for(&self, table: &str) -> Vec<IndexCandidate> {
        self.indexes
            .iter()
            .filter(|(_, ix)| ix.table == table)
            .map(|(name, ix)| IndexCandidate {
                name: name.clone(),
                column: ix.column.clone(),
                metric: ix.metric,
            })
            .collect()
    }

    /// Planner statistics: live row count, plus (when a predicate is
    /// present) its selectivity estimated over a bounded row sample —
    /// this repo's stand-in for `ANALYZE` statistics. The sample is the
    /// first [`SELECTIVITY_SAMPLE_ROWS`] live rows, and the heap scan
    /// stops there, so planning pins only the pages that hold them.
    /// Binding the predicate here also rejects unknown columns before
    /// planning.
    fn stats_for(&self, table: &str, pred: Option<&Predicate>) -> Result<TableStats> {
        let state = self.table(table)?;
        let mut stats = TableStats {
            nrows: state.nrows,
            selectivity: None,
        };
        let Some(pred) = pred else {
            return Ok(stats);
        };
        let bound = executor::bind_for_table(self, table, pred)?;
        let nattrs = state.attrs.len();
        let mut sample: Vec<Vec<f64>> = Vec::with_capacity(SELECTIVITY_SAMPLE_ROWS);
        state.heap.scan_until(&self.bm, |_, bytes| {
            let mut row = Vec::with_capacity(nattrs + 1);
            row.push(decode_id(bytes) as f64);
            for i in 0..nattrs {
                row.push(decode_attr(bytes, i));
            }
            sample.push(row);
            if sample.len() < SELECTIVITY_SAMPLE_ROWS {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })?;
        stats.selectivity = Some(estimate_selectivity(&bound, sample.iter().map(|r| &r[..])));
        Ok(stats)
    }

    /// Delete a row by id: dead in the heap immediately, filtered out
    /// of index results by the visibility check until a rebuild. Of
    /// several rows with the id, the newest (highest TID) goes.
    fn delete(&mut self, table: String, id: i64) -> Result<QueryResult> {
        let state = self
            .tables
            .get_mut(&table)
            .ok_or_else(|| SqlError::Semantic(format!("unknown table {table:?}")))?;
        match state.ids.last(&self.bm, key_from_i64(id))? {
            Some(hit) => {
                state.heap.delete(&self.bm, hit.tid)?;
                state.ids.delete_hit(&self.bm, hit)?;
                state.deleted.insert(id);
                state.nrows = state.nrows.saturating_sub(1);
                // Tell the indexes. Page-based AMs no-op (the executor's
                // visibility check hides dead entries until a rebuild);
                // the decoupled engine tombstones its native entry.
                for ix in self.indexes.values_mut().filter(|ix| ix.table == table) {
                    ix.index.delete(&self.bm, id as u64)?;
                }
                Ok(QueryResult::default())
            }
            None => Err(SqlError::Semantic(format!(
                "no row with id {id} in {table:?}"
            ))),
        }
    }

    /// Produce the plan a SELECT would run, without executing it.
    fn explain(&self, stmt: Statement) -> Result<QueryResult> {
        let Statement::Select {
            ref table,
            ref where_clause,
            ..
        } = stmt
        else {
            return Err(SqlError::Semantic("EXPLAIN supports only SELECT".into()));
        };
        let table_name = table.clone();
        if !self.tables.contains_key(&table_name) {
            return Err(SqlError::Semantic(format!("unknown table {table_name:?}")));
        }
        let candidates = self.candidates_for(&table_name);
        let stats = self.stats_for(&table_name, where_clause.as_ref())?;
        let plan = plan_select(&stmt, &candidates, &stats)?;
        let line = match &plan {
            crate::planner::Plan::IndexScan { index, k, .. } => {
                let am = self.index(index)?.index.describe();
                format!("Index Scan using {index} ({am}) on {table_name} (k={k})")
            }
            crate::planner::Plan::SeqScanTopK { k, .. } => {
                format!("Seq Scan on {table_name} -> Sort -> Limit (k={k})")
            }
            crate::planner::Plan::FilteredIndexScan {
                index,
                pred,
                k,
                strategy,
                ..
            } => {
                let label = strategy.label();
                match strategy {
                    FilterStrategy::PreFilter => format!(
                        "Seq Scan on {table_name} (filter: {pred}, strategy: {label}) \
                         -> Sort -> Limit (k={k})"
                    ),
                    FilterStrategy::PostFilter => {
                        let am = self.index(index)?.index.describe();
                        format!(
                            "Filtered Index Scan using {index} ({am}) on {table_name} \
                             (k={k}, filter: {pred}, strategy: {label})"
                        )
                    }
                }
            }
            crate::planner::Plan::FilteredSeqScanTopK { pred, k, .. } => {
                format!("Seq Scan on {table_name} (filter: {pred}) -> Sort -> Limit (k={k})")
            }
            crate::planner::Plan::PointLookup { id } => {
                format!("Index Scan using btree (id) on {table_name} (cond: id = {id})")
            }
            crate::planner::Plan::FilteredScan { pred, limit } => match limit {
                Some(l) => format!("Seq Scan on {table_name} (filter: {pred}, limit {l})"),
                None => format!("Seq Scan on {table_name} (filter: {pred})"),
            },
            crate::planner::Plan::FullScan { limit } => match limit {
                Some(l) => format!("Seq Scan on {table_name} (limit {l})"),
                None => format!("Seq Scan on {table_name}"),
            },
        };
        Ok(QueryResult {
            columns: vec!["plan".into()],
            rows: vec![vec![Value::Text(line)]],
        })
    }

    fn drop(&mut self, what: String, name: String) -> Result<QueryResult> {
        let removed = match what.as_str() {
            "table" => {
                let existed = self.tables.remove(&name).is_some();
                // Cascade: drop indexes on the table, and their schedulers.
                let mut schedulers = self.schedulers.lock();
                self.indexes.retain(|ix_name, ix| {
                    let keep = ix.table != name;
                    if !keep {
                        schedulers.remove(ix_name);
                    }
                    keep
                });
                existed
            }
            "index" => {
                self.schedulers.lock().remove(&name);
                self.indexes.remove(&name).is_some()
            }
            other => {
                return Err(SqlError::Semantic(format!(
                    "DROP target must be table or index, not {other:?}"
                )))
            }
        };
        if removed {
            Ok(QueryResult::default())
        } else {
            Err(SqlError::Semantic(format!("unknown {what} {name:?}")))
        }
    }

    pub(crate) fn table(&self, name: &str) -> Result<&TableState> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::Semantic(format!("unknown table {name:?}")))
    }

    pub(crate) fn index(&self, name: &str) -> Result<&IndexState> {
        self.indexes
            .get(name)
            .ok_or_else(|| SqlError::Semantic(format!("unknown index {name:?}")))
    }

    pub(crate) fn bm(&self) -> &BufferManager {
        &self.bm
    }

    /// Size in bytes of a named index (Figures 11–13 through SQL).
    pub fn index_size_bytes(&self, name: &str) -> Result<usize> {
        Ok(self.index(name)?.index.size_bytes(&self.bm))
    }
}

/// Concurrent sessions hold `&Database` across threads; this fails to
/// compile if any field loses thread-safety.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Database>()
};

/// Human name of a statement for the `query()` rejection message.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::CreateTable { .. } => "CREATE TABLE",
        Statement::CreateIndex { .. } => "CREATE INDEX",
        Statement::Insert { .. } => "INSERT",
        Statement::Select { .. } => "SELECT",
        Statement::Delete { .. } => "DELETE",
        Statement::Explain(_) => "EXPLAIN",
        Statement::Drop { .. } => "DROP",
    }
}

fn check_dim(dim: &mut Option<usize>, got: usize) -> Result<()> {
    match dim {
        Some(d) if *d != got => Err(SqlError::Semantic(format!(
            "vector dimension mismatch: table has {d}, got {got}"
        ))),
        Some(_) => Ok(()),
        None => {
            *dim = Some(got);
            Ok(())
        }
    }
}

fn build_hnsw_with_ids(
    opts: GeneralizedOptions,
    params: HnswParams,
    bm: &BufferManager,
    ids: &[i64],
    data: &VectorSet,
) -> Result<(PaseHnswIndex, vdb_vecmath::BuildTiming)> {
    let mut index = PaseHnswIndex::new(opts, params, bm, data.dim());
    let t0 = std::time::Instant::now();
    for (i, v) in data.iter().enumerate() {
        index.insert_vector(bm, ids[i] as u64, v)?;
    }
    let add = t0.elapsed();
    Ok((
        index,
        vdb_vecmath::BuildTiming {
            train: Default::default(),
            add,
        },
    ))
}

/// Options extracted from `WITH (...)`.
struct IndexBuildOptions {
    metric: Metric,
    ivf: IvfParams,
    pq: PqParams,
    hnsw: HnswParams,
    /// Decoupled-engine freshness mode (`consistency = sync|bounded(n)`);
    /// ignored by the page-based AMs.
    consistency: Consistency,
}

impl IndexBuildOptions {
    fn from_sql(options: &[IndexOption], n: usize) -> Result<IndexBuildOptions> {
        let mut metric = Metric::L2;
        let mut ivf = IvfParams::scaled_to(n);
        let mut pq = PqParams::default();
        let mut hnsw = HnswParams::default();
        let mut consistency = Consistency::Sync;
        for opt in options {
            if opt.key == "consistency" {
                consistency = match &opt.value {
                    OptionValue::Word(w) if w == "sync" => Consistency::Sync,
                    OptionValue::Call(f, n) if f == "bounded" => {
                        if *n < 0.0 || n.fract() != 0.0 {
                            return Err(SqlError::Semantic(format!(
                                "bounded() takes a non-negative integer, got {n}"
                            )));
                        }
                        Consistency::Bounded(*n as u64)
                    }
                    other => {
                        return Err(SqlError::Semantic(format!(
                            "consistency must be sync or bounded(n), got {other:?}"
                        )))
                    }
                };
                continue;
            }
            let v = opt.value.as_number().ok_or_else(|| {
                SqlError::Semantic(format!(
                    "option {:?} takes a numeric value, got {:?}",
                    opt.key, opt.value
                ))
            })?;
            match opt.key.as_str() {
                "distance_type" => {
                    metric = Metric::from_pase_code(v as u32)
                        .ok_or_else(|| SqlError::Semantic(format!("unknown distance_type {v}")))?;
                }
                "clusters" | "clustering_params_clusters" => ivf.clusters = positive(v)?,
                // PASE expresses the ratio in thousandths (paper §II-E:
                // "10 means the sampling ratio is 10/1000").
                "sample_ratio" | "clustering_params_sample" => {
                    let ratio = if v >= 1.0 { v / 1000.0 } else { v };
                    if ratio <= 0.0 || ratio > 1.0 {
                        return Err(SqlError::Semantic(format!("bad sample_ratio {v}")));
                    }
                    ivf.sample_ratio = ratio;
                }
                "nprobe" => ivf.nprobe = positive(v)?,
                "m" => pq.m = positive(v)?,
                "cpq" | "pq_centroids" => pq.cpq = positive(v)?,
                "bnn" => hnsw.bnn = positive(v)?,
                "efb" | "ef_build" => hnsw.efb = positive(v)?,
                "efs" | "ef_search" => hnsw.efs = positive(v)?,
                other => {
                    return Err(SqlError::Semantic(format!(
                        "unknown index option {other:?}"
                    )))
                }
            }
        }
        Ok(IndexBuildOptions {
            metric,
            ivf,
            pq,
            hnsw,
            consistency,
        })
    }
}

fn positive(v: f64) -> Result<usize> {
    if v >= 1.0 && v.fract() == 0.0 {
        Ok(v as usize)
    } else {
        Err(SqlError::Semantic(format!(
            "expected positive integer, got {v}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_datagen::gaussian::generate;

    fn db_with_data(n: usize, dim: usize) -> Database {
        let mut db = Database::in_memory();
        db.execute(&format!("CREATE TABLE items (id int, vec float[{dim}])"))
            .unwrap();
        let data = generate(dim, n, 8, 11);
        let ids: Vec<i64> = (0..n as i64).collect();
        db.bulk_load("items", &ids, &data).unwrap();
        db
    }

    #[test]
    fn create_insert_select_round_trip() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, vec float[2])").unwrap();
        db.execute("INSERT INTO t VALUES (10, '{1, 0}'), (20, '{0, 1}')")
            .unwrap();
        let res = db.execute("SELECT id, vec FROM t WHERE id = 20").unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0][0], Value::Int(20));
        assert_eq!(res.rows[0][1], Value::Vector(vec![0.0, 1.0]));
    }

    #[test]
    fn vector_search_without_index_uses_seq_scan() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, vec float[2])").unwrap();
        db.execute("INSERT INTO t VALUES (1, '{0,0}'), (2, '{5,5}'), (3, '{1,1}')")
            .unwrap();
        let res = db
            .execute("SELECT id FROM t ORDER BY vec <-> '0.9,0.9' LIMIT 2")
            .unwrap();
        assert_eq!(res.ids(), vec![3, 1]);
    }

    #[test]
    fn ivfflat_index_scan_end_to_end() {
        let mut db = db_with_data(500, 8);
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) \
             WITH (clusters = 8, sample_ratio = 500, distance_type = 0)",
        )
        .unwrap();
        let res = db
            .execute("SELECT id, distance FROM items ORDER BY vec <-> '0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5:8' LIMIT 5")
            .unwrap();
        assert_eq!(res.rows.len(), 5);
        // Distances ascending.
        let dists: Vec<f64> = res
            .rows
            .iter()
            .map(|r| match r[1] {
                Value::Float(d) => d,
                _ => panic!("distance column wrong type"),
            })
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn hnsw_index_scan_finds_exact_match() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, vec float[4])").unwrap();
        let data = generate(4, 300, 4, 3);
        let ids: Vec<i64> = (100..400).collect();
        db.bulk_load("t", &ids, &data).unwrap();
        db.execute("CREATE INDEX h ON t USING hnsw(vec) WITH (bnn = 8, efb = 32, efs = 64)")
            .unwrap();
        // Query with an exact base vector: its (offset) id must come back.
        let q: Vec<String> = data.row(7).iter().map(|x| x.to_string()).collect();
        let sql = format!(
            "SELECT id FROM t ORDER BY vec <-> '{}' LIMIT 1",
            q.join(",")
        );
        let res = db.execute(&sql).unwrap();
        assert_eq!(res.ids(), vec![107]);
    }

    #[test]
    fn ivfpq_index_scan_returns_k_rows() {
        let mut db = db_with_data(400, 8);
        db.execute(
            "CREATE INDEX p ON items USING ivfpq(vec) \
             WITH (clusters = 8, m = 4, cpq = 32, sample_ratio = 500)",
        )
        .unwrap();
        let res = db
            .execute("SELECT id FROM items ORDER BY vec <-> '0,0,0,0,0,0,0,0:8' LIMIT 7")
            .unwrap();
        assert_eq!(res.rows.len(), 7);
    }

    #[test]
    fn pase_cast_knob_is_honored() {
        let mut db = db_with_data(300, 4);
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) WITH (clusters = 8, sample_ratio = 500)",
        )
        .unwrap();
        // knob = full probe: result must equal the seq-scan answer.
        let with_index = db
            .execute("SELECT id FROM items ORDER BY vec <-> '0.5,0.5,0.5,0.5:8'::PASE LIMIT 5")
            .unwrap();
        db.execute("DROP INDEX idx").unwrap();
        let seq = db
            .execute("SELECT id FROM items ORDER BY vec <-> '0.5,0.5,0.5,0.5' LIMIT 5")
            .unwrap();
        assert_eq!(with_index.ids(), seq.ids());
    }

    #[test]
    fn insert_after_index_is_searchable() {
        let mut db = db_with_data(200, 4);
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) WITH (clusters = 4, sample_ratio = 500)",
        )
        .unwrap();
        db.execute("INSERT INTO items VALUES (99999, '{50, 50, 50, 50}')")
            .unwrap();
        let res = db
            .execute("SELECT id FROM items ORDER BY vec <-> '50,50,50,50:4' LIMIT 1")
            .unwrap();
        assert_eq!(res.ids(), vec![99999]);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, vec float[3])").unwrap();
        let err = db.execute("INSERT INTO t VALUES (1, '{1,2}')").unwrap_err();
        assert!(matches!(err, SqlError::Semantic(_)));
    }

    #[test]
    fn unknown_table_is_rejected() {
        let mut db = Database::in_memory();
        assert!(db.execute("SELECT id FROM nope LIMIT 1").is_err());
        assert!(db.execute("INSERT INTO nope VALUES (1, '{1}')").is_err());
    }

    #[test]
    fn duplicate_table_and_index_rejected() {
        let mut db = db_with_data(100, 4);
        assert!(db
            .execute("CREATE TABLE items (id int, vec float[4])")
            .is_err());
        db.execute(
            "CREATE INDEX i ON items USING ivfflat(vec) WITH (clusters=4, sample_ratio=500)",
        )
        .unwrap();
        assert!(db
            .execute("CREATE INDEX i ON items USING ivfflat(vec) WITH (clusters=4)")
            .is_err());
    }

    #[test]
    fn drop_table_cascades_indexes() {
        let mut db = db_with_data(100, 4);
        db.execute(
            "CREATE INDEX i ON items USING ivfflat(vec) WITH (clusters=4, sample_ratio=500)",
        )
        .unwrap();
        db.execute("DROP TABLE items").unwrap();
        assert!(db.execute("DROP INDEX i").is_err());
    }

    #[test]
    fn index_size_is_queryable() {
        let mut db = db_with_data(300, 8);
        db.execute(
            "CREATE INDEX i ON items USING ivfflat(vec) WITH (clusters=8, sample_ratio=500)",
        )
        .unwrap();
        let size = db.index_size_bytes("i").unwrap();
        assert!(size >= 300 * 8 * 4, "index size {size} implausibly small");
    }

    #[test]
    fn metric_operators_route_to_matching_index_only() {
        let mut db = db_with_data(200, 4);
        db.execute(
            "CREATE INDEX l2 ON items USING ivfflat(vec) WITH (clusters=4, distance_type=0, sample_ratio=500)",
        )
        .unwrap();
        // The cosine operator has no matching index; both must still
        // return k rows (seq-scan fallback for cosine).
        let cos = db
            .execute("SELECT id FROM items ORDER BY vec <=> '1,1,1,1' LIMIT 3")
            .unwrap();
        assert_eq!(cos.rows.len(), 3);
        let l2 = db
            .execute("SELECT id FROM items ORDER BY vec <-> '1,1,1,1' LIMIT 3")
            .unwrap();
        assert_eq!(l2.rows.len(), 3);
    }

    /// A table with attribute columns plus a helper that loads
    /// deterministic data: `price = id % 100`, `category = id % 10`.
    fn db_with_attrs(n: usize, dim: usize) -> Database {
        let mut db = Database::in_memory();
        db.execute(&format!(
            "CREATE TABLE items (id int, price float, category int, vec float[{dim}])"
        ))
        .unwrap();
        let data = generate(dim, n, 8, 11);
        let ids: Vec<i64> = (0..n as i64).collect();
        let attrs: Vec<Vec<f64>> = ids
            .iter()
            .map(|&i| vec![(i % 100) as f64, (i % 10) as f64])
            .collect();
        db.bulk_load_with_attrs("items", &ids, &attrs, &data)
            .unwrap();
        db
    }

    #[test]
    fn attr_columns_round_trip_through_sql() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, price float, vec float[2])")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 9.5, '{1,0}'), (2, 20, '{0,1}')")
            .unwrap();
        let res = db
            .execute("SELECT id, price FROM t WHERE price < 10")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(1), Value::Float(9.5)]]);
        // `*` expands to id, attrs, vec.
        let all = db.execute("SELECT * FROM t WHERE id = 2").unwrap();
        assert_eq!(all.columns, vec!["id", "price", "vec"]);
        assert_eq!(all.rows[0][1], Value::Float(20.0));
    }

    #[test]
    fn wrong_attr_count_in_insert_rejected() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, price float, vec float[2])")
            .unwrap();
        assert!(matches!(
            db.execute("INSERT INTO t VALUES (1, '{1,0}')").unwrap_err(),
            SqlError::Semantic(_)
        ));
        assert!(matches!(
            db.execute("INSERT INTO t VALUES (1, 2, 3, '{1,0}')")
                .unwrap_err(),
            SqlError::Semantic(_)
        ));
    }

    #[test]
    fn unknown_predicate_column_is_semantic_error() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, vec float[2])").unwrap();
        db.execute("INSERT INTO t VALUES (1, '{1,0}')").unwrap();
        // Parses fine — rejection happens at bind time against the
        // table's schema.
        let err = db.execute("SELECT id FROM t WHERE nope = 3").unwrap_err();
        assert!(matches!(err, SqlError::Semantic(_)), "got {err:?}");
    }

    /// Regression for the old planner error: WHERE combined with vector
    /// ORDER BY now executes (and respects both clauses).
    #[test]
    fn where_with_vector_order_by_works_end_to_end() {
        let mut db = db_with_attrs(500, 8);
        let res = db
            .execute(
                "SELECT id FROM items WHERE price < 30 \
                 ORDER BY vec <-> '0,0,0,0,0,0,0,0' LIMIT 10",
            )
            .unwrap();
        assert_eq!(res.rows.len(), 10);
        assert!(res.ids().iter().all(|id| id % 100 < 30));
    }

    /// Acceptance criterion: a filtered SQL query through a generalized
    /// index returns exactly the brute-force-under-filter answer.
    #[test]
    fn filtered_index_scan_matches_brute_force() {
        for sql_filter in [
            "price < 20",
            "category IN (2, 7)",
            "price BETWEEN 10 AND 35 AND category <> 4",
        ] {
            let mut db = db_with_attrs(600, 8);
            let q = "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5";
            // Full-probe knob so the IVF search is exhaustive and the
            // only variable is the filtering strategy.
            let sql = format!(
                "SELECT id FROM items WHERE {sql_filter} ORDER BY vec <-> '{q}:16' LIMIT 10"
            );
            let brute = db.execute(&sql).unwrap(); // no index yet: seq scan
            db.execute(
                "CREATE INDEX idx ON items USING ivfflat(vec) \
                 WITH (clusters = 16, sample_ratio = 500)",
            )
            .unwrap();
            let indexed = db.execute(&sql).unwrap();
            assert_eq!(indexed.ids(), brute.ids(), "filter {sql_filter:?}");
        }
    }

    #[test]
    fn filtered_query_with_zero_matches_returns_empty() {
        let mut db = db_with_attrs(300, 4);
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) WITH (clusters = 8, sample_ratio = 500)",
        )
        .unwrap();
        let res = db
            .execute("SELECT id FROM items WHERE price < 0 ORDER BY vec <-> '0,0,0,0' LIMIT 5")
            .unwrap();
        assert!(res.rows.is_empty());
    }

    #[test]
    fn deleted_rows_invisible_to_filtered_index_scan() {
        let mut db = db_with_attrs(200, 4);
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) WITH (clusters = 4, sample_ratio = 500)",
        )
        .unwrap();
        let q = "SELECT id FROM items WHERE category = 3 ORDER BY vec <-> '0,0,0,0:4' LIMIT 3";
        let before = db.execute(q).unwrap().ids();
        db.execute(&format!("DELETE FROM items WHERE id = {}", before[0]))
            .unwrap();
        let after = db.execute(q).unwrap().ids();
        assert!(!after.contains(&before[0]));
    }

    #[test]
    fn explain_shows_filter_and_strategy() {
        let mut db = db_with_attrs(400, 4);
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) WITH (clusters = 8, sample_ratio = 500)",
        )
        .unwrap();
        let tight = db
            .execute(
                "EXPLAIN SELECT id FROM items WHERE price < 1 ORDER BY vec <-> '0,0,0,0' LIMIT 5",
            )
            .unwrap();
        let Value::Text(line) = &tight.rows[0][0] else {
            panic!("not text")
        };
        // Pre-filter runs as the exact filtered heap scan.
        assert!(line.starts_with("Seq Scan on items"), "{line}");
        assert!(line.contains("strategy: pre-filter"), "{line}");
        let loose = db
            .execute(
                "EXPLAIN SELECT id FROM items WHERE price < 99 ORDER BY vec <-> '0,0,0,0' LIMIT 5",
            )
            .unwrap();
        let Value::Text(line) = &loose.rows[0][0] else {
            panic!("not text")
        };
        assert!(line.contains("Filtered Index Scan using idx"), "{line}");
        assert!(line.contains("strategy: post-filter"), "{line}");
    }

    #[test]
    fn negative_ids_fall_back_to_exact_filtered_scan() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id int, price float, vec float[2])")
            .unwrap();
        db.execute("INSERT INTO t VALUES (-5, 1, '{0,0}'), (3, 1, '{1,1}'), (4, 50, '{0.1,0.1}')")
            .unwrap();
        let res = db
            .execute("SELECT id FROM t WHERE price < 10 ORDER BY vec <-> '0,0' LIMIT 2")
            .unwrap();
        assert_eq!(res.ids(), vec![-5, 3]);
    }

    #[test]
    fn query_handles_select_and_explain_only() {
        let mut db = db_with_data(100, 4);
        db.execute(
            "CREATE INDEX i ON items USING ivfflat(vec) WITH (clusters=4, sample_ratio=500)",
        )
        .unwrap();
        // Read-only statements work through the shared-reference path
        // and agree with execute().
        let sql = "SELECT id FROM items ORDER BY vec <-> '0,0,0,0:4' LIMIT 3";
        let via_query = db.query(sql).unwrap();
        let via_execute = db.execute(sql).unwrap();
        assert_eq!(via_query, via_execute);
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(plan.columns, vec!["plan"]);
        // Writes are rejected with the statement named.
        let err = db.query("INSERT INTO items VALUES (7, '{1,2,3,4}')");
        match err {
            Err(SqlError::Semantic(msg)) => assert!(msg.contains("INSERT"), "{msg}"),
            other => panic!("expected semantic error, got {other:?}"),
        }
        assert!(db.query("DROP TABLE items").is_err());
        assert!(db.query("CREATE TABLE u (id int, vec float[2])").is_err());
    }

    #[test]
    fn sharded_pool_mode_serves_sql() {
        let mut db = Database::with_pool_mode(PageSize::Size8K, 4096, BufferPoolMode::Sharded);
        db.execute("CREATE TABLE t (id int, vec float[2])").unwrap();
        db.execute("INSERT INTO t VALUES (1, '{1,0}'), (2, '{0,1}')")
            .unwrap();
        let res = db
            .query("SELECT id FROM t ORDER BY vec <-> '1,0' LIMIT 1")
            .unwrap();
        assert_eq!(res.ids(), vec![1]);
    }

    /// Many sessions against one database: each thread runs its own
    /// query stream through `query(&self)` while sharing the buffer
    /// pool. Results must equal the single-session answers.
    #[test]
    fn concurrent_sessions_share_one_database() {
        let mut db = Database::new(PageSize::Size8K, 4096);
        db.execute("CREATE TABLE items (id int, vec float[8])")
            .unwrap();
        let data = generate(8, 400, 8, 11);
        let ids: Vec<i64> = (0..400).collect();
        db.bulk_load("items", &ids, &data).unwrap();
        db.execute(
            "CREATE INDEX idx ON items USING ivfflat(vec) \
             WITH (clusters = 8, sample_ratio = 500)",
        )
        .unwrap();
        let queries: Vec<String> = (0..8)
            .map(|qi| {
                let q: Vec<String> = data.row(qi * 37).iter().map(|x| x.to_string()).collect();
                format!(
                    "SELECT id FROM items ORDER BY vec <-> '{}:8' LIMIT 5",
                    q.join(",")
                )
            })
            .collect();
        let expected: Vec<Vec<i64>> = queries.iter().map(|q| db.query(q).unwrap().ids()).collect();
        let db = &db;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let queries = &queries;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for round in 0..5 {
                            let qi = (t + round) % queries.len();
                            got.push((qi, db.query(&queries[qi]).unwrap().ids()));
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                for (qi, ids) in h.join().unwrap() {
                    assert_eq!(ids, expected[qi], "query {qi}");
                }
            }
        });
    }

    #[test]
    fn decoupled_index_matches_seq_scan_under_full_probe() {
        for consistency in ["sync", "bounded(4)"] {
            let mut db = db_with_data(400, 8);
            let sql =
                "SELECT id FROM items ORDER BY vec <-> '0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5:8' LIMIT 5";
            let brute = db.execute(sql).unwrap();
            db.execute(&format!(
                "CREATE INDEX d ON items USING decoupled_ivfflat(vec) \
                 WITH (clusters = 8, sample_ratio = 500, consistency = {consistency})"
            ))
            .unwrap();
            let indexed = db.execute(sql).unwrap();
            assert_eq!(indexed.ids(), brute.ids(), "consistency {consistency}");
        }
    }

    #[test]
    fn decoupled_explain_names_engine_and_consistency() {
        let mut db = db_with_data(300, 4);
        db.execute(
            "CREATE INDEX d ON items USING decoupled_hnsw(vec) \
             WITH (bnn = 8, efb = 32, efs = 64, consistency = bounded(8))",
        )
        .unwrap();
        let res = db
            .execute("EXPLAIN SELECT id FROM items ORDER BY vec <-> '0,0,0,0' LIMIT 3")
            .unwrap();
        let Value::Text(line) = &res.rows[0][0] else {
            panic!("not text")
        };
        assert!(line.contains("decoupled_hnsw"), "{line}");
        assert!(line.contains("consistency=bounded(8)"), "{line}");
    }

    #[test]
    fn decoupled_dml_visibility_through_sql() {
        let mut db = db_with_data(200, 4);
        db.execute(
            "CREATE INDEX d ON items USING decoupled_flat(vec) WITH (consistency = bounded(1))",
        )
        .unwrap();
        // Insert two rows: lag 2 > bound 1, so the next search drains.
        db.execute("INSERT INTO items VALUES (7001, '{60,60,60,60}'), (7002, '{61,61,61,61}')")
            .unwrap();
        let res = db
            .execute("SELECT id FROM items ORDER BY vec <-> '60,60,60,60:4' LIMIT 2")
            .unwrap();
        assert_eq!(res.ids(), vec![7001, 7002]);
        // Delete one: it must vanish from subsequent searches.
        db.execute("DELETE FROM items WHERE id = 7001").unwrap();
        let res = db
            .execute("SELECT id FROM items ORDER BY vec <-> '60,60,60,60:4' LIMIT 1")
            .unwrap();
        assert_eq!(res.ids(), vec![7002]);
    }

    #[test]
    fn decoupled_filtered_query_matches_brute_force() {
        let mut db = db_with_attrs(500, 8);
        let q = "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5";
        let sql =
            format!("SELECT id FROM items WHERE price < 25 ORDER BY vec <-> '{q}:16' LIMIT 10");
        let brute = db.execute(&sql).unwrap();
        db.execute(
            "CREATE INDEX d ON items USING decoupled_ivfflat(vec) \
             WITH (clusters = 16, sample_ratio = 500)",
        )
        .unwrap();
        let indexed = db.execute(&sql).unwrap();
        assert_eq!(indexed.ids(), brute.ids());
    }

    #[test]
    fn bad_consistency_option_is_rejected() {
        let mut db = db_with_data(100, 4);
        for bad in [
            "consistency = 3",
            "consistency = eventual",
            "consistency = bounded(2.5)",
        ] {
            let err = db
                .execute(&format!(
                    "CREATE INDEX d ON items USING decoupled_flat(vec) WITH ({bad})"
                ))
                .unwrap_err();
            assert!(matches!(err, SqlError::Semantic(_)), "{bad}: {err:?}");
        }
        // consistency is meaningless for page-based AMs but harmless to
        // reject lazily — PASE AMs simply don't accept the key.
        let err = db
            .execute("CREATE INDEX p ON items USING ivfflat(vec) WITH (clusters = bounded(4))")
            .unwrap_err();
        assert!(matches!(err, SqlError::Semantic(_)), "{err:?}");
    }

    #[test]
    fn bulk_load_after_index_rejected() {
        let mut db = db_with_data(100, 4);
        db.execute(
            "CREATE INDEX i ON items USING ivfflat(vec) WITH (clusters=4, sample_ratio=500)",
        )
        .unwrap();
        let more = generate(4, 10, 2, 9);
        let ids: Vec<i64> = (1000..1010).collect();
        assert!(db.bulk_load("items", &ids, &more).is_err());
    }
}

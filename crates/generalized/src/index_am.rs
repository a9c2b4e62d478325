//! The index access-method interface (PostgreSQL's `IndexAmRoutine`).
//!
//! Paper §II-E: "the index implementation has to follow certain rules.
//! First, it needs to implement the interfaces, e.g., `build()`,
//! `insert()`, `scan()`, via PostgreSQL's IndexAmRoutine." The SQL layer
//! dispatches through this trait without knowing the index type.

use vdb_filter::{FilterStrategy, SelectionBitmap};
use vdb_storage::{BufferManager, Result, Tid};
use vdb_vecmath::{Neighbor, VectorSet};

/// What every generalized index exposes to the executor.
pub trait PaseIndex: Send + Sync {
    /// Human-readable access-method name (`ivfflat`, `ivfpq`, `hnsw`).
    fn am_name(&self) -> &'static str;

    /// Top-k scan for a query vector.
    fn scan(&self, bm: &BufferManager, query: &[f32], k: usize) -> Result<Vec<Neighbor>>;

    /// Top-k scan with a per-query knob from a `::PASE` literal —
    /// `nprobe` for IVF indexes, `efs` for HNSW. Defaults to ignoring
    /// the knob.
    fn scan_with_knob(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        knob: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        let _ = knob;
        self.scan(bm, query, k)
    }

    /// Batched top-k scan: serve a whole admission batch (one query per
    /// row of `queries`, with per-query `k` and a shared knob) in one
    /// call. The default serves each query through
    /// [`scan_with_knob`](Self::scan_with_knob); access methods with a
    /// native batched path (IVF_FLAT's query-batch × block SGEMM)
    /// override it. Implementations must return results bit-for-bit
    /// identical to the per-query path.
    fn scan_batch(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        ks: &[usize],
        knob: Option<usize>,
    ) -> Result<Vec<Vec<Neighbor>>> {
        queries
            .iter()
            .zip(ks)
            .map(|(q, &k)| self.scan_with_knob(bm, q, k, knob))
            .collect()
    }

    /// Insert one `(id, vector)` pair into the index.
    fn insert(&mut self, bm: &BufferManager, id: u64, vector: &[f32]) -> Result<()>;

    /// Insert with the heap TID of the freshly written tuple. Page-based
    /// AMs ignore the TID (their entries carry ids, and the executor
    /// re-finds rows by id); the decoupled engine stores it as the
    /// native entry's back-link.
    fn insert_with_tid(
        &mut self,
        bm: &BufferManager,
        id: u64,
        vector: &[f32],
        tid: Tid,
    ) -> Result<()> {
        let _ = tid;
        self.insert(bm, id, vector)
    }

    /// The row with `id` was deleted from the heap. Page-based AMs keep
    /// dead entries (PostgreSQL leaves them for VACUUM; the executor
    /// filters by the table's deleted set), so the default is a no-op.
    /// The decoupled engine tombstones the native entry.
    fn delete(&mut self, bm: &BufferManager, id: u64) -> Result<()> {
        let _ = (bm, id);
        Ok(())
    }

    /// One-line description for EXPLAIN output. Defaults to the access
    /// method name; engines with per-index configuration (the decoupled
    /// engine's consistency mode) append it here.
    fn describe(&self) -> String {
        self.am_name().to_string()
    }

    /// Indexed vector count.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-"disk" size in bytes (pages × page size), the metric of the
    /// paper's Figures 11–13.
    fn size_bytes(&self, bm: &BufferManager) -> usize;

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Hybrid (filtered) top-k scan: only ids set in `filter` may appear
    /// in the result.
    ///
    /// The default implementation serves both strategies with the shared
    /// adaptive k-expansion loop over
    /// [`scan_with_knob`](Self::scan_with_knob) — approximate for
    /// approximate access methods (HNSW uses it; a larger `k'` also
    /// widens its search beam). The IVF indexes (IVF_FLAT and IVF_PQ)
    /// override both arms: pre-filter with a TID-qualified scan of every
    /// list, post-filter with one bitmap-qualified walk of the probed
    /// lists, since re-scanning the same lists with a larger `k'` adds
    /// nothing. The SQL executor runs pre-filter plans as the exact
    /// filtered heap scan and calls this only for post-filter.
    fn scan_filtered(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
        knob: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        let _ = strategy;
        if k == 0 || filter.is_empty() {
            return Ok(Vec::new());
        }
        let mut err = None;
        let out = vdb_filter::post_filter_search(
            k,
            self.len(),
            vdb_filter::PostFilterParams::default(),
            |id| filter.contains(id),
            |k_prime| match self.scan_with_knob(bm, query, k_prime, knob) {
                Ok(found) => found,
                Err(e) => {
                    err = Some(e);
                    Vec::new()
                }
            },
        );
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

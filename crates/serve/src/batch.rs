//! Query-batch × block evaluation: GEMM-table prune + exact re-rank.
//!
//! The batched path must return **bit-for-bit identical** top-k to the
//! serial path (the engines' own per-query kernels), yet a blocked
//! SGEMM accumulates in a different order than `fvec_L2sqr`, so its
//! values differ in the last ulps. The resolution is the classic
//! prune-and-rerank split:
//!
//! 1. One `Q×B` squared-L2 table per block
//!    ([`vdb_gemm::l2_distance_table`], `‖q‖² + ‖r‖² − 2·q·r`) gives an
//!    *approximate* distance for every (query, row) pair — one pass
//!    over the block's memory for the whole batch.
//! 2. A pair is **skipped** only when the query's heap is full and the
//!    table distance exceeds the heap threshold by more than a
//!    conservative float-error margin (the margin is subtracted into
//!    the table as it is built, so the scan compares against the heap
//!    threshold alone); every surviving pair is recomputed with the
//!    engine's own exact kernel and *that* value is pushed.
//!
//! Since per-row exact distances do not depend on what else is in the
//! batch, and the k-heap's ordering (distance `total_cmp`, then id) is
//! insertion-order independent, the final heap contents match the
//! serial scan exactly — the GEMM table only ever *excludes* pairs that
//! could not have entered the heap.
//!
//! The margin bounds the worst-case disagreement between the two
//! computations: both the table entry and the exact kernel err by a few
//! ulps of the magnitudes involved, so `SCALE·(‖q‖² + ‖r‖²) + ABS`
//! with `SCALE = 1e-4` is orders of magnitude above either error while
//! still pruning essentially everything a full-heap threshold would.
//!
//! **Callers must only use this for squared-L2 metrics** — the table is
//! squared L2, so `exact` must compute in the same space. Engines fall
//! back to their serial path for inner-product/cosine.

use vdb_gemm::{gemm_nt_packed, row_norms_sq, GemmKernel, PackedMat};
use vdb_profile::{scoped, Category};
use vdb_vecmath::{KHeap, VectorSet};

/// Relative component of the prune margin, applied to `‖q‖² + ‖r‖²`.
/// ~2¹³ float ulps — vastly above the combined rounding error of a
/// blocked GEMM and an unrolled kernel at any practical dimension.
pub const MARGIN_SCALE: f32 = 1e-4;

/// Absolute component of the prune margin, covering near-zero
/// distances where the relative term vanishes.
pub const MARGIN_ABS: f32 = 1e-6;

/// A batch of query vectors packed row-major with precomputed squared
/// norms — the `Q×d` left operand of every block's distance table.
pub struct QueryBlock {
    flat: Vec<f32>,
    norms: Vec<f32>,
    dim: usize,
}

impl QueryBlock {
    /// Pack `queries` (attributed to [`Category::BatchAssembly`]).
    pub fn pack(queries: &VectorSet) -> QueryBlock {
        let _t = scoped(Category::BatchAssembly);
        let flat = queries.as_flat().to_vec();
        let norms = row_norms_sq(&flat, queries.dim());
        QueryBlock {
            flat,
            norms,
            dim: queries.dim(),
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow query `i`.
    pub fn query(&self, i: usize) -> &[f32] {
        &self.flat[i * self.dim..(i + 1) * self.dim]
    }
}

/// A row block prepared for repeated batched scans: GEMM panels packed
/// once ([`PackedMat`]) and squared row norms precomputed.
///
/// At serving shapes — a few active queries against a few dozen bucket
/// rows — the per-call panel pack and norm pass inside [`scan_block`]
/// cost as much as the arithmetic they enable. Engines whose blocks are
/// immutable between index mutations (IVF bucket vectors) build one
/// `RowBlock` per block on first batched access and reuse it for every
/// subsequent batch via [`scan_block_cached`], invalidating on mutation.
/// Costs roughly one extra copy of the block in memory (panels + norms).
pub struct RowBlock {
    packed: PackedMat,
    norms: Vec<f32>,
}

impl RowBlock {
    /// Pack `rows` (`B×d` row-major) and precompute its squared norms
    /// (attributed to [`Category::BatchAssembly`]).
    pub fn build(rows: &[f32], d: usize) -> RowBlock {
        let _t = scoped(Category::BatchAssembly);
        RowBlock {
            packed: PackedMat::pack(rows, d),
            norms: row_norms_sq(rows, d),
        }
    }

    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Bytes held by the packed panels and norms.
    pub fn size_bytes(&self) -> usize {
        self.packed.size_bytes() + std::mem::size_of_val(self.norms.as_slice())
    }
}

/// Reusable buffers for a sequence of block scans. One instance per
/// batch evaluation amortizes the allocations across every probed
/// block — at serving shapes a malloc per bucket is measurable.
#[derive(Default)]
pub struct BatchScratch {
    table: Vec<f32>,
    flat: Vec<f32>,
    norms: Vec<f32>,
}

impl BatchScratch {
    /// Fresh, empty scratch.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

/// Gather the active queries into a contiguous sub-matrix (reusing
/// `flat`/`norms`); the common all-active case borrows the batch.
fn gather_active<'a>(
    qb: &'a QueryBlock,
    active: &[usize],
    flat: &'a mut Vec<f32>,
    norms: &'a mut Vec<f32>,
) -> (&'a [f32], &'a [f32]) {
    let identity = active.len() == qb.len() && active.iter().enumerate().all(|(i, &q)| i == q);
    if identity {
        return (&qb.flat, &qb.norms);
    }
    let _t = scoped(Category::BatchAssembly);
    flat.clear();
    norms.clear();
    for &qi in active {
        flat.extend_from_slice(qb.query(qi));
        norms.push(qb.norms[qi]);
    }
    (flat, norms)
}

/// Fold norms *and the prune margin* into an inner-product table in
/// place: `t ← max(‖q‖² + ‖r‖² − 2·t, 0) − margin(q, r)`. With the
/// margin pre-subtracted, the scan pass compares each entry against
/// the heap threshold alone — one branch per pair instead of two
/// multiplies, two adds, and a branch.
fn fold_norms_minus_margin(table: &mut [f32], anorms: &[f32], row_norms: &[f32]) {
    for (trow, &qn) in table.chunks_exact_mut(row_norms.len()).zip(anorms) {
        for (t, &rn) in trow.iter_mut().zip(row_norms) {
            let sum = qn + rn;
            *t = (sum - 2.0 * *t).max(0.0) - (MARGIN_SCALE * sum + MARGIN_ABS);
        }
    }
}

/// The prune-and-rerank pass shared by [`scan_block`] and
/// [`scan_block_cached`]: skip a pair only when its margin-adjusted
/// table distance clears the heap threshold (an underfull heap's
/// threshold is +∞, so nothing is skipped until k candidates have been
/// seen); recompute every survivor with `exact`. The threshold only
/// changes on push, so it stays in a local between pushes.
fn rerank(
    qb: &QueryBlock,
    active: &[usize],
    table: &[f32],
    rows: &[f32],
    row_ids: &[u64],
    exact: &mut dyn FnMut(&[f32], &[f32]) -> f32,
    heaps: &mut [KHeap],
) {
    let d = qb.dim;
    let b = row_ids.len();
    for (ai, &qi) in active.iter().enumerate() {
        let heap = &mut heaps[qi];
        let q = qb.query(qi);
        let trow = &table[ai * b..(ai + 1) * b];
        let mut thr = heap.threshold();
        for (j, &td) in trow.iter().enumerate() {
            if td > thr {
                continue;
            }
            let dist = exact(q, &rows[j * d..(j + 1) * d]);
            heap.push(row_ids[j], dist);
            thr = heap.threshold();
        }
    }
}

/// Evaluate one row block against the active subset of a query batch.
///
/// * `active` — indices into `qb`/`heaps` of the queries probing this
///   block (for IVF, the queries whose probe set contains this bucket).
/// * `rows` — the block's vectors, row-major `B×d`; `row_ids` their ids.
/// * `exact(q, row)` — the engine's own serial distance kernel; its
///   values (not the table's) are what heaps receive, which is what
///   makes batched results identical to serial ones.
/// * `heaps` — per-query top-k heaps indexed like `qb` (so per-query k
///   just falls out of each heap's capacity).
/// * `scratch` — reusable buffers; pass the same instance to every
///   block of a batch evaluation.
///
/// The `Q×B` table and prune are attributed to
/// [`Category::BatchGemm`]; sub-batch gather to
/// [`Category::BatchAssembly`].
#[allow(clippy::too_many_arguments)]
pub fn scan_block(
    kernel: GemmKernel,
    qb: &QueryBlock,
    active: &[usize],
    rows: &[f32],
    row_ids: &[u64],
    exact: &mut dyn FnMut(&[f32], &[f32]) -> f32,
    heaps: &mut [KHeap],
    scratch: &mut BatchScratch,
) {
    let d = qb.dim;
    if active.is_empty() || row_ids.is_empty() {
        return;
    }
    debug_assert_eq!(rows.len(), row_ids.len() * d, "ragged row block");

    let BatchScratch { table, flat, norms } = scratch;
    let (aflat, anorms) = gather_active(qb, active, flat, norms);

    // Build the Q×B table in place: one SGEMM for the inner products,
    // then fold in the norms and margin. Row norms are computed once
    // and shared with the margin — `l2_distance_table` would compute
    // them a second time, which the many-small-blocks serving path
    // cannot afford.
    let b = row_ids.len();
    {
        let _t = scoped(Category::BatchGemm);
        let row_norms = row_norms_sq(rows, d);
        table.clear();
        table.resize(active.len() * b, 0.0);
        kernel.gemm_nt(active.len(), b, d, aflat, rows, table);
        fold_norms_minus_margin(table, anorms, &row_norms);
    }

    rerank(qb, active, table, rows, row_ids, exact, heaps);
}

/// [`scan_block`] against a prepared [`RowBlock`]: the panel pack and
/// row-norm pass are skipped, the GEMM goes straight to the register
/// tile over the cached panels.
///
/// `rows` must be the same `B×d` matrix `block` was built from — the
/// exact re-rank reads it, which is what keeps cached results
/// bit-for-bit identical to [`scan_block`] and to the serial path (the
/// table still only *excludes* pairs; every survivor is recomputed with
/// `exact`). The packed GEMM is always the blocked kernel — with
/// prune-plus-rerank the table's kernel provably cannot change results,
/// so there is no `GemmKernel` knob here.
#[allow(clippy::too_many_arguments)]
pub fn scan_block_cached(
    qb: &QueryBlock,
    active: &[usize],
    block: &RowBlock,
    rows: &[f32],
    row_ids: &[u64],
    exact: &mut dyn FnMut(&[f32], &[f32]) -> f32,
    heaps: &mut [KHeap],
    scratch: &mut BatchScratch,
) {
    let d = qb.dim;
    if active.is_empty() || row_ids.is_empty() {
        return;
    }
    debug_assert_eq!(block.len(), row_ids.len(), "block/id length mismatch");
    debug_assert_eq!(rows.len(), row_ids.len() * d, "ragged row block");

    let BatchScratch { table, flat, norms } = scratch;
    let (aflat, anorms) = gather_active(qb, active, flat, norms);

    {
        let _t = scoped(Category::BatchGemm);
        table.clear();
        table.resize(active.len() * block.len(), 0.0);
        gemm_nt_packed(active.len(), aflat, &block.packed, table);
        fold_norms_minus_margin(table, anorms, &block.norms);
    }

    rerank(qb, active, table, rows, row_ids, exact, heaps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_vecmath::distance::l2_sqr_ref;
    use vdb_vecmath::rng::Rng;
    use vdb_vecmath::{Metric, Neighbor};

    fn random_set(n: usize, d: usize, seed: u64) -> VectorSet {
        let mut rng = Rng::seed_from_u64(seed);
        VectorSet::from_flat(d, (0..n * d).map(|_| rng.range_f32(-1.0..1.0)).collect())
    }

    /// Serial oracle: scan every row with the exact kernel.
    fn serial_topk(
        queries: &VectorSet,
        rows: &VectorSet,
        ids: &[u64],
        ks: &[usize],
        exact: &mut dyn FnMut(&[f32], &[f32]) -> f32,
    ) -> Vec<Vec<Neighbor>> {
        queries
            .iter()
            .zip(ks)
            .map(|(q, &k)| {
                let mut heap = KHeap::new(k);
                for (row, &id) in rows.iter().zip(ids) {
                    heap.push(id, exact(q, row));
                }
                heap.into_sorted()
            })
            .collect()
    }

    fn batched_topk(
        queries: &VectorSet,
        rows: &VectorSet,
        ids: &[u64],
        ks: &[usize],
        exact: &mut dyn FnMut(&[f32], &[f32]) -> f32,
    ) -> Vec<Vec<Neighbor>> {
        let qb = QueryBlock::pack(queries);
        let active: Vec<usize> = (0..queries.len()).collect();
        let mut heaps: Vec<KHeap> = ks.iter().map(|&k| KHeap::new(k)).collect();
        scan_block(
            GemmKernel::Blas,
            &qb,
            &active,
            rows.as_flat(),
            ids,
            exact,
            &mut heaps,
            &mut BatchScratch::new(),
        );
        heaps.into_iter().map(KHeap::into_sorted).collect()
    }

    #[test]
    fn batched_matches_serial_bit_for_bit_reference_kernel() {
        let d = 24;
        let rows = random_set(200, d, 1);
        let ids: Vec<u64> = (0..200).map(|i| i * 3 + 7).collect();
        for q in 1..=8usize {
            let queries = random_set(q, d, 100 + q as u64);
            let ks: Vec<usize> = (0..q).map(|i| [1, 10, 100][i % 3]).collect();
            // The reference scalar loop is deliberately a *different*
            // accumulation order than the GEMM table.
            let mut exact = |a: &[f32], b: &[f32]| l2_sqr_ref(a, b);
            let serial = serial_topk(&queries, &rows, &ids, &ks, &mut exact);
            let batched = batched_topk(&queries, &rows, &ids, &ks, &mut exact);
            assert_eq!(serial, batched, "batch size {q}");
        }
    }

    #[test]
    fn batched_matches_serial_with_metric_kernel() {
        let d = 17; // odd dim stresses unrolled-kernel tails
        let rows = random_set(150, d, 2);
        let ids: Vec<u64> = (0..150).collect();
        let queries = random_set(6, d, 3);
        let ks = vec![5; 6];
        let mut exact = |a: &[f32], b: &[f32]| {
            Metric::L2.distance_with(vdb_vecmath::DistanceKernel::Optimized, a, b)
        };
        let serial = serial_topk(&queries, &rows, &ids, &ks, &mut exact);
        let batched = batched_topk(&queries, &rows, &ids, &ks, &mut exact);
        assert_eq!(serial, batched);
    }

    #[test]
    fn near_duplicate_rows_survive_the_margin() {
        // Rows that tie within float error are exactly where a naive
        // table prune would diverge from serial; the margin must keep
        // all of them in the exact re-rank.
        let d = 8;
        let base: Vec<f32> = (0..d).map(|i| i as f32 * 0.25).collect();
        let mut rows = VectorSet::empty(d);
        for i in 0..50 {
            let mut v = base.clone();
            v[i % d] += (i as f32) * 1e-7;
            rows.push(&v);
        }
        let ids: Vec<u64> = (0..50).collect();
        let mut queries = VectorSet::empty(d);
        queries.push(&base);
        let ks = vec![10];
        let mut exact = |a: &[f32], b: &[f32]| l2_sqr_ref(a, b);
        let serial = serial_topk(&queries, &rows, &ids, &ks, &mut exact);
        let batched = batched_topk(&queries, &rows, &ids, &ks, &mut exact);
        assert_eq!(serial, batched);
    }

    #[test]
    fn partial_active_set_only_touches_its_heaps() {
        let d = 12;
        let rows = random_set(40, d, 4);
        let ids: Vec<u64> = (0..40).collect();
        let queries = random_set(4, d, 5);
        let qb = QueryBlock::pack(&queries);
        let mut heaps: Vec<KHeap> = (0..4).map(|_| KHeap::new(3)).collect();
        let mut exact = |a: &[f32], b: &[f32]| l2_sqr_ref(a, b);
        scan_block(
            GemmKernel::Blas,
            &qb,
            &[1, 3],
            rows.as_flat(),
            &ids,
            &mut exact,
            &mut heaps,
            &mut BatchScratch::new(),
        );
        let results: Vec<Vec<Neighbor>> = heaps.into_iter().map(KHeap::into_sorted).collect();
        assert!(results[0].is_empty() && results[2].is_empty());
        let serial = serial_topk(&queries, &rows, &ids, &[3, 3, 3, 3], &mut exact);
        assert_eq!(results[1], serial[1]);
        assert_eq!(results[3], serial[3]);
    }

    #[test]
    fn cached_scan_matches_uncached_and_serial() {
        let d = 24;
        let rows = random_set(200, d, 1);
        let ids: Vec<u64> = (0..200).map(|i| i * 3 + 7).collect();
        let block = RowBlock::build(rows.as_flat(), d);
        assert_eq!(block.len(), 200);
        assert!(block.size_bytes() > 0);
        for q in 1..=8usize {
            let queries = random_set(q, d, 100 + q as u64);
            let ks: Vec<usize> = (0..q).map(|i| [1, 10, 100][i % 3]).collect();
            let mut exact = |a: &[f32], b: &[f32]| l2_sqr_ref(a, b);
            let serial = serial_topk(&queries, &rows, &ids, &ks, &mut exact);
            let qb = QueryBlock::pack(&queries);
            let active: Vec<usize> = (0..q).collect();
            let mut heaps: Vec<KHeap> = ks.iter().map(|&k| KHeap::new(k)).collect();
            scan_block_cached(
                &qb,
                &active,
                &block,
                rows.as_flat(),
                &ids,
                &mut exact,
                &mut heaps,
                &mut BatchScratch::new(),
            );
            let cached: Vec<Vec<Neighbor>> = heaps.into_iter().map(KHeap::into_sorted).collect();
            assert_eq!(serial, cached, "batch size {q}");
        }
    }

    #[test]
    fn cached_scan_with_partial_active_set() {
        let d = 12;
        let rows = random_set(40, d, 4);
        let ids: Vec<u64> = (0..40).collect();
        let queries = random_set(4, d, 5);
        let block = RowBlock::build(rows.as_flat(), d);
        let qb = QueryBlock::pack(&queries);
        let mut heaps: Vec<KHeap> = (0..4).map(|_| KHeap::new(3)).collect();
        let mut exact = |a: &[f32], b: &[f32]| l2_sqr_ref(a, b);
        scan_block_cached(
            &qb,
            &[1, 3],
            &block,
            rows.as_flat(),
            &ids,
            &mut exact,
            &mut heaps,
            &mut BatchScratch::new(),
        );
        let results: Vec<Vec<Neighbor>> = heaps.into_iter().map(KHeap::into_sorted).collect();
        assert!(results[0].is_empty() && results[2].is_empty());
        let serial = serial_topk(&queries, &rows, &ids, &[3, 3, 3, 3], &mut exact);
        assert_eq!(results[1], serial[1]);
        assert_eq!(results[3], serial[3]);
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let queries = random_set(2, 4, 6);
        let qb = QueryBlock::pack(&queries);
        let mut heaps: Vec<KHeap> = (0..2).map(|_| KHeap::new(2)).collect();
        let mut exact = |a: &[f32], b: &[f32]| l2_sqr_ref(a, b);
        let mut scratch = BatchScratch::new();
        scan_block(
            GemmKernel::Blas,
            &qb,
            &[],
            &[1.0; 4],
            &[1],
            &mut exact,
            &mut heaps,
            &mut scratch,
        );
        scan_block(
            GemmKernel::Blas,
            &qb,
            &[0, 1],
            &[],
            &[],
            &mut exact,
            &mut heaps,
            &mut scratch,
        );
        assert!(heaps.iter().all(|h| h.threshold() == f32::INFINITY));
    }
}

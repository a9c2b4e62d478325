//! PASE's IVF_FLAT: centroid pages plus bucket-chained data pages.
//!
//! Paper §VI-A: "IVF_FLAT is stored in centroid pages and data pages
//! where the centroid pages store centroid vectors and data pages store
//! base vectors in the buckets of each centroid." Every search walks the
//! probed buckets' page chains through the buffer manager (RC#2),
//! computes distances with the reference kernel, and accumulates a
//! size-*n* heap (RC#6). The adding phase assigns one vector at a time
//! with scalar distances — no SGEMM (RC#1) — which is why Figure 3 shows
//! 35–85× slower builds.

use crate::index_am::PaseIndex;
use crate::ivf_pages::{IvfPages, ScanScratch};
use crate::options::GeneralizedOptions;
use std::time::Instant;
use vdb_filter::{FilterStrategy, SelectionBitmap};
use vdb_profile::{self as profile, Category};
use vdb_serve::{scan_block, BatchScratch, QueryBlock};
use vdb_storage::heap::{as_bytes_f32, bytemuck_f32};
use vdb_storage::{BufferManager, Result};
use vdb_vecmath::sampling::sample_indices;
use vdb_vecmath::{
    BuildTiming, IvfParams, KHeap, Kmeans, KmeansParams, Metric, Neighbor, TopKCollector, VectorSet,
};

/// RC#2 fix: a direct-array mirror of one bucket.
struct BucketCache {
    ids: Vec<u64>,
    vectors: VectorSet,
}

/// The generalized IVF_FLAT index.
pub struct PaseIvfFlatIndex {
    opts: GeneralizedOptions,
    params: IvfParams,
    dim: usize,
    /// In-memory copy of the trained centroids, used for assignment at
    /// build time (PASE also trains in memory before writing pages).
    quantizer: Kmeans,
    pages: IvfPages,
    len: usize,
    cache: Option<Vec<BucketCache>>,
}

impl PaseIvfFlatIndex {
    /// Train on a sample of `data`, write centroid pages, then add every
    /// vector. Returns the paper's train/add timing split.
    pub fn build(
        opts: GeneralizedOptions,
        params: IvfParams,
        bm: &BufferManager,
        data: &VectorSet,
    ) -> Result<(PaseIvfFlatIndex, BuildTiming)> {
        Self::build_with_ids(opts, params, bm, None, data)
    }

    /// [`build`](Self::build) with explicit application ids instead of
    /// positional ids (used by the SQL layer, whose tables carry user
    /// ids).
    pub fn build_with_ids(
        opts: GeneralizedOptions,
        params: IvfParams,
        bm: &BufferManager,
        ids: Option<&[u64]>,
        data: &VectorSet,
    ) -> Result<(PaseIvfFlatIndex, BuildTiming)> {
        assert!(!data.is_empty(), "cannot build IVF_FLAT over no vectors");
        if let Some(ids) = ids {
            assert_eq!(ids.len(), data.len(), "ids/data length mismatch");
        }
        let t0 = Instant::now();
        let sample_idx =
            sample_indices(data.len(), params.sample_ratio, params.clusters, opts.seed);
        let sample = data.gather(&sample_idx);
        let quantizer = Kmeans::train(
            opts.kmeans,
            &sample,
            &KmeansParams {
                k: params.clusters,
                iters: opts.kmeans_iters,
                seed: opts.seed,
                gemm: opts.assignment_gemm.unwrap_or(vdb_gemm::GemmKernel::Naive),
            },
        );
        let train = t0.elapsed();

        let t1 = Instant::now();
        let mut index = PaseIvfFlatIndex::empty(opts, params, bm, quantizer)?;
        index.add_all(bm, data, ids)?;
        if index.opts.memory_optimized {
            index.populate_cache(bm)?;
        }
        let add = t1.elapsed();
        Ok((index, BuildTiming { train, add }))
    }

    /// Create the relations and write the centroid pages.
    fn empty(
        opts: GeneralizedOptions,
        params: IvfParams,
        bm: &BufferManager,
        quantizer: Kmeans,
    ) -> Result<PaseIvfFlatIndex> {
        Ok(PaseIvfFlatIndex {
            opts,
            params,
            dim: quantizer.dim(),
            pages: IvfPages::create(bm, quantizer.centroids())?,
            quantizer,
            len: 0,
            cache: None,
        })
    }

    /// The adding phase. Without `assignment_gemm` (the PASE default),
    /// each vector is compared against every centroid with the scalar
    /// reference loop — the `fvec_L2sqr_ref` bottleneck of §V-A.
    fn add_all(&mut self, bm: &BufferManager, data: &VectorSet, ids: Option<&[u64]>) -> Result<()> {
        let _t = profile::scoped(Category::IvfAdd);
        let id_of = |base: u64, i: usize| ids.map_or(base + i as u64, |v| v[i]);
        let base = self.len as u64;
        match self.opts.assignment_gemm {
            Some(kernel) => {
                let assignments = self.quantizer.assign_batch(kernel, data);
                for (i, &a) in assignments.iter().enumerate() {
                    self.pages
                        .append(bm, a as usize, id_of(base, i), as_bytes_f32(data.row(i)))?;
                }
            }
            None => {
                for i in 0..data.len() {
                    let v = data.row(i);
                    let (a, _) = self.quantizer.nearest(self.opts.distance, v);
                    self.pages.append(bm, a, id_of(base, i), as_bytes_f32(v))?;
                }
            }
        }
        self.len += data.len();
        Ok(())
    }

    /// Materialize the RC#2 "memory-optimized table" cache by scanning
    /// every bucket chain once.
    fn populate_cache(&mut self, bm: &BufferManager) -> Result<()> {
        let mut cache = Vec::with_capacity(self.pages.buckets());
        for b in 0..self.pages.buckets() {
            let mut ids = Vec::new();
            let mut vectors = VectorSet::empty(self.dim);
            self.pages.visit(bm, b, |id, payload| {
                ids.push(id);
                vectors.push(bytemuck_f32(payload));
            })?;
            cache.push(BucketCache { ids, vectors });
        }
        self.cache = Some(cache);
        Ok(())
    }

    /// The trained centroids (e.g. for transplanting into Faiss* —
    /// Figure 15).
    pub fn centroids(&self) -> &VectorSet {
        self.quantizer.centroids()
    }

    /// Per-bucket tuple counts.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.pages.bucket_sizes()
    }

    /// Select the `nprobe` closest centroids, reading centroid pages
    /// through the buffer manager (unless memory-optimized).
    pub(crate) fn select_probes(
        &self,
        bm: &BufferManager,
        query: &[f32],
        nprobe: usize,
    ) -> Result<Vec<usize>> {
        self.pages
            .select_probes(bm, &self.opts, &self.quantizer, query, nprobe)
    }

    /// Search with an explicit `nprobe` (Figure 19 sweeps this).
    pub fn search_with_nprobe(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let probes = self.select_probes(bm, query, nprobe)?;
        let mut out = Vec::new();
        self.opts.probe_search(
            &[(query, probes)],
            k,
            |q, b, scratch, push| self.scan_bucket_into(bm, b, q, None, scratch, push),
            |r| out = r,
        )?;
        Ok(out)
    }

    /// Batch search with intra-query parallelism over a persistent
    /// worker pool: one round per query, workers scanning disjoint
    /// probe partitions. The merge strategy follows
    /// [`ParallelMode`](crate::ParallelMode) — PASE's shared locked heap
    /// (every candidate takes the mutex) or the fixed local-heap merge.
    pub fn search_batch_with_nprobe(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let batch: Vec<(&[f32], Vec<usize>)> = queries
            .iter()
            .map(|q| Ok((q, self.select_probes(bm, q, nprobe)?)))
            .collect::<Result<_>>()?;
        let mut out = Vec::with_capacity(batch.len());
        self.opts.probe_search(
            &batch,
            k,
            |q, b, scratch, push| self.scan_bucket_into(bm, b, q, None, scratch, push),
            |r| out.push(r),
        )?;
        Ok(out)
    }

    /// Batched serving (`vdb-serve`): serve a whole admission batch with
    /// per-query `k` in one pass over the probed buckets. Per-query
    /// probe lists are inverted into bucket → active-query lists so each
    /// bucket's tuples are materialized once per *batch* (one `Q×B` GEMM
    /// distance table per bucket, RC#1 applied to the read path) instead
    /// of once per query. The GEMM table only prunes; survivors are
    /// re-ranked with the engine's own scalar kernel, so results are
    /// bit-for-bit identical to [`search_with_nprobe`](Self::search_with_nprobe).
    /// Non-L2 metrics fall back to the serial path.
    pub fn search_batch_gemm(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if !matches!(self.opts.metric, Metric::L2) || queries.len() != ks.len() {
            return queries
                .iter()
                .zip(ks)
                .map(|(q, &k)| self.search_with_nprobe(bm, q, k, nprobe))
                .collect();
        }
        let kernel = self
            .opts
            .assignment_gemm
            .unwrap_or(vdb_gemm::GemmKernel::Blas);
        let qb = QueryBlock::pack(queries);
        let mut heaps: Vec<KHeap> = ks.iter().map(|&k| KHeap::new(k)).collect();
        let mut active: Vec<Vec<usize>> = vec![Vec::new(); self.pages.buckets()];
        for (qi, q) in queries.iter().enumerate() {
            for b in self.select_probes(bm, q, nprobe)? {
                active[b].push(qi);
            }
        }
        let mut exact =
            |q: &[f32], row: &[f32]| self.opts.metric.distance_with(self.opts.distance, q, row);
        let mut scratch_ids: Vec<u64> = Vec::new();
        let mut scratch_rows: Vec<f32> = Vec::new();
        let mut scratch = BatchScratch::new();
        for (b, active) in active.iter().enumerate() {
            if active.is_empty() {
                continue;
            }
            if let Some(cache) = &self.cache {
                let bucket = &cache[b];
                scan_block(
                    kernel,
                    &qb,
                    active,
                    bucket.vectors.as_flat(),
                    &bucket.ids,
                    &mut exact,
                    &mut heaps,
                    &mut scratch,
                );
            } else {
                scratch_ids.clear();
                scratch_rows.clear();
                {
                    let _t = profile::scoped(Category::TupleAccess);
                    self.pages.visit(bm, b, |id, payload| {
                        scratch_ids.push(id);
                        scratch_rows.extend_from_slice(bytemuck_f32(payload));
                    })?;
                }
                scan_block(
                    kernel,
                    &qb,
                    active,
                    &scratch_rows,
                    &scratch_ids,
                    &mut exact,
                    &mut heaps,
                    &mut scratch,
                );
            }
        }
        Ok(heaps.into_iter().map(KHeap::into_sorted).collect())
    }

    /// Scan one bucket, feeding `(id, distance)` pairs to `push`; with
    /// a `filter`, only tuples whose id it holds are scored (both
    /// filtered strategies: distance work scales with the passing-tuple
    /// count, while page I/O still covers the chain).
    ///
    /// The paged path is [`IvfPages::scan`]; the RC#2 fix reads the
    /// cached arrays with no buffer manager.
    pub(crate) fn scan_bucket_into(
        &self,
        bm: &BufferManager,
        b: usize,
        query: &[f32],
        filter: Option<&SelectionBitmap>,
        scratch: &mut ScanScratch,
        push: &mut dyn FnMut(u64, f32),
    ) -> Result<()> {
        let kernel = |v: &[f32]| self.opts.metric.distance_with(self.opts.distance, query, v);
        let Some(cache) = &self.cache else {
            return self.pages.scan(
                bm,
                b,
                filter,
                scratch,
                |payload| kernel(bytemuck_f32(payload)),
                push,
            );
        };
        let bucket = &cache[b];
        let rows = bucket.ids.iter().copied().zip(bucket.vectors.iter());
        scratch.score(
            rows.filter(|&(id, _)| filter.is_none_or(|f| f.contains(id))),
            kernel,
        );
        scratch.flush(push);
        Ok(())
    }
}

impl PaseIndex for PaseIvfFlatIndex {
    fn am_name(&self) -> &'static str {
        "ivfflat"
    }

    fn scan(&self, bm: &BufferManager, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.search_with_nprobe(bm, query, k, self.params.nprobe)
    }

    fn scan_with_knob(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        knob: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        self.search_with_nprobe(bm, query, k, knob.unwrap_or(self.params.nprobe))
    }

    fn scan_batch(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        ks: &[usize],
        knob: Option<usize>,
    ) -> Result<Vec<Vec<Neighbor>>> {
        self.search_batch_gemm(bm, queries, ks, knob.unwrap_or(self.params.nprobe))
    }

    fn insert(&mut self, bm: &BufferManager, id: u64, vector: &[f32]) -> Result<()> {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        let (b, _) = self.quantizer.nearest(self.opts.distance, vector);
        self.pages.append(bm, b, id, as_bytes_f32(vector))?;
        self.len += 1;
        if let Some(cache) = &mut self.cache {
            cache[b].ids.push(id);
            cache[b].vectors.push(vector);
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn size_bytes(&self, bm: &BufferManager) -> usize {
        self.pages.size_bytes(bm)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Pre-filter skips probe selection entirely and walks *every*
    /// bucket's page chain through the buffer manager, qualifying each
    /// tuple against the bitmap before computing its distance — the
    /// paged analogue of a TID-qualified bitmap heap scan, exact under
    /// the filter. Post-filter walks the `nprobe` probed chains once,
    /// keeping only passing tuples. That returns exactly what
    /// re-searching those probes with a growing `k'` would: the
    /// candidate set does not grow with `k'`, and under [`Neighbor`]'s
    /// total order (distance, then id) both keep its first k passing
    /// candidates.
    fn scan_filtered(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
        knob: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        if k == 0 || filter.is_empty() {
            return Ok(Vec::new());
        }
        let (buckets, mut collector) = match strategy {
            FilterStrategy::PreFilter => (
                (0..self.pages.buckets()).collect(),
                TopKCollector::SizeK(KHeap::new(k)),
            ),
            FilterStrategy::PostFilter => (
                self.select_probes(bm, query, knob.unwrap_or(self.params.nprobe))?,
                self.opts.topk.collector(k),
            ),
        };
        let mut scratch = ScanScratch::default();
        for b in buckets {
            self.scan_bucket_into(bm, b, query, Some(filter), &mut scratch, &mut |id, d| {
                collector.push(id, d);
            })?;
        }
        Ok(collector.into_sorted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdb_datagen::gaussian::generate;
    use vdb_storage::{DiskManager, PageSize};

    fn setup() -> (BufferManager, VectorSet) {
        let disk = Arc::new(DiskManager::new(PageSize::Size8K));
        let bm = BufferManager::new(disk, 4096);
        let data = generate(16, 1200, 16, 77);
        (bm, data)
    }

    fn small_params() -> IvfParams {
        IvfParams {
            clusters: 16,
            sample_ratio: 0.5,
            nprobe: 4,
        }
    }

    #[test]
    fn build_distributes_all_vectors() {
        let (bm, data) = setup();
        let (idx, timing) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        assert_eq!(idx.len(), 1200);
        assert_eq!(idx.bucket_sizes().iter().sum::<usize>(), 1200);
        assert!(timing.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn full_probe_returns_exact_topk() {
        let (bm, data) = setup();
        let (idx, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        let q = data.row(3);
        let res = idx.search_with_nprobe(&bm, q, 5, 16).unwrap();
        assert_eq!(res[0].id, 3);
        assert_eq!(res[0].distance, 0.0);
        // Results sorted ascending.
        assert!(res.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn matches_brute_force_with_full_probe() {
        let (bm, data) = setup();
        let (idx, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        for qi in [0usize, 57, 901] {
            let q = data.row(qi);
            let got = idx.search_with_nprobe(&bm, q, 10, 16).unwrap();
            // Brute force oracle.
            let mut oracle: Vec<(u64, f32)> = (0..data.len())
                .map(|i| (i as u64, vdb_vecmath::Metric::L2.distance(q, data.row(i))))
                .collect();
            oracle.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            let want_ids: Vec<u64> = oracle.iter().take(10).map(|&(id, _)| id).collect();
            assert_eq!(got_ids, want_ids, "query {qi}");
        }
    }

    /// Batched serving equals serial serving bit-for-bit for every
    /// batch size in the default admission window, on both the paged
    /// path (page-chain walks) and the memory-optimized cached path,
    /// with per-query `k` mixed across the batch.
    #[test]
    fn batched_gemm_matches_serial_bit_for_bit() {
        let (bm, data) = setup();
        for memory_optimized in [false, true] {
            let opts = GeneralizedOptions {
                memory_optimized,
                ..GeneralizedOptions::default()
            };
            let (idx, _) = PaseIvfFlatIndex::build(opts, small_params(), &bm, &data).unwrap();
            for batch in 1..=8usize {
                let mut queries = VectorSet::empty(data.dim());
                let mut ks = Vec::new();
                for i in 0..batch {
                    queries.push(data.row(31 * i + 7));
                    ks.push([1usize, 10, 100][i % 3]);
                }
                let batched = idx.search_batch_gemm(&bm, &queries, &ks, 4).unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    let serial = idx.search_with_nprobe(&bm, q, ks[qi], 4).unwrap();
                    assert_eq!(serial.len(), batched[qi].len());
                    for (s, b) in serial.iter().zip(&batched[qi]) {
                        assert_eq!(s.id, b.id, "cached={memory_optimized} batch={batch} q={qi}");
                        assert_eq!(
                            s.distance.to_bits(),
                            b.distance.to_bits(),
                            "cached={memory_optimized} batch={batch} q={qi}"
                        );
                    }
                }
            }
        }
    }

    /// The `PaseIndex::scan_batch` entry point routes through the GEMM
    /// path and honors the per-query knob default.
    #[test]
    fn scan_batch_trait_entry_matches_scan_with_knob() {
        let (bm, data) = setup();
        let (idx, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        let mut queries = VectorSet::empty(data.dim());
        for i in 0..5 {
            queries.push(data.row(100 * i));
        }
        let ks = [3usize, 7, 1, 20, 5];
        for knob in [None, Some(8)] {
            let batched = idx.scan_batch(&bm, &queries, &ks, knob).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                let serial = idx.scan_with_knob(&bm, q, ks[qi], knob).unwrap();
                assert_eq!(serial, batched[qi], "knob={knob:?} q={qi}");
            }
        }
    }

    /// `(id, distance bits)` of a result list, for bit-for-bit checks.
    fn bits(found: &[Neighbor]) -> Vec<(u64, u32)> {
        found.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    /// The paged walk and the RC#2 cache return the same neighbors, bit
    /// for bit, through every walk (unfiltered, both filtered strategies
    /// and the batch path) on random queries, `k` and `nprobe`, after
    /// random inserts that leave partly filled tail pages. At full probe
    /// both equal brute force over every row, which also checks the
    /// cache that `populate_cache` read through the same walk.
    #[test]
    fn memory_optimized_gives_identical_results() {
        vdb_vecmath::rng::cases("memory_optimized_gives_identical_results", 24, |rng| {
            let (bm, mut data) = setup();
            let paged = GeneralizedOptions::default();
            let cached = GeneralizedOptions {
                memory_optimized: true,
                ..paged
            };
            let (mut a, _) = PaseIvfFlatIndex::build(paged, small_params(), &bm, &data).unwrap();
            let (mut b, _) = PaseIvfFlatIndex::build(cached, small_params(), &bm, &data).unwrap();
            let near = |rng: &mut vdb_vecmath::rng::Rng, data: &VectorSet| -> Vec<f32> {
                let row = data.row(rng.range_usize(0..data.len()));
                row.iter().map(|x| x + rng.range_f32(-0.5..0.5)).collect()
            };
            for _ in 0..rng.range_usize(0..60) {
                let v = near(rng, &data);
                let id = data.len() as u64;
                a.insert(&bm, id, &v).unwrap();
                b.insert(&bm, id, &v).unwrap();
                data.push(&v);
            }
            let mut filter = SelectionBitmap::new();
            for id in 0..data.len() as u64 {
                if rng.range_usize(0..4) == 0 {
                    filter.insert(id);
                }
            }
            let mut queries = VectorSet::empty(data.dim());
            let mut ks = Vec::new();
            let nprobe = rng.range_usize(1..17);
            for _ in 0..4 {
                let q = near(rng, &data);
                let k = rng.range_usize(1..40);
                let pair = |idx: &PaseIvfFlatIndex| {
                    bits(&idx.search_with_nprobe(&bm, &q, k, nprobe).unwrap())
                };
                assert_eq!(pair(&a), pair(&b), "unfiltered k={k} nprobe={nprobe}");
                for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                    let filtered = |idx: &PaseIvfFlatIndex| {
                        bits(
                            &idx.scan_filtered(&bm, &q, k, &filter, strategy, Some(nprobe))
                                .unwrap(),
                        )
                    };
                    assert_eq!(
                        filtered(&a),
                        filtered(&b),
                        "{strategy:?} k={k} nprobe={nprobe}"
                    );
                }
                // Full probe: brute force over every row, base and inserted.
                let mut oracle: Vec<Neighbor> = data
                    .iter()
                    .enumerate()
                    .map(|(id, v)| {
                        Neighbor::new(id as u64, paged.metric.distance_with(paged.distance, &q, v))
                    })
                    .collect();
                oracle.sort_unstable();
                oracle.truncate(k);
                for idx in [&a, &b] {
                    assert_eq!(
                        bits(&idx.search_with_nprobe(&bm, &q, k, 16).unwrap()),
                        bits(&oracle)
                    );
                }
                queries.push(&q);
                ks.push(k);
            }
            let batch = |idx: &PaseIvfFlatIndex| -> Vec<Vec<(u64, u32)>> {
                let found = idx.scan_batch(&bm, &queries, &ks, Some(nprobe)).unwrap();
                found.iter().map(|r| bits(r)).collect()
            };
            assert_eq!(batch(&a), batch(&b), "batch nprobe={nprobe}");
        });
    }

    #[test]
    fn insert_after_build_is_searchable() {
        let (bm, data) = setup();
        let (mut idx, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        let novel = vec![42.0f32; 16];
        idx.insert(&bm, 999_999, &novel).unwrap();
        let res = idx.search_with_nprobe(&bm, &novel, 1, 16).unwrap();
        assert_eq!(res[0].id, 999_999);
    }

    #[test]
    fn gemm_assignment_matches_scalar_assignment() {
        let (bm, data) = setup();
        let pase = GeneralizedOptions::default();
        let gemm = GeneralizedOptions {
            assignment_gemm: Some(vdb_gemm::GemmKernel::Blas),
            ..pase
        };
        let (a, _) = PaseIvfFlatIndex::build(pase, small_params(), &bm, &data).unwrap();
        let (b, _) = PaseIvfFlatIndex::build(gemm, small_params(), &bm, &data).unwrap();
        assert_eq!(a.bucket_sizes(), b.bucket_sizes());
    }

    #[test]
    fn size_counts_whole_pages() {
        let (bm, data) = setup();
        let (idx, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        let size = idx.size_bytes(&bm);
        assert_eq!(size % 8192, 0);
        // At least the raw vector payload must be covered.
        assert!(size >= 1200 * 16 * 4);
    }

    #[test]
    fn profile_separates_tuple_access_from_distance() {
        let (bm, data) = setup();
        let (idx, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::default(), small_params(), &bm, &data)
                .unwrap();
        profile::enable(true);
        profile::reset_local();
        idx.search_with_nprobe(&bm, data.row(0), 10, 8).unwrap();
        let b = profile::take_local();
        profile::enable(false);
        assert!(b.nanos(Category::DistanceCalc) > 0, "no distance time");
        assert!(b.nanos(Category::TupleAccess) > 0, "no tuple-access time");
        assert!(b.nanos(Category::MinHeap) > 0, "no heap time");
    }
}

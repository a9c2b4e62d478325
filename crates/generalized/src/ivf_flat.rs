//! IVF_FLAT, written once for both engines: one core over two bucket
//! stores.
//!
//! Paper §VI-A: "IVF_FLAT is stored in centroid pages and data pages
//! where the centroid pages store centroid vectors and data pages store
//! base vectors in the buckets of each centroid." [`IvfFlat`] holds,
//! once each, training, assignment, insert, the RC#3 probe search, the
//! filtered walk and the batch-GEMM serve path. Where the rows live is
//! its store:
//!
//! * [`Paged`]: PASE's centroid pages and bucket-chained data pages, every
//!   read through the buffer manager (RC#2). [`PaseIvfFlatIndex`] is the
//!   core over it. Under `memory_optimized` it also keeps a [`Resident`]
//!   copy, read by one walk of the pages after the build and kept current
//!   by every insert, and reads from that copy instead (RC#2's fix).
//! * [`Resident`]: each bucket's ids and vectors in plain arrays, scanned
//!   by one fused [`simd::scan_into`] and served to batches from a packed
//!   [`RowBlock`]. The specialized engine's `IvfFlatIndex` is the core
//!   over it with every root-cause fix on.
//!
//! By default the adding phase assigns one vector at a time with scalar
//! distances — no SGEMM (RC#1) — which is why Figure 3 shows 35–85×
//! slower builds, and every search computes distances with the
//! reference kernel into a size-*n* heap (RC#6).

use crate::index_am::PaseIndex;
use crate::ivf_pages::{IvfPages, ScanScratch};
use crate::options::{GeneralizedOptions, ParallelMode};
use std::sync::OnceLock;
use std::time::Instant;
use vdb_filter::{FilterStrategy, SelectionBitmap};
use vdb_gemm::GemmKernel;
use vdb_profile::{self as profile, Category};
use vdb_serve::{scan_block, scan_block_cached, BatchScratch, QueryBlock, RowBlock};
use vdb_storage::heap::{as_bytes_f32, bytemuck_f32};
use vdb_storage::{BufferManager, Result};
use vdb_vecmath::parallel::map_chunks;
use vdb_vecmath::sampling::sample_indices;
use vdb_vecmath::{
    simd, BuildTiming, IvfParams, KHeap, Kmeans, KmeansParams, Metric, Neighbor, TopKCollector,
    TopKSink, VectorSet,
};

/// IVF_FLAT over the bucket store `S` ([`Paged`] or [`Resident`]).
pub struct IvfFlat<S> {
    opts: GeneralizedOptions,
    params: IvfParams,
    /// The trained centroids, in memory: assignment reads them (PASE
    /// also trains in memory before writing pages), and so does probe
    /// selection over resident rows.
    quantizer: Kmeans,
    store: S,
    len: usize,
}

/// The generalized engine's IVF_FLAT: the core over PASE's pages.
pub type PaseIvfFlatIndex = IvfFlat<Paged>;

/// PASE's IVF_FLAT pages, plus the resident copy RC#2's fix reads.
pub struct Paged {
    pages: IvfPages,
    resident: Option<Resident>,
}

/// Every bucket's rows in plain arrays, one bucket per centroid.
pub struct Resident(Vec<Bucket>);

/// One inverted list: parallel arrays of ids and vectors, plus the
/// packed GEMM panels and row norms batched serving reads, built on
/// first batched access and dropped whenever the list changes. The
/// block never affects results: it is a repack of the same vectors, and
/// the batched scan re-ranks every survivor with the exact kernel.
struct Bucket {
    ids: Vec<u64>,
    vectors: VectorSet,
    block: OnceLock<RowBlock>,
}

/// Where one read finds the buckets' rows.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// In the pages, through the buffer manager.
    Pages(&'a IvfPages, &'a BufferManager),
    /// In memory.
    Resident(&'a Resident),
}

/// A store's part of insert: put `(id, vector)` into bucket `b`.
type Append<'a, S> = dyn FnMut(&mut S, usize, u64, &[f32]) -> Result<()> + 'a;

/// The value of a resident build, insert or read, which reads and
/// writes no page and so cannot fail.
fn resident<T>(result: Result<T>) -> T {
    // PANIC-OK: only page I/O returns errors, and resident rows have no pages.
    result.unwrap_or_else(|e| unreachable!("resident rows reported {e}"))
}

impl Resident {
    fn new(quantizer: &Kmeans) -> Resident {
        let bucket = || Bucket {
            ids: Vec::new(),
            vectors: VectorSet::empty(quantizer.dim()),
            block: OnceLock::new(),
        };
        Resident((0..quantizer.k()).map(|_| bucket()).collect())
    }

    fn push(&mut self, b: usize, id: u64, v: &[f32]) -> Result<()> {
        let bucket = &mut self.0[b];
        bucket.ids.push(id);
        bucket.vectors.push(v);
        // The packed block describes the rows before this one.
        bucket.block.take();
        Ok(())
    }
}

impl Paged {
    fn append(&mut self, bm: &BufferManager, b: usize, id: u64, v: &[f32]) -> Result<()> {
        self.pages.append(bm, b, id, as_bytes_f32(v))?;
        match &mut self.resident {
            Some(resident) => resident.push(b, id, v),
            None => Ok(()),
        }
    }
}

impl<S> IvfFlat<S> {
    /// The trained coarse quantizer (e.g. to transplant its centroids
    /// into the other engine).
    pub fn quantizer(&self) -> &Kmeans {
        &self.quantizer
    }

    /// The trained centroids (e.g. for transplanting into Faiss* —
    /// Figure 15).
    pub fn centroids(&self) -> &VectorSet {
        self.quantizer.centroids()
    }

    /// The build-time `nprobe`, which a search that names none uses.
    pub fn default_nprobe(&self) -> usize {
        self.params.nprobe
    }
}

impl<S: Sync> IvfFlat<S> {
    /// Train on a sample of `data`, or take the given `centroids` (the
    /// paper's Faiss* transplant, Figure 15), then add every row of
    /// `data`, numbered by `ids` or by position, to the store `empty`
    /// makes for them. Returns the paper's train/add timing split.
    fn build_in(
        opts: GeneralizedOptions,
        params: IvfParams,
        centroids: Option<VectorSet>,
        ids: Option<&[u64]>,
        data: &VectorSet,
        empty: impl FnOnce(&Kmeans) -> Result<S>,
        append: &mut Append<'_, S>,
    ) -> Result<(Self, BuildTiming)> {
        let t0 = Instant::now();
        let quantizer = match centroids {
            Some(centroids) => Kmeans::from_centroids(opts.kmeans, centroids),
            None => {
                assert!(!data.is_empty(), "cannot build IVF_FLAT over no vectors");
                let sample =
                    sample_indices(data.len(), params.sample_ratio, params.clusters, opts.seed);
                let kmeans = KmeansParams {
                    k: params.clusters,
                    iters: opts.kmeans_iters,
                    seed: opts.seed,
                    gemm: opts.assignment_gemm.unwrap_or(GemmKernel::Naive),
                };
                Kmeans::train(opts.kmeans, &data.gather(&sample), &kmeans)
            }
        };
        let train = t0.elapsed();
        let t1 = Instant::now();
        let mut index = IvfFlat {
            store: empty(&quantizer)?,
            opts,
            params,
            quantizer,
            len: data.len(),
        };
        if let Some(ids) = ids {
            assert_eq!(ids.len(), data.len(), "ids/data length mismatch");
        }
        let _t = profile::scoped(Category::IvfAdd);
        for (i, b) in index.assign(data).into_iter().enumerate() {
            let id = ids.map_or(i as u64, |ids| ids[i]);
            append(&mut index.store, b as usize, id, data.row(i))?;
        }
        let add = t1.elapsed();
        Ok((index, BuildTiming { train, add }))
    }

    /// The adding phase's assignment: each row's nearest centroid.
    /// Without `assignment_gemm` (the PASE default) each row meets every
    /// centroid in the scalar loop — the `fvec_L2sqr_ref` bottleneck of
    /// §V-A; with it, rows go through a GEMM distance table (RC#1).
    /// RC#3's `parallel` also decides the build: PASE's
    /// `GlobalLockedHeap` builds serially, Faiss's `LocalHeapMerge`
    /// shards the rows over `threads`.
    fn assign(&self, data: &VectorSet) -> Vec<u32> {
        let threads = match self.opts.parallel {
            ParallelMode::GlobalLockedHeap => 1,
            ParallelMode::LocalHeapMerge => self.opts.threads.max(1),
        };
        let d = data.dim();
        let shards = map_chunks(data.len(), threads, |rows| {
            match self.opts.assignment_gemm {
                // A borrowed range of the flat matrix: no per-shard copy.
                Some(gemm) => {
                    let flat = &data.as_flat()[rows.start * d..rows.end * d];
                    self.quantizer.assign_batch_flat(gemm, d, flat)
                }
                None => rows
                    .map(|i| self.quantizer.nearest(self.opts.distance, data.row(i)).0 as u32)
                    .collect(),
            }
        });
        shards.concat()
    }

    /// Put `(id, v)` in the bucket of its nearest centroid (the scalar
    /// kernel: one row has no batch to amortize a GEMM over).
    fn insert_in(&mut self, id: u64, v: &[f32], append: &mut Append<'_, S>) -> Result<()> {
        assert_eq!(v.len(), self.quantizer.dim(), "dimension mismatch");
        let _t = profile::scoped(Category::IvfAdd);
        let (b, _) = self.quantizer.nearest(self.opts.distance, v);
        append(&mut self.store, b, id, v)?;
        self.len += 1;
        Ok(())
    }

    /// The `nprobe` buckets nearest `query`, best first: from the
    /// centroid pages, or from the in-memory quantizer over resident rows.
    pub(crate) fn probes(
        &self,
        rows: Rows<'_>,
        query: &[f32],
        nprobe: usize,
    ) -> Result<Vec<usize>> {
        match rows {
            Rows::Pages(pages, bm) => {
                pages.select_probes(bm, &self.opts, &self.quantizer, query, nprobe)
            }
            Rows::Resident(_) => Ok(self.opts.quantizer_probes(&self.quantizer, query, nprobe)),
        }
    }

    /// Offer bucket `b`'s rows to `sink` at their distance to `query`,
    /// only those whose id `filter` holds if one is given: one
    /// [`IvfPages::scan`] through the pool, or one fused
    /// [`simd::scan_into`] over resident rows, straight into the sink.
    pub(crate) fn scan_bucket(
        &self,
        rows: Rows<'_>,
        query: &[f32],
        b: usize,
        filter: Option<&SelectionBitmap>,
        scratch: &mut ScanScratch,
        sink: &mut impl TopKSink,
    ) -> Result<()> {
        let (metric, kernel) = (self.opts.metric, self.opts.distance);
        let distance = |v: &[f32]| metric.distance_with(kernel, query, v);
        let bucket = match rows {
            Rows::Pages(pages, bm) => {
                let distance = |payload: &[u8]| distance(bytemuck_f32(payload));
                return pages.scan(bm, b, filter, scratch, distance, &mut |id, d| {
                    sink.push(id, d)
                });
            }
            Rows::Resident(resident) => &resident.0[b],
        };
        let Some(filter) = filter else {
            let (vectors, ids) = (&bucket.vectors, Some(&bucket.ids[..]));
            simd::scan_into(
                metric,
                kernel,
                query,
                vectors,
                ids,
                sink,
                &mut scratch.distances,
            );
            return Ok(());
        };
        let rows = bucket.ids.iter().copied().zip(bucket.vectors.iter());
        scratch.score(rows.filter(|&(id, _)| filter.contains(id)), distance);
        scratch.flush(&mut |id, d| sink.push(id, d));
        Ok(())
    }

    /// Each query's top `k` over its `nprobe` nearest buckets, over one
    /// worker team: a round per query, workers scanning disjoint probe
    /// partitions, merged as RC#3's [`ParallelMode`] says — PASE's shared
    /// locked heap (every candidate takes the mutex) or the fixed
    /// local-heap merge.
    fn search_probed<'q>(
        &self,
        rows: Rows<'_>,
        queries: impl Iterator<Item = &'q [f32]>,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let batch = queries
            .map(|q| Ok((q, self.probes(rows, q, nprobe)?)))
            .collect::<Result<Vec<_>>>()?;
        let mut out = Vec::with_capacity(batch.len());
        self.opts.probe_search(
            &batch,
            k,
            |q, b, scratch, sink| self.scan_bucket(rows, q, b, None, scratch, sink),
            |r| out.push(r),
        )?;
        Ok(out)
    }

    /// One query's top `k` over its `nprobe` nearest buckets.
    fn search_one(
        &self,
        rows: Rows<'_>,
        q: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        assert_eq!(q.len(), self.quantizer.dim(), "dimension mismatch");
        let found = self.search_probed(rows, std::iter::once(q), k, nprobe)?;
        Ok(found.into_iter().next().unwrap_or_default())
    }

    /// Filtered top `k`: only rows whose id `filter` holds are scored.
    /// Pre-filter skips probe selection and walks *every* bucket — the
    /// analogue of a TID-qualified bitmap heap scan, exact under the
    /// filter. Post-filter walks the `nprobe` probed buckets once. That
    /// returns exactly what re-searching them with a growing `k'` would:
    /// the candidate set does not grow with `k'`, and under
    /// [`Neighbor`]'s total order (distance, then id) both keep its first
    /// k passing candidates.
    fn filtered(
        &self,
        rows: Rows<'_>,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        if k == 0 || filter.is_empty() {
            return Ok(Vec::new());
        }
        let (buckets, mut collector) = match strategy {
            FilterStrategy::PreFilter => (
                (0..self.quantizer.k()).collect(),
                TopKCollector::SizeK(KHeap::new(k)),
            ),
            FilterStrategy::PostFilter => (
                self.probes(rows, query, nprobe)?,
                self.opts.topk.collector(k),
            ),
        };
        let mut scratch = ScanScratch::default();
        for b in buckets {
            self.scan_bucket(rows, query, b, Some(filter), &mut scratch, &mut collector)?;
        }
        Ok(collector.into_sorted())
    }

    /// Batched serving (`vdb-serve`, RC#1 on the read path): a whole
    /// admission batch with per-query `k`, each query probing its
    /// `nprobe` nearest buckets, but each probed bucket read *once* for
    /// all of its active queries, through one `Q×B` GEMM distance table
    /// and an exact re-rank.
    ///
    /// Bit-for-bit identical to [`search_one`](Self::search_one) per
    /// query: probe selection is the same call, the re-rank uses the
    /// same per-pair kernel, and the table only excludes pairs that
    /// cannot enter a heap (see `vdb_serve::batch`). Non-L2 metrics fall
    /// back to the serial path — the distance table is squared L2.
    fn batch_gemm(
        &self,
        rows: Rows<'_>,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if !matches!(self.opts.metric, Metric::L2) || queries.len() != ks.len() {
            let mut serial = queries.iter().zip(ks);
            return serial.try_fold(Vec::new(), |mut out, (q, &k)| {
                out.push(self.search_one(rows, q, k, nprobe)?);
                Ok(out)
            });
        }
        let probes = queries
            .iter()
            .map(|q| self.probes(rows, q, nprobe))
            .collect::<Result<Vec<_>>>()?;
        // Invert per-query probe lists into per-bucket active-query
        // lists so each bucket is read once per batch. `min_rank[b]` is
        // the best probe rank any query gave bucket `b`; visiting
        // buckets in that order approximates every query's own
        // closest-first order, so heaps fill with good candidates early
        // and the table prune rejects most of the later buckets' rows.
        // Visit order cannot change results: the prune only excludes
        // rows that cannot enter a heap, and a heap's contents do not
        // depend on insertion order.
        let mut active: Vec<Vec<usize>> = vec![Vec::new(); self.quantizer.k()];
        let mut min_rank: Vec<usize> = vec![usize::MAX; self.quantizer.k()];
        let mut order: Vec<usize> = Vec::new();
        {
            let _t = profile::scoped(Category::BatchAssembly);
            for (qi, probes) in probes.iter().enumerate() {
                for (rank, &b) in probes.iter().enumerate() {
                    if active[b].is_empty() {
                        order.push(b);
                    }
                    active[b].push(qi);
                    min_rank[b] = min_rank[b].min(rank);
                }
            }
            order.sort_unstable_by_key(|&b| min_rank[b]);
        }
        let qb = QueryBlock::pack(queries);
        let mut heaps: Vec<KHeap> = ks.iter().map(|&k| KHeap::new(k)).collect();
        let mut exact =
            |q: &[f32], row: &[f32]| self.opts.metric.distance_with(self.opts.distance, q, row);
        let (mut scratch, mut ids, mut flat) = (BatchScratch::new(), Vec::new(), Vec::new());
        for &b in &order {
            match rows {
                Rows::Resident(resident) => {
                    let bucket = &resident.0[b];
                    let flat = bucket.vectors.as_flat();
                    // Packed once, reused by every batch until the bucket changes.
                    let d = bucket.vectors.dim();
                    let block = bucket.block.get_or_init(|| RowBlock::build(flat, d));
                    scan_block_cached(
                        &qb,
                        &active[b],
                        block,
                        flat,
                        &bucket.ids,
                        &mut exact,
                        &mut heaps,
                        &mut scratch,
                    );
                }
                Rows::Pages(pages, bm) => {
                    ids.clear();
                    flat.clear();
                    {
                        let _t = profile::scoped(Category::TupleAccess);
                        pages.visit(bm, b, |id, payload| {
                            ids.push(id);
                            flat.extend_from_slice(bytemuck_f32(payload));
                        })?;
                    }
                    scan_block(
                        self.opts.assignment_gemm.unwrap_or(GemmKernel::Blas),
                        &qb,
                        &active[b],
                        &flat,
                        &ids,
                        &mut exact,
                        &mut heaps,
                        &mut scratch,
                    );
                }
            }
        }
        Ok(heaps.into_iter().map(KHeap::into_sorted).collect())
    }
}

impl IvfFlat<Paged> {
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
    /// ids). Under `memory_optimized` the adding phase ends with one
    /// walk of every bucket into the resident copy.
    pub fn build_with_ids(
        opts: GeneralizedOptions,
        params: IvfParams,
        bm: &BufferManager,
        ids: Option<&[u64]>,
        data: &VectorSet,
    ) -> Result<(PaseIvfFlatIndex, BuildTiming)> {
        let empty = |quantizer: &Kmeans| {
            let pages = IvfPages::create(bm, quantizer.centroids())?;
            Ok(Paged {
                pages,
                resident: None,
            })
        };
        let append = &mut |store: &mut Paged, b, id, v: &[f32]| store.append(bm, b, id, v);
        let (mut index, mut timing) = Self::build_in(opts, params, None, ids, data, empty, append)?;
        if opts.memory_optimized {
            let t = Instant::now();
            let mut resident = Resident::new(&index.quantizer);
            for (b, bucket) in resident.0.iter_mut().enumerate() {
                index.store.pages.visit(bm, b, |id, payload| {
                    bucket.ids.push(id);
                    bucket.vectors.push(bytemuck_f32(payload));
                })?;
            }
            index.store.resident = Some(resident);
            timing.add += t.elapsed();
        }
        Ok((index, timing))
    }

    /// Where a read through `bm` finds the rows: the resident copy once
    /// there is one, else the pages.
    pub(crate) fn rows<'a>(&'a self, bm: &'a BufferManager) -> Rows<'a> {
        match &self.store.resident {
            Some(resident) => Rows::Resident(resident),
            None => Rows::Pages(&self.store.pages, bm),
        }
    }

    /// Per-bucket tuple counts.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.store.pages.bucket_sizes()
    }

    /// Search with an explicit `nprobe` (Figure 19 sweeps this).
    pub fn search_with_nprobe(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        self.search_one(self.rows(bm), query, k, nprobe)
    }

    /// Batch search with intra-query parallelism (see [`ParallelMode`]):
    /// one round per query over one worker team.
    pub fn search_batch_with_nprobe(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        self.search_probed(self.rows(bm), queries.iter(), k, nprobe)
    }

    /// Batched serving: each probed bucket read once per batch, results
    /// bit-for-bit those of [`search_with_nprobe`](Self::search_with_nprobe).
    pub fn search_batch_gemm(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        self.batch_gemm(self.rows(bm), queries, ks, nprobe)
    }
}

impl PaseIndex for IvfFlat<Paged> {
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
        self.insert_in(id, vector, &mut |store, b, id, v| {
            store.append(bm, b, id, v)
        })
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Whole centroid and data pages.
    fn size_bytes(&self, bm: &BufferManager) -> usize {
        self.store.pages.size_bytes(bm)
    }

    fn dim(&self) -> usize {
        self.quantizer.dim()
    }

    fn scan_filtered(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
        knob: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        let nprobe = knob.unwrap_or(self.params.nprobe);
        self.filtered(self.rows(bm), query, k, filter, strategy, nprobe)
    }
}

/// The specialized engine's IVF_FLAT API: the core over [`Resident`]
/// buckets, with ids numbered by insertion order.
impl IvfFlat<Resident> {
    /// Train on a sample of `data`, then add every row.
    pub fn build(
        opts: impl Into<GeneralizedOptions>,
        params: IvfParams,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        Self::build_resident(opts.into(), params, None, data)
    }

    /// Add every row of `data` to the buckets of the given `centroids` —
    /// the paper's Faiss* experiment (Figure 15), which transplants
    /// PASE's centroids to isolate RC#5.
    pub fn with_centroids(
        opts: impl Into<GeneralizedOptions>,
        params: IvfParams,
        centroids: VectorSet,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        Self::build_resident(opts.into(), params, Some(centroids), data)
    }

    fn build_resident(
        opts: GeneralizedOptions,
        params: IvfParams,
        centroids: Option<VectorSet>,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        let empty = |quantizer: &Kmeans| Ok(Resident::new(quantizer));
        let append = &mut |store: &mut Resident, b, id, v: &[f32]| store.push(b, id, v);
        resident(Self::build_in(
            opts, params, centroids, None, data, empty, append,
        ))
    }

    /// Insert one vector; its id is its insertion order, matching the
    /// build's numbering, so batch-built and streamed indexes agree.
    pub fn insert(&mut self, v: &[f32]) -> u64 {
        let id = self.len as u64;
        resident(self.insert_in(id, v, &mut |store, b, id, v| store.push(b, id, v)));
        id
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-bucket occupancy (for inspecting clustering balance).
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.store.0.iter().map(|b| b.ids.len()).collect()
    }

    /// Search with an explicit `nprobe`, overriding the configured one.
    pub fn search_with_nprobe(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        resident(self.search_one(Rows::Resident(&self.store), query, k, nprobe))
    }

    /// Batch search: one round per query over a persistent worker team.
    /// This is the intra-query parallelism of the paper's Figure 18 —
    /// per-thread local heaps over a probe partition, merged lock-free —
    /// without paying a thread spawn per query.
    pub fn search_batch(&self, queries: &VectorSet, k: usize, nprobe: usize) -> Vec<Vec<Neighbor>> {
        resident(self.search_probed(Rows::Resident(&self.store), queries.iter(), k, nprobe))
    }

    /// Batched serving: each probed bucket read once per batch from its
    /// packed block, results bit-for-bit those of
    /// [`search_with_nprobe`](Self::search_with_nprobe).
    pub fn search_batch_gemm(
        &self,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Vec<Vec<Neighbor>> {
        resident(self.batch_gemm(Rows::Resident(&self.store), queries, ks, nprobe))
    }

    /// Filtered top `k` at the build-time `nprobe`.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
    ) -> Vec<Neighbor> {
        let (rows, nprobe) = (Rows::Resident(&self.store), self.params.nprobe);
        resident(self.filtered(rows, query, k, filter, strategy, nprobe))
    }

    /// Centroids plus per-bucket ids and raw vectors — the flat memory
    /// layout whose size Figure 11 shows matching PASE's paged layout.
    pub fn size_bytes(&self) -> usize {
        let rows = self.store.0.iter().map(|b| {
            std::mem::size_of_val(b.vectors.as_flat()) + std::mem::size_of_val(&b.ids[..])
        });
        std::mem::size_of_val(self.quantizer.centroids().as_flat()) + rows.sum::<usize>()
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

    /// The three stores return the same neighbors, bit for bit, through
    /// every entry point (serial, batch, batch-GEMM and both filtered
    /// strategies) under each metric (every store ranks the centroids by
    /// it) on random queries, `k` and `nprobe`, after random
    /// inserts that leave partly filled tail pages: the pages through the
    /// pool, the same index reading its resident copy (RC#2's fix), and
    /// the core over resident buckets alone, given the paged index's
    /// centroids. At full probe all equal brute force over every row,
    /// which also checks the copy that one walk of the pages read.
    #[test]
    fn memory_optimized_gives_identical_results() {
        vdb_vecmath::rng::cases("memory_optimized_gives_identical_results", 24, |rng| {
            let (bm, mut data) = setup();
            let paged = GeneralizedOptions {
                metric: rng.pick(&[Metric::L2, Metric::InnerProduct, Metric::Cosine]),
                ..GeneralizedOptions::default()
            };
            let cached = GeneralizedOptions {
                memory_optimized: true,
                ..paged
            };
            let (mut a, _) = PaseIvfFlatIndex::build(paged, small_params(), &bm, &data).unwrap();
            let (mut b, _) = PaseIvfFlatIndex::build(cached, small_params(), &bm, &data).unwrap();
            let (mut c, _) = IvfFlat::<Resident>::with_centroids(
                paged,
                small_params(),
                a.centroids().clone(),
                &data,
            );
            let near = |rng: &mut vdb_vecmath::rng::Rng, data: &VectorSet| -> Vec<f32> {
                let row = data.row(rng.range_usize(0..data.len()));
                row.iter().map(|x| x + rng.range_f32(-0.5..0.5)).collect()
            };
            for _ in 0..rng.range_usize(0..60) {
                let v = near(rng, &data);
                let id = data.len() as u64;
                a.insert(&bm, id, &v).unwrap();
                b.insert(&bm, id, &v).unwrap();
                assert_eq!(c.insert(&v), id);
                data.push(&v);
            }
            assert_eq!(a.bucket_sizes(), c.bucket_sizes());
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
                let serial = pair(&a);
                assert_eq!(serial, pair(&b), "unfiltered k={k} nprobe={nprobe}");
                assert_eq!(serial, bits(&c.search_with_nprobe(&q, k, nprobe)));
                for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                    let filtered = |idx: &PaseIvfFlatIndex, knob| {
                        bits(
                            &idx.scan_filtered(&bm, &q, k, &filter, strategy, knob)
                                .unwrap(),
                        )
                    };
                    let why = format!("{strategy:?} k={k} nprobe={nprobe}");
                    assert_eq!(
                        filtered(&a, Some(nprobe)),
                        filtered(&b, Some(nprobe)),
                        "{why}"
                    );
                    // The resident core filters at the build-time nprobe.
                    assert_eq!(
                        filtered(&a, None),
                        bits(&c.search_filtered(&q, k, &filter, strategy)),
                        "{why}"
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
                assert_eq!(bits(&c.search_with_nprobe(&q, k, 16)), bits(&oracle));
                queries.push(&q);
                ks.push(k);
            }
            let all = |found: Vec<Vec<Neighbor>>| -> Vec<Vec<(u64, u32)>> {
                found.iter().map(|r| bits(r)).collect()
            };
            let gemm = |idx: &PaseIvfFlatIndex| {
                all(idx.scan_batch(&bm, &queries, &ks, Some(nprobe)).unwrap())
            };
            let want = gemm(&a);
            assert_eq!(want, gemm(&b), "batch-GEMM nprobe={nprobe}");
            assert_eq!(want, all(c.search_batch_gemm(&queries, &ks, nprobe)));
            let k = ks[0];
            let batch = |idx: &PaseIvfFlatIndex| {
                all(idx
                    .search_batch_with_nprobe(&bm, &queries, k, nprobe)
                    .unwrap())
            };
            let want = batch(&a);
            assert_eq!(want, batch(&b), "batch k={k} nprobe={nprobe}");
            assert_eq!(want, all(c.search_batch(&queries, k, nprobe)));
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

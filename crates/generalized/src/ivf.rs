//! The IVF core, written once for both engines and every codec: one
//! [`Ivf`] over a bucket store and a codec.
//!
//! Paper §VI-A: "IVF_FLAT is stored in centroid pages and data pages
//! where the centroid pages store centroid vectors and data pages store
//! base vectors in the buckets of each centroid"; IVF_PQ keeps PQ codes
//! in those pages instead. [`Ivf`] holds, once each, training of the
//! coarse quantizer, assignment, insert, probe selection, the RC#3 probe
//! search and the filtered walk. Where the rows live is its store:
//!
//! * [`Paged`]: PASE's centroid pages and bucket-chained data pages, every
//!   read through the buffer manager (RC#2). Under `memory_optimized`
//!   every append also goes to a [`Resident`] copy, which reads then use
//!   instead (RC#2's fix).
//! * [`Resident`]: each bucket's ids and codes in plain arrays, scanned by
//!   one fused pass per bucket: the specialized engine's IVF indexes.
//!
//! What a row's code is, and how a query scores it, is its codec: the raw
//! vector ([`Flat`]), a PQ code ([`Pq`](crate::ivf_pq::Pq), scored through
//! the per-query RC#7 ADC table) or an SQ8 code
//! ([`Sq8`](crate::ivf_sq8::Sq8)). The ADC and SQ8 sums follow `distance`
//! as the vector kernels do: `Reference` is the dependent chain,
//! `Optimized` the unrolled four-accumulator sum.
//!
//! By default the adding phase assigns one vector at a time with scalar
//! distances — no SGEMM (RC#1) — which is why Figure 3 shows 35–85×
//! slower builds, and every search computes distances with the
//! reference kernel into a size-*n* heap (RC#6).

use crate::index_am::PaseIndex;
use crate::ivf_flat::Flat;
use crate::ivf_pages::{IvfPages, ScanScratch};
use crate::options::{GeneralizedOptions, ParallelMode};
use std::borrow::Cow;
use std::time::Instant;
use vdb_filter::{FilterStrategy, SelectionBitmap};
use vdb_gemm::GemmKernel;
use vdb_profile::{self as profile, Category};
use vdb_storage::{BufferManager, Result};
use vdb_vecmath::parallel::map_chunks;
use vdb_vecmath::sampling::sample_indices;
use vdb_vecmath::{
    simd, BuildTiming, IvfParams, KHeap, Kmeans, KmeansParams, Neighbor, TopKCollector, TopKSink,
    VectorSet,
};

pub(crate) use sealed::{Codes, Paging};

/// A row codec of the core: [`Flat`], [`Pq`](crate::ivf_pq::Pq) or
/// [`Sq8`](crate::ivf_sq8::Sq8). Other crates may name it in a bound,
/// to write one impl for every [`Ivf`], but cannot implement it.
pub trait Codec: sealed::Codec {}

impl<C: sealed::Codec> Codec for C {}

/// The codec traits' methods, public only so the core's public types may
/// name them: outside this crate they can be neither named nor
/// implemented.
pub(crate) mod sealed {
    use super::*;

    /// How an IVF index codes a row and how a query scores the codes:
    /// everything that differs between IVF_FLAT, IVF_PQ and IVF_SQ8.
    pub trait Codec: Sized + Send + Sync {
        /// Training input beyond the sample (PQ's `m` and `cpq`).
        type Params: Copy;
        /// One resident bucket's codes.
        type Codes: Codes;

        /// Train on the coarse quantizer's sample (empty when the
        /// centroids were transplanted).
        fn train(opts: &GeneralizedOptions, params: Self::Params, sample: &VectorSet) -> Self;

        /// Bytes per code.
        fn code_len(&self) -> usize;

        /// The code of `v`, as a data-page tuple stores it.
        fn encode<'v>(&self, v: &'v [f32]) -> Cow<'v, [u8]>;

        /// What scans read of `query`: itself, or its ADC table.
        fn prepare<'q>(&self, _: &GeneralizedOptions, query: &'q [f32]) -> Cow<'q, [f32]> {
            Cow::Borrowed(query)
        }

        /// The distance of one code to the prepared `query`, with the
        /// kernel `opts.distance` names.
        fn scorer<'a>(
            &'a self,
            opts: &GeneralizedOptions,
            query: &'a [f32],
        ) -> impl Fn(&[u8]) -> f32 + 'a;

        /// Offer one resident bucket's rows (`ids[i]` coded as the `i`-th
        /// code) to `sink` in one fused pass: every distance into
        /// `scratch` under one `DistanceCalc` scope, then one
        /// threshold-pruned [`simd::offer_scanned`].
        fn scan(
            &self,
            opts: &GeneralizedOptions,
            query: &[f32],
            codes: &Self::Codes,
            ids: &[u64],
            sink: &mut impl TopKSink,
            scratch: &mut Vec<f32>,
        ) {
            let distance = self.scorer(opts, query);
            {
                let _t = profile::scoped(Category::DistanceCalc);
                scratch.clear();
                scratch.extend(codes.rows(self.code_len()).map(distance));
            }
            simd::offer_scanned(sink, scratch, Some(ids));
        }

        /// Bytes a resident index holds beyond centroids, ids and codes.
        fn extra_bytes(&self) -> usize {
            0
        }
    }

    /// A codec that PASE keeps on pages (IVF_FLAT and IVF_PQ).
    pub trait Paging: Codec {
        /// The access method's name.
        const AM_NAME: &'static str;

        /// Rows of the codec's own relation, written after the centroid
        /// pages (PQ's codebooks, as PASE's meta pages hold them).
        fn meta(&self) -> Vec<&[u8]> {
            Vec::new()
        }

        /// A whole batch through `bm`, each query with its own `k`
        /// (`PaseIndex::scan_batch`): one query after another, unless the
        /// codec has a batched path (IVF_FLAT's GEMM).
        fn batch(
            index: &Ivf<Paged<Self>, Self>,
            bm: &BufferManager,
            queries: &VectorSet,
            ks: &[usize],
            nprobe: usize,
        ) -> Result<Vec<Vec<Neighbor>>> {
            index.serial(&index.rows(bm), queries, ks, nprobe)
        }
    }

    /// One resident bucket's codes, back to back.
    pub trait Codes: Send + Sync {
        /// No codes of `dim`-dimensional rows.
        fn empty(dim: usize) -> Self;
        /// Append one code.
        fn push(&mut self, code: &[u8]);
        /// Every code, in order, `len` bytes each.
        fn rows(&self, len: usize) -> impl Iterator<Item = &[u8]>;
    }
}

impl Codes for Vec<u8> {
    fn empty(_: usize) -> Vec<u8> {
        Vec::new()
    }

    fn push(&mut self, code: &[u8]) {
        self.extend_from_slice(code);
    }

    fn rows(&self, len: usize) -> impl Iterator<Item = &[u8]> {
        self.chunks_exact(len)
    }
}

/// An IVF index over the bucket store `S` ([`Paged`] or [`Resident`])
/// with the codec `C`.
pub struct Ivf<S, C> {
    pub(crate) opts: GeneralizedOptions,
    pub(crate) params: IvfParams,
    /// The trained centroids, in memory: assignment reads them (PASE
    /// also trains in memory before writing pages), and so does probe
    /// selection over resident rows.
    pub(crate) quantizer: Kmeans,
    pub(crate) codec: C,
    pub(crate) store: S,
    len: usize,
}

/// PASE's IVF pages, plus the resident copy RC#2's fix reads.
pub struct Paged<C: Codec = Flat> {
    pub(crate) pages: IvfPages,
    resident: Option<Resident<C>>,
}

/// Every bucket's rows in plain arrays, one bucket per centroid.
pub struct Resident<C: Codec = Flat>(pub(crate) Vec<Bucket<C>>);

/// One inverted list: parallel arrays of ids and codes.
pub(crate) struct Bucket<C: Codec> {
    pub(crate) ids: Vec<u64>,
    pub(crate) codes: C::Codes,
}

/// Where one read finds the buckets' rows.
pub(crate) enum Rows<'a, C: Codec> {
    /// In the pages, through the buffer manager.
    Pages(&'a IvfPages, &'a BufferManager),
    /// In memory.
    Resident(&'a Resident<C>),
}

/// A store's part of insert: put `(id, code)` into bucket `b`.
type Append<'a, S> = dyn FnMut(&mut S, usize, u64, &[u8]) -> Result<()> + 'a;

/// The value of a resident build, insert or read, which reads and
/// writes no page and so cannot fail.
pub(crate) fn resident<T>(result: Result<T>) -> T {
    // PANIC-OK: only page I/O returns errors, and resident rows have no pages.
    result.unwrap_or_else(|e| unreachable!("resident rows reported {e}"))
}

impl<C: Codec> Resident<C> {
    fn new(quantizer: &Kmeans) -> Resident<C> {
        let bucket = || Bucket {
            ids: Vec::new(),
            codes: C::Codes::empty(quantizer.dim()),
        };
        Resident((0..quantizer.k()).map(|_| bucket()).collect())
    }

    fn push(&mut self, b: usize, id: u64, code: &[u8]) -> Result<()> {
        let bucket = &mut self.0[b];
        bucket.ids.push(id);
        bucket.codes.push(code);
        Ok(())
    }
}

impl<C: Paging> Paged<C> {
    fn append(&mut self, bm: &BufferManager, b: usize, id: u64, code: &[u8]) -> Result<()> {
        self.pages.append(bm, b, id, code)?;
        match &mut self.resident {
            Some(resident) => resident.push(b, id, code),
            None => Ok(()),
        }
    }
}

impl<S, C> Ivf<S, C> {
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

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<S: Sync, C: Codec> Ivf<S, C> {
    /// Train on a sample of `data`, or take the given `centroids` (the
    /// paper's Faiss* transplant, Figure 15), train the codec on the same
    /// sample, then add every row of `data`, numbered by `ids` or by
    /// position, to the store `empty` makes for them. Returns the paper's
    /// train/add timing split.
    #[allow(clippy::too_many_arguments)]
    fn build_in(
        opts: GeneralizedOptions,
        params: IvfParams,
        codec: C::Params,
        centroids: Option<VectorSet>,
        ids: Option<&[u64]>,
        data: &VectorSet,
        empty: impl FnOnce(&Kmeans, &C) -> Result<S>,
        append: &mut Append<'_, S>,
    ) -> Result<(Self, BuildTiming)> {
        let t0 = Instant::now();
        let (quantizer, sample) = match centroids {
            Some(centroids) => (
                Kmeans::from_centroids(opts.kmeans, centroids),
                VectorSet::empty(data.dim()),
            ),
            None => {
                assert!(!data.is_empty(), "cannot build IVF over no vectors");
                let sample =
                    sample_indices(data.len(), params.sample_ratio, params.clusters, opts.seed);
                let sample = data.gather(&sample);
                let kmeans = KmeansParams {
                    k: params.clusters,
                    iters: opts.kmeans_iters,
                    seed: opts.seed,
                    gemm: opts.assignment_gemm.unwrap_or(GemmKernel::Naive),
                };
                (Kmeans::train(opts.kmeans, &sample, &kmeans), sample)
            }
        };
        let codec = C::train(&opts, codec, &sample);
        let train = t0.elapsed();
        let t1 = Instant::now();
        let mut index = Ivf {
            store: empty(&quantizer, &codec)?,
            opts,
            params,
            quantizer,
            codec,
            len: data.len(),
        };
        if let Some(ids) = ids {
            assert_eq!(ids.len(), data.len(), "ids/data length mismatch");
        }
        let _t = profile::scoped(Category::IvfAdd);
        for (i, (b, code)) in index.assign(data).into_iter().enumerate() {
            let id = ids.map_or(i as u64, |ids| ids[i]);
            append(&mut index.store, b as usize, id, &code)?;
        }
        let add = t1.elapsed();
        Ok((index, BuildTiming { train, add }))
    }

    /// The adding phase's assignment and encoding: each row's nearest
    /// centroid and its code, in row order. Without `assignment_gemm`
    /// (the PASE default) each row meets every centroid in the scalar
    /// loop — the `fvec_L2sqr_ref` bottleneck of §V-A; with it, rows go
    /// through a GEMM distance table (RC#1). RC#3's `parallel` also
    /// decides the build: PASE's `GlobalLockedHeap` builds serially,
    /// Faiss's `LocalHeapMerge` shards the rows, assignment and encoding
    /// both, over `threads`.
    fn assign<'d>(&self, data: &'d VectorSet) -> Vec<(u32, Cow<'d, [u8]>)> {
        let threads = match self.opts.parallel {
            ParallelMode::GlobalLockedHeap => 1,
            ParallelMode::LocalHeapMerge => self.opts.threads.max(1),
        };
        let d = data.dim();
        let shards = map_chunks(data.len(), threads, |rows| {
            let assigned: Vec<u32> = match self.opts.assignment_gemm {
                // A borrowed range of the flat matrix: no per-shard copy.
                Some(gemm) => {
                    let flat = &data.as_flat()[rows.start * d..rows.end * d];
                    self.quantizer.assign_batch_flat(gemm, d, flat)
                }
                None => rows
                    .clone()
                    .map(|i| self.quantizer.nearest(self.opts.distance, data.row(i)).0 as u32)
                    .collect(),
            };
            let codes = rows.map(|i| self.codec.encode(data.row(i)));
            assigned.into_iter().zip(codes).collect::<Vec<_>>()
        });
        shards.into_iter().flatten().collect()
    }

    /// Put `(id, v)` in the bucket of its nearest centroid (the scalar
    /// kernel: one row has no batch to amortize a GEMM over).
    fn insert_in(&mut self, id: u64, v: &[f32], append: &mut Append<'_, S>) -> Result<()> {
        assert_eq!(v.len(), self.quantizer.dim(), "dimension mismatch");
        let _t = profile::scoped(Category::IvfAdd);
        let (b, _) = self.quantizer.nearest(self.opts.distance, v);
        append(&mut self.store, b, id, &self.codec.encode(v))?;
        self.len += 1;
        Ok(())
    }

    /// The `nprobe` buckets nearest `query` under the metric, best first:
    /// from the centroid pages, or from the in-memory quantizer over
    /// resident rows (RC#2's fix), in the order the pages give.
    pub(crate) fn probes(
        &self,
        rows: &Rows<'_, C>,
        query: &[f32],
        nprobe: usize,
    ) -> Result<Vec<usize>> {
        let Rows::Pages(pages, bm) = rows else {
            let (metric, kernel) = (self.opts.metric, self.opts.distance);
            let nearest = self.quantizer.nearest_n_by(metric, kernel, query, nprobe);
            return Ok(nearest.into_iter().map(|(b, _)| b).collect());
        };
        pages.select_probes(bm, &self.opts, query, nprobe)
    }

    /// Offer bucket `b`'s rows to `sink` at their distance to `query`,
    /// only those whose id `filter` holds if one is given: one
    /// [`IvfPages::scan`] through the pool, or the codec's fused scan of
    /// resident rows, straight into the sink.
    pub(crate) fn scan_bucket(
        &self,
        rows: &Rows<'_, C>,
        query: &[f32],
        b: usize,
        filter: Option<&SelectionBitmap>,
        scratch: &mut ScanScratch,
        sink: &mut impl TopKSink,
    ) -> Result<()> {
        let distance = self.codec.scorer(&self.opts, query);
        let bucket = match rows {
            Rows::Pages(pages, bm) => {
                return pages.scan(bm, b, filter, scratch, distance, &mut |id, d| {
                    sink.push(id, d)
                });
            }
            Rows::Resident(resident) => &resident.0[b],
        };
        let Some(filter) = filter else {
            let (codes, ids, distances) = (&bucket.codes, &bucket.ids, &mut scratch.distances);
            self.codec
                .scan(&self.opts, query, codes, ids, sink, distances);
            return Ok(());
        };
        let codes = bucket.codes.rows(self.codec.code_len());
        let rows = bucket.ids.iter().copied().zip(codes);
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
        rows: &Rows<'_, C>,
        queries: impl Iterator<Item = &'q [f32]>,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let batch = queries
            .map(|q| {
                Ok((
                    self.codec.prepare(&self.opts, q),
                    self.probes(rows, q, nprobe)?,
                ))
            })
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
    pub(crate) fn search_one(
        &self,
        rows: &Rows<'_, C>,
        q: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        assert_eq!(q.len(), self.quantizer.dim(), "dimension mismatch");
        let found = self.search_probed(rows, std::iter::once(q), k, nprobe)?;
        Ok(found.into_iter().next().unwrap_or_default())
    }

    /// Each query of a batch at its own `k`, one after another.
    pub(crate) fn serial(
        &self,
        rows: &Rows<'_, C>,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let serial = queries.iter().zip(ks);
        serial
            .map(|(q, &k)| self.search_one(rows, q, k, nprobe))
            .collect()
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
        rows: &Rows<'_, C>,
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
        let (query, mut scratch) = (
            self.codec.prepare(&self.opts, query),
            ScanScratch::default(),
        );
        for b in buckets {
            self.scan_bucket(rows, &query, b, Some(filter), &mut scratch, &mut collector)?;
        }
        Ok(collector.into_sorted())
    }
}

impl<C: Paging> Ivf<Paged<C>, C> {
    /// Train, write the centroid pages (and the codec's own), then add
    /// every row. Under `memory_optimized` every append also goes to the
    /// resident copy.
    pub(crate) fn build_paged(
        opts: GeneralizedOptions,
        params: IvfParams,
        codec: C::Params,
        bm: &BufferManager,
        ids: Option<&[u64]>,
        data: &VectorSet,
    ) -> Result<(Self, BuildTiming)> {
        let empty = |quantizer: &Kmeans, codec: &C| {
            Ok(Paged {
                pages: IvfPages::create(bm, quantizer.centroids(), codec.meta())?,
                resident: opts.memory_optimized.then(|| Resident::new(quantizer)),
            })
        };
        let append = &mut |store: &mut Paged<C>, b, id, code: &[u8]| store.append(bm, b, id, code);
        Self::build_in(opts, params, codec, None, ids, data, empty, append)
    }

    /// Where a read through `bm` finds the rows: the resident copy once
    /// there is one, else the pages.
    pub(crate) fn rows<'a>(&'a self, bm: &'a BufferManager) -> Rows<'a, C> {
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
        self.search_one(&self.rows(bm), query, k, nprobe)
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
        self.search_probed(&self.rows(bm), queries.iter(), k, nprobe)
    }
}

impl<C: Paging> PaseIndex for Ivf<Paged<C>, C> {
    fn am_name(&self) -> &'static str {
        C::AM_NAME
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
        let nprobe = knob.unwrap_or(self.params.nprobe);
        C::batch(self, bm, queries, ks, nprobe)
    }

    fn insert(&mut self, bm: &BufferManager, id: u64, vector: &[f32]) -> Result<()> {
        self.insert_in(id, vector, &mut |store, b, id, code| {
            store.append(bm, b, id, code)
        })
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Whole centroid, data and codec pages.
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
        self.filtered(&self.rows(bm), query, k, filter, strategy, nprobe)
    }
}

/// The specialized engine's IVF API: the core over [`Resident`] buckets,
/// with ids numbered by insertion order.
impl<C: Codec> Ivf<Resident<C>, C> {
    /// Train (or take `centroids`), then add every row of `data`.
    pub(crate) fn build_resident(
        opts: GeneralizedOptions,
        params: IvfParams,
        codec: C::Params,
        centroids: Option<VectorSet>,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        let empty = |quantizer: &Kmeans, _: &C| Ok(Resident::new(quantizer));
        let append = &mut |store: &mut Resident<C>, b, id, code: &[u8]| store.push(b, id, code);
        resident(Self::build_in(
            opts, params, codec, centroids, None, data, empty, append,
        ))
    }

    /// The rows, for the core's reads.
    pub(crate) fn rows(&self) -> Rows<'_, C> {
        Rows::Resident(&self.store)
    }

    /// Insert one vector; its id is its insertion order, matching the
    /// build's numbering, so batch-built and streamed indexes agree.
    pub fn insert(&mut self, v: &[f32]) -> u64 {
        let id = self.len as u64;
        resident(self.insert_in(id, v, &mut |store, b, id, code| store.push(b, id, code)));
        id
    }

    /// Per-bucket occupancy (for inspecting clustering balance).
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.store.0.iter().map(|b| b.ids.len()).collect()
    }

    /// Search with an explicit `nprobe`, overriding the configured one.
    pub fn search_with_nprobe(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        resident(self.search_one(&self.rows(), query, k, nprobe))
    }

    /// Batch search: one round per query over a persistent worker team.
    /// This is the intra-query parallelism of the paper's Figure 18 —
    /// per-thread local heaps over a probe partition, merged lock-free —
    /// without paying a thread spawn per query.
    pub fn search_batch(&self, queries: &VectorSet, k: usize, nprobe: usize) -> Vec<Vec<Neighbor>> {
        resident(self.search_probed(&self.rows(), queries.iter(), k, nprobe))
    }

    /// Filtered top `k` at the build-time `nprobe`.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
    ) -> Vec<Neighbor> {
        let nprobe = self.params.nprobe;
        resident(self.filtered(&self.rows(), query, k, filter, strategy, nprobe))
    }

    /// Centroids, the codec's own tables, and per-bucket ids and codes —
    /// the flat memory layout whose sizes Figures 11–13 set beside
    /// PASE's pages.
    pub fn size_bytes(&self) -> usize {
        let row = self.codec.code_len() + std::mem::size_of::<u64>();
        let centroids = std::mem::size_of_val(self.quantizer.centroids().as_flat());
        centroids + self.codec.extra_bytes() + self.len * row
    }
}

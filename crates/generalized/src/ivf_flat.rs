//! IVF_FLAT: the IVF core ([`crate::ivf`]) with the raw vector as each
//! row's code. [`PaseIvfFlatIndex`] is the core over PASE's pages; the
//! specialized engine's `IvfFlatIndex` is the core over resident buckets
//! with every root-cause fix on. IVF_FLAT alone also serves admission
//! batches through a GEMM distance table, each probed bucket read once.

use crate::ivf::{resident, sealed, Bucket, Codes, Ivf, Paging, Rows};
use crate::options::GeneralizedOptions;
use std::borrow::Cow;
use std::sync::OnceLock;
use vdb_gemm::GemmKernel;
use vdb_profile::{self as profile, Category};
use vdb_serve::{scan_block, scan_block_cached, BatchScratch, QueryBlock, RowBlock};
use vdb_storage::heap::{as_bytes_f32, bytemuck_f32};
use vdb_storage::{BufferManager, Result};
use vdb_vecmath::{simd, BuildTiming, IvfParams, KHeap, Metric, Neighbor, TopKSink, VectorSet};

pub use crate::ivf::{Paged, Resident};

/// The raw vector as its own code, of the given dimension.
pub struct Flat(usize);

/// IVF_FLAT over the bucket store `S` ([`Paged`] or [`Resident`]).
pub type IvfFlat<S> = Ivf<S, Flat>;

/// The generalized engine's IVF_FLAT: the core over PASE's pages.
pub type PaseIvfFlatIndex = IvfFlat<Paged>;

/// One resident bucket's vectors, plus the packed GEMM panels and row
/// norms batched serving reads, built on first batched access and
/// dropped whenever the list changes. The block never affects results:
/// it is a repack of the same vectors, and the batched scan re-ranks
/// every survivor with the exact kernel.
pub struct FlatRows {
    vectors: VectorSet,
    block: OnceLock<RowBlock>,
}

impl Codes for FlatRows {
    fn empty(dim: usize) -> FlatRows {
        FlatRows {
            vectors: VectorSet::empty(dim),
            block: OnceLock::new(),
        }
    }

    fn push(&mut self, code: &[u8]) {
        self.vectors.push(bytemuck_f32(code));
        // The packed block describes the rows before this one.
        self.block.take();
    }

    fn rows(&self, len: usize) -> impl Iterator<Item = &[u8]> {
        as_bytes_f32(self.vectors.as_flat()).chunks_exact(len)
    }
}

impl sealed::Codec for Flat {
    type Params = ();
    type Codes = FlatRows;

    fn train(_: &GeneralizedOptions, _: (), sample: &VectorSet) -> Flat {
        Flat(sample.dim())
    }

    fn code_len(&self) -> usize {
        std::mem::size_of::<f32>() * self.0
    }

    fn encode<'v>(&self, v: &'v [f32]) -> Cow<'v, [u8]> {
        Cow::Borrowed(as_bytes_f32(v))
    }

    fn scorer<'a>(
        &'a self,
        opts: &GeneralizedOptions,
        query: &'a [f32],
    ) -> impl Fn(&[u8]) -> f32 + 'a {
        let (metric, kernel) = (opts.metric, opts.distance);
        move |code| metric.distance_with(kernel, query, bytemuck_f32(code))
    }

    /// One fused [`simd::scan_into`].
    fn scan(
        &self,
        opts: &GeneralizedOptions,
        query: &[f32],
        rows: &FlatRows,
        ids: &[u64],
        sink: &mut impl TopKSink,
        scratch: &mut Vec<f32>,
    ) {
        let (metric, kernel, vectors) = (opts.metric, opts.distance, &rows.vectors);
        simd::scan_into(metric, kernel, query, vectors, Some(ids), sink, scratch);
    }
}

impl Paging for Flat {
    const AM_NAME: &'static str = "ivfflat";

    fn batch(
        index: &PaseIvfFlatIndex,
        bm: &BufferManager,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        index.search_batch_gemm(bm, queries, ks, nprobe)
    }
}

impl<S: Sync> IvfFlat<S> {
    /// Batched serving (`vdb-serve`, RC#1 on the read path): a whole
    /// admission batch with per-query `k`, each query probing its
    /// `nprobe` nearest buckets, but each probed bucket read *once* for
    /// all of its active queries, through one `Q×B` GEMM distance table
    /// and an exact re-rank.
    ///
    /// Bit-for-bit identical to one search per query: probe selection is
    /// the same call, the re-rank uses the same per-pair kernel, and the
    /// table only excludes pairs that cannot enter a heap (see
    /// `vdb_serve::batch`). Non-L2 metrics fall back to the serial path —
    /// the distance table is squared L2.
    fn batch_gemm(
        &self,
        rows: &Rows<'_, Flat>,
        queries: &VectorSet,
        ks: &[usize],
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if !matches!(self.opts.metric, Metric::L2) || queries.len() != ks.len() {
            return self.serial(rows, queries, ks, nprobe);
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
                    let Bucket { ids, codes } = &resident.0[b];
                    let flat = codes.vectors.as_flat();
                    // Packed once, reused by every batch until the bucket changes.
                    let d = codes.vectors.dim();
                    let block = codes.block.get_or_init(|| RowBlock::build(flat, d));
                    scan_block_cached(
                        &qb,
                        &active[b],
                        block,
                        flat,
                        ids,
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
        Self::build_paged(opts, params, (), bm, ids, data)
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
        self.batch_gemm(&self.rows(bm), queries, ks, nprobe)
    }
}

/// The specialized engine's IVF_FLAT API.
impl IvfFlat<Resident> {
    /// Train on a sample of `data`, then add every row.
    pub fn build(
        opts: impl Into<GeneralizedOptions>,
        params: IvfParams,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        Self::build_resident(opts.into(), params, (), None, data)
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
        Self::build_resident(opts.into(), params, (), Some(centroids), data)
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
        resident(self.batch_gemm(&self.rows(), queries, ks, nprobe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_am::PaseIndex;
    use crate::ivf::resident;
    use crate::ivf_pq::{PaseIvfPqIndex, Pq};
    use std::sync::Arc;
    use vdb_datagen::gaussian::generate;
    use vdb_filter::{FilterStrategy, SelectionBitmap};
    use vdb_storage::{DiskManager, PageSize};
    use vdb_vecmath::rng::Rng;
    use vdb_vecmath::{DistanceKernel, PqParams};

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

    /// The three stores return the same neighbors, bit for bit, for
    /// either codec (the raw vector or a PQ code) through every entry
    /// point (serial, batch, the batch serve path and both filtered
    /// strategies) under each metric (every store ranks the centroids
    /// by it) and distance kernel, on random queries, `k` and `nprobe`,
    /// after random inserts that leave partly filled tail pages: the
    /// pages through the pool, the same index reading its resident copy
    /// (RC#2's fix), and the core over resident buckets alone, given the
    /// paged index's centroids (IVF_FLAT) or trained alike (IVF_PQ). At
    /// full probe all equal brute force over every row, scored by an
    /// oracle outside the codec (the metric over the raw vector, or the
    /// ADC of the row's PQ code), which also checks the copy the appends
    /// filled.
    #[test]
    fn memory_optimized_gives_identical_results() {
        vdb_vecmath::rng::cases("memory_optimized_gives_identical_results", 48, |rng| {
            let opts = GeneralizedOptions {
                metric: rng.pick(&[Metric::L2, Metric::InnerProduct, Metric::Cosine]),
                distance: rng.pick(&[DistanceKernel::Reference, DistanceKernel::Optimized]),
                ..GeneralizedOptions::default()
            };
            let params = small_params();
            if rng.bool() {
                identical_results(
                    rng,
                    opts,
                    |opts, bm, data| PaseIvfFlatIndex::build(opts, params, bm, data),
                    |a, data| {
                        let centroids = a.centroids().clone();
                        IvfFlat::<Resident>::with_centroids(opts, params, centroids, data).0
                    },
                    |c, queries, ks, nprobe| c.search_batch_gemm(queries, ks, nprobe),
                    |_, queries, data| {
                        let (metric, kernel) = (opts.metric, opts.distance);
                        let row = |q| {
                            data.iter()
                                .map(|v| metric.distance_with(kernel, q, v))
                                .collect()
                        };
                        queries.iter().map(row).collect()
                    },
                );
            } else {
                let pq = PqParams { m: 8, cpq: 16 };
                identical_results(
                    rng,
                    opts,
                    |opts, bm, data| PaseIvfPqIndex::build(opts, params, pq, bm, data),
                    |_, data| {
                        let mode = opts.pq_table;
                        Ivf::<Resident<Pq>, Pq>::build_with_table_mode(opts, params, pq, mode, data)
                            .0
                    },
                    |c, queries, ks, nprobe| resident(c.serial(&c.rows(), queries, ks, nprobe)),
                    |a, queries, data| {
                        let pq = a.pq();
                        let codes: Vec<Vec<u8>> = data.iter().map(|v| pq.encode(v)).collect();
                        let row = |q| {
                            let table = pq.adc_table(opts.pq_table, q);
                            let adc = |code: &Vec<u8>| match opts.distance {
                                DistanceKernel::Reference => pq.adc_distance(&table, code),
                                DistanceKernel::Optimized => pq.adc_distance_unrolled(&table, code),
                            };
                            codes.iter().map(adc).collect()
                        };
                        queries.iter().map(row).collect()
                    },
                );
            }
        });
    }

    /// One case of [`memory_optimized_gives_identical_results`] for the
    /// codec `C`: `build` makes a paged index, `resident` the resident
    /// one beside it, `batch` serves a batch from the resident one, and
    /// `oracle` gives each query's distance to every row under the paged
    /// index's codec.
    fn identical_results<C: Paging>(
        rng: &mut Rng,
        paged: GeneralizedOptions,
        build: impl Fn(
            GeneralizedOptions,
            &BufferManager,
            &VectorSet,
        ) -> Result<(Ivf<Paged<C>, C>, BuildTiming)>,
        resident: impl Fn(&Ivf<Paged<C>, C>, &VectorSet) -> Ivf<Resident<C>, C>,
        batch: impl Fn(&Ivf<Resident<C>, C>, &VectorSet, &[usize], usize) -> Vec<Vec<Neighbor>>,
        oracle: impl Fn(&Ivf<Paged<C>, C>, &VectorSet, &VectorSet) -> Vec<Vec<f32>>,
    ) {
        let (bm, mut data) = setup();
        let cached = GeneralizedOptions {
            memory_optimized: true,
            ..paged
        };
        let (mut a, _) = build(paged, &bm, &data).unwrap();
        let (mut b, _) = build(cached, &bm, &data).unwrap();
        let mut c = resident(&a, &data);
        let near = |rng: &mut Rng, data: &VectorSet| -> Vec<f32> {
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
            let pair =
                |idx: &Ivf<Paged<C>, C>| bits(&idx.search_with_nprobe(&bm, &q, k, nprobe).unwrap());
            let serial = pair(&a);
            assert_eq!(serial, pair(&b), "unfiltered k={k} nprobe={nprobe}");
            assert_eq!(serial, bits(&c.search_with_nprobe(&q, k, nprobe)));
            for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                let filtered = |idx: &Ivf<Paged<C>, C>, knob| {
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
            queries.push(&q);
            ks.push(k);
        }
        // Full probe: brute force over every row, base and inserted.
        for ((q, &k), distances) in queries.iter().zip(&ks).zip(oracle(&a, &queries, &data)) {
            let distances = distances.into_iter().enumerate();
            let mut oracle: Vec<Neighbor> = distances
                .map(|(id, d)| Neighbor::new(id as u64, d))
                .collect();
            oracle.sort_unstable();
            oracle.truncate(k);
            for idx in [&a, &b] {
                assert_eq!(
                    bits(&idx.search_with_nprobe(&bm, q, k, 16).unwrap()),
                    bits(&oracle)
                );
            }
            assert_eq!(bits(&c.search_with_nprobe(q, k, 16)), bits(&oracle));
        }
        let all = |found: Vec<Vec<Neighbor>>| -> Vec<Vec<(u64, u32)>> {
            found.iter().map(|r| bits(r)).collect()
        };
        let served =
            |idx: &Ivf<Paged<C>, C>| all(idx.scan_batch(&bm, &queries, &ks, Some(nprobe)).unwrap());
        let want = served(&a);
        assert_eq!(want, served(&b), "batch serve nprobe={nprobe}");
        assert_eq!(want, all(batch(&c, &queries, &ks, nprobe)));
        let k = ks[0];
        let probed = |idx: &Ivf<Paged<C>, C>| {
            all(idx
                .search_batch_with_nprobe(&bm, &queries, k, nprobe)
                .unwrap())
        };
        let want = probed(&a);
        assert_eq!(want, probed(&b), "batch k={k} nprobe={nprobe}");
        assert_eq!(want, all(c.search_batch(&queries, k, nprobe)));
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

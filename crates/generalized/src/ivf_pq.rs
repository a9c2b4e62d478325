//! IVF_PQ: the IVF core ([`crate::ivf`]) with `m`-byte PQ codes, for
//! both engines.
//!
//! The same pages as IVF_FLAT, but data-page tuples hold PQ codes
//! instead of raw vectors, the codebooks get a relation of their own, and
//! each query first materializes an ADC precomputed table. PASE computes
//! that table the straightforward way — full subtract-square distances
//! per entry, every query — which is the paper's **RC#7** (§VII-B); the
//! optimized Faiss construction is one options flip away
//! (`pq_table`). The specialized engine's `IvfPqIndex` is the core over
//! resident buckets.

use crate::ivf::{sealed, Ivf, Paged, Paging, Resident};
use crate::options::GeneralizedOptions;
use std::borrow::Cow;
use vdb_gemm::GemmKernel;
use vdb_storage::heap::as_bytes_f32;
use vdb_storage::{BufferManager, Result};
use vdb_vecmath::{
    BuildTiming, DistanceKernel, IvfParams, KmeansParams, PqParams, PqTableMode, ProductQuantizer,
    VectorSet,
};

/// The PQ code of each row, scored through the query's ADC table.
pub struct Pq(ProductQuantizer);

/// The generalized IVF_PQ index: the core over PASE's pages.
pub type PaseIvfPqIndex = Ivf<Paged<Pq>, Pq>;

impl sealed::Codec for Pq {
    type Params = PqParams;
    type Codes = Vec<u8>;

    /// Codebooks from the coarse quantizer's sample, with fewer
    /// iterations and a seed of their own.
    fn train(opts: &GeneralizedOptions, params: PqParams, sample: &VectorSet) -> Pq {
        let kmeans = KmeansParams {
            k: params.cpq,
            iters: opts.kmeans_iters.min(8),
            seed: opts.seed ^ 0x9E3779B9,
            gemm: opts.assignment_gemm.unwrap_or(GemmKernel::Naive),
        };
        Pq(ProductQuantizer::train(
            sample,
            params.m,
            params.cpq,
            opts.kmeans,
            &kmeans,
        ))
    }

    fn code_len(&self) -> usize {
        self.0.code_len()
    }

    fn encode<'v>(&self, v: &'v [f32]) -> Cow<'v, [u8]> {
        Cow::Owned(self.0.encode(v))
    }

    /// RC#7: the table construction comes from the options.
    fn prepare<'q>(&self, opts: &GeneralizedOptions, query: &'q [f32]) -> Cow<'q, [f32]> {
        Cow::Owned(self.0.adc_table(opts.pq_table, query))
    }

    fn scorer<'a>(
        &'a self,
        opts: &GeneralizedOptions,
        table: &'a [f32],
    ) -> impl Fn(&[u8]) -> f32 + 'a {
        let (pq, kernel) = (&self.0, opts.distance);
        move |code| match kernel {
            DistanceKernel::Reference => pq.adc_distance(table, code),
            DistanceKernel::Optimized => pq.adc_distance_unrolled(table, code),
        }
    }

    fn extra_bytes(&self) -> usize {
        self.0.codebook_bytes()
    }
}

impl Paging for Pq {
    const AM_NAME: &'static str = "ivfpq";

    /// One tuple per codeword.
    fn meta(&self) -> Vec<&[u8]> {
        let (pq, cpq) = (&self.0, self.0.cpq());
        let codewords = (0..pq.m()).flat_map(|sub| (0..cpq).map(move |j| pq.codeword(sub, j)));
        codewords.map(as_bytes_f32).collect()
    }
}

impl<S> Ivf<S, Pq> {
    /// The product quantizer.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.codec.0
    }

    /// The PQ parameters the index was built with.
    pub fn pq_params(&self) -> PqParams {
        let pq = self.pq();
        PqParams {
            m: pq.m(),
            cpq: pq.cpq(),
        }
    }
}

impl Ivf<Paged<Pq>, Pq> {
    /// Train coarse centroids and PQ codebooks on a sample, write their
    /// pages, then encode and add every vector.
    pub fn build(
        opts: GeneralizedOptions,
        params: IvfParams,
        pq_params: PqParams,
        bm: &BufferManager,
        data: &VectorSet,
    ) -> Result<(PaseIvfPqIndex, BuildTiming)> {
        Self::build_with_ids(opts, params, pq_params, bm, None, data)
    }

    /// [`build`](Self::build) with explicit application ids (SQL layer).
    pub fn build_with_ids(
        opts: GeneralizedOptions,
        params: IvfParams,
        pq_params: PqParams,
        bm: &BufferManager,
        ids: Option<&[u64]>,
        data: &VectorSet,
    ) -> Result<(PaseIvfPqIndex, BuildTiming)> {
        Self::build_paged(opts, params, pq_params, bm, ids, data)
    }
}

/// The specialized engine's IVF_PQ API.
impl Ivf<Resident<Pq>, Pq> {
    /// Train coarse quantizer and PQ codebooks on a sample, then encode
    /// and add all of `data`; queries build the optimized ADC table.
    pub fn build(
        opts: impl Into<GeneralizedOptions>,
        params: IvfParams,
        pq_params: PqParams,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        Self::build_with_table_mode(opts, params, pq_params, PqTableMode::Optimized, data)
    }

    /// Build selecting the ADC table implementation (RC#7 switch).
    pub fn build_with_table_mode(
        opts: impl Into<GeneralizedOptions>,
        params: IvfParams,
        pq_params: PqParams,
        pq_table: PqTableMode,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        let opts = GeneralizedOptions {
            pq_table,
            ..opts.into()
        };
        Self::build_resident(opts, params, pq_params, None, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_am::PaseIndex;
    use std::sync::Arc;
    use vdb_datagen::gaussian::generate;
    use vdb_storage::{DiskManager, PageSize};
    use vdb_vecmath::Neighbor;

    fn setup() -> (BufferManager, VectorSet) {
        let disk = Arc::new(DiskManager::new(PageSize::Size8K));
        let bm = BufferManager::new(disk, 4096);
        let data = generate(16, 1000, 16, 33);
        (bm, data)
    }

    fn params() -> (IvfParams, PqParams) {
        (
            IvfParams {
                clusters: 16,
                sample_ratio: 0.5,
                nprobe: 4,
            },
            PqParams { m: 8, cpq: 64 },
        )
    }

    #[test]
    fn build_distributes_all_vectors() {
        let (bm, data) = setup();
        let (ivf, pqp) = params();
        let (idx, timing) =
            PaseIvfPqIndex::build(GeneralizedOptions::default(), ivf, pqp, &bm, &data).unwrap();
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.bucket_sizes().iter().sum::<usize>(), 1000);
        assert!(timing.train > std::time::Duration::ZERO);
    }

    #[test]
    fn table_modes_rank_identically() {
        let (bm, data) = setup();
        let (ivf, pqp) = params();
        let slow = GeneralizedOptions::default();
        let fast = GeneralizedOptions {
            pq_table: PqTableMode::Optimized,
            ..slow
        };
        let (a, _) = PaseIvfPqIndex::build(slow, ivf, pqp, &bm, &data).unwrap();
        let (b, _) = PaseIvfPqIndex::build(fast, ivf, pqp, &bm, &data).unwrap();
        for qi in [2usize, 77, 900] {
            let q = data.row(qi);
            let ia: Vec<u64> = a
                .search_with_nprobe(&bm, q, 5, 4)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let ib: Vec<u64> = b
                .search_with_nprobe(&bm, q, 5, 4)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(ia, ib, "query {qi}");
        }
    }

    /// `(id, distance bits)` of a result list, for bit-for-bit checks.
    fn bits(found: &[Neighbor]) -> Vec<(u64, u32)> {
        found.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    /// The paged ADC walk and the RC#2 code cache return the same
    /// neighbors, bit for bit, serially and batched, on random queries,
    /// `k` and `nprobe`, after random inserts that leave partly filled
    /// tail pages. At full probe both equal the ADC distance of every
    /// row's code, which also checks the copy the appends filled.
    #[test]
    fn memory_optimized_matches_paged_path() {
        vdb_vecmath::rng::cases("memory_optimized_matches_paged_path", 8, |rng| {
            let (bm, mut data) = setup();
            let (ivf, pqp) = params();
            let paged = GeneralizedOptions::default();
            let cached = GeneralizedOptions {
                memory_optimized: true,
                ..paged
            };
            let (mut a, _) = PaseIvfPqIndex::build(paged, ivf, pqp, &bm, &data).unwrap();
            let (mut b, _) = PaseIvfPqIndex::build(cached, ivf, pqp, &bm, &data).unwrap();
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
            let codes: Vec<Vec<u8>> = data.iter().map(|v| a.pq().encode(v)).collect();
            let mut queries = VectorSet::empty(data.dim());
            let k = rng.range_usize(1..40);
            let nprobe = rng.range_usize(1..17);
            for _ in 0..3 {
                let q = near(rng, &data);
                let serial = |idx: &PaseIvfPqIndex| {
                    bits(&idx.search_with_nprobe(&bm, &q, k, nprobe).unwrap())
                };
                assert_eq!(serial(&a), serial(&b), "k={k} nprobe={nprobe}");
                // Full probe: every row's code scored against the query's table.
                let table = a.pq().adc_table(paged.pq_table, &q);
                let mut oracle: Vec<Neighbor> = codes
                    .iter()
                    .enumerate()
                    .map(|(id, code)| Neighbor::new(id as u64, a.pq().adc_distance(&table, code)))
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
            }
            let batch = |idx: &PaseIvfPqIndex| -> Vec<Vec<(u64, u32)>> {
                let found = idx
                    .search_batch_with_nprobe(&bm, &queries, k, nprobe)
                    .unwrap();
                found.iter().map(|r| bits(r)).collect()
            };
            assert_eq!(batch(&a), batch(&b), "batch k={k} nprobe={nprobe}");
            let ks = vec![k; queries.len()];
            let found = a.scan_batch(&bm, &queries, &ks, Some(nprobe)).unwrap();
            assert_eq!(
                found.iter().map(|r| bits(r)).collect::<Vec<_>>(),
                batch(&b),
                "scan_batch"
            );
        });
    }

    #[test]
    fn code_tuples_compress_the_data_relation() {
        // Use enough vectors per bucket that page granularity stops
        // masking the compression (Figure 12 vs Figure 11).
        let disk = Arc::new(DiskManager::new(PageSize::Size8K));
        let bm = BufferManager::new(disk, 4096);
        let data = generate(64, 5000, 16, 4);
        let ivf = IvfParams {
            clusters: 16,
            sample_ratio: 0.2,
            nprobe: 4,
        };
        let pqp = PqParams { m: 8, cpq: 64 };
        let opts = GeneralizedOptions::default();
        let (pq_idx, _) = PaseIvfPqIndex::build(opts, ivf, pqp, &bm, &data).unwrap();
        let (flat_idx, _) =
            crate::ivf_flat::PaseIvfFlatIndex::build(opts, ivf, &bm, &data).unwrap();
        let pq_bytes = pq_idx.store.pages.data_bytes(&bm);
        let flat_bytes = flat_idx.size_bytes(&bm);
        assert!(
            pq_bytes * 3 < flat_bytes,
            "PQ data relation {pq_bytes} not much smaller than flat {flat_bytes}"
        );
    }

    #[test]
    fn insert_after_build_found_with_full_probe() {
        let (bm, data) = setup();
        let (ivf, pqp) = params();
        let (mut idx, _) =
            PaseIvfPqIndex::build(GeneralizedOptions::default(), ivf, pqp, &bm, &data).unwrap();
        let novel = vec![9.0f32; 16];
        idx.insert(&bm, 777_777, &novel).unwrap();
        let res = idx.search_with_nprobe(&bm, &novel, 1, 16).unwrap();
        assert_eq!(res[0].id, 777_777);
    }
}

//! PASE's IVF_PQ: the paged IVF structure with PQ-coded tuples.
//!
//! The same pages as IVF_FLAT (`ivf_pages`), but data-page
//! tuples hold `m`-byte PQ codes instead of raw vectors, and each query
//! first materializes an ADC precomputed table. PASE computes that table
//! the straightforward way — full subtract-square distances per entry,
//! every query — which is the paper's **RC#7** (§VII-B); the optimized
//! Faiss construction is one options flip away.

use crate::index_am::PaseIndex;
use crate::ivf_pages::{write_pages, IvfPages, ScanScratch};
use crate::options::GeneralizedOptions;
use std::time::Instant;
use vdb_profile::{self as profile, Category};
use vdb_storage::heap::as_bytes_f32;
use vdb_storage::{BufferManager, RelId, Result};
use vdb_vecmath::sampling::sample_indices;
use vdb_vecmath::{
    BuildTiming, IvfParams, Kmeans, KmeansParams, Neighbor, PqParams, ProductQuantizer, TopKSink,
    VectorSet,
};

/// RC#2 fix: direct-array mirror of one bucket's codes.
struct BucketCache {
    ids: Vec<u64>,
    codes: Vec<u8>,
}

/// The generalized IVF_PQ index.
pub struct PaseIvfPqIndex {
    opts: GeneralizedOptions,
    params: IvfParams,
    pq_params: PqParams,
    dim: usize,
    quantizer: Kmeans,
    pq: ProductQuantizer,
    pages: IvfPages,
    codebook_rel: RelId,
    len: usize,
    cache: Option<Vec<BucketCache>>,
}

impl PaseIvfPqIndex {
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
        assert!(!data.is_empty(), "cannot build IVF_PQ over no vectors");
        if let Some(ids) = ids {
            assert_eq!(ids.len(), data.len(), "ids/data length mismatch");
        }
        let t0 = Instant::now();
        let sample_idx =
            sample_indices(data.len(), params.sample_ratio, params.clusters, opts.seed);
        let sample = data.gather(&sample_idx);
        let gemm = opts.assignment_gemm.unwrap_or(vdb_gemm::GemmKernel::Naive);
        let quantizer = Kmeans::train(
            opts.kmeans,
            &sample,
            &KmeansParams {
                k: params.clusters,
                iters: opts.kmeans_iters,
                seed: opts.seed,
                gemm,
            },
        );
        let pq = ProductQuantizer::train(
            &sample,
            pq_params.m,
            pq_params.cpq,
            opts.kmeans,
            &KmeansParams {
                k: pq_params.cpq,
                iters: opts.kmeans_iters.min(8),
                seed: opts.seed ^ 0x9E3779B9,
                gemm,
            },
        );
        let train = t0.elapsed();

        let t1 = Instant::now();
        let pages = IvfPages::create(bm, quantizer.centroids())?;
        // The PQ codebooks, one tuple per codeword, so index size
        // accounting covers them, as PASE's meta pages do.
        let codebook_rel = bm.disk().create_relation();
        let codewords = (0..pq.m()).flat_map(|sub| (0..pq.cpq()).map(move |j| (sub, j)));
        write_pages(
            bm,
            codebook_rel,
            codewords.map(|(sub, j)| as_bytes_f32(pq.codeword(sub, j))),
        )?;
        let mut index = PaseIvfPqIndex {
            opts,
            params,
            pq_params,
            dim: quantizer.dim(),
            quantizer,
            pq,
            pages,
            codebook_rel,
            len: 0,
            cache: None,
        };
        index.add_all(bm, data, ids)?;
        if index.opts.memory_optimized {
            index.populate_cache(bm)?;
        }
        let add = t1.elapsed();
        Ok((index, BuildTiming { train, add }))
    }

    fn add_all(&mut self, bm: &BufferManager, data: &VectorSet, ids: Option<&[u64]>) -> Result<()> {
        let _t = profile::scoped(Category::IvfAdd);
        let id_of = |base: u64, i: usize| ids.map_or(base + i as u64, |v| v[i]);
        let base = self.len as u64;
        match self.opts.assignment_gemm {
            Some(kernel) => {
                let assignments = self.quantizer.assign_batch(kernel, data);
                for (i, &a) in assignments.iter().enumerate() {
                    let code = self.pq.encode(data.row(i));
                    self.pages.append(bm, a as usize, id_of(base, i), &code)?;
                }
            }
            None => {
                for i in 0..data.len() {
                    let v = data.row(i);
                    let (a, _) = self.quantizer.nearest(self.opts.distance, v);
                    let code = self.pq.encode(v);
                    self.pages.append(bm, a, id_of(base, i), &code)?;
                }
            }
        }
        self.len += data.len();
        Ok(())
    }

    fn populate_cache(&mut self, bm: &BufferManager) -> Result<()> {
        let mut cache = Vec::with_capacity(self.pages.buckets());
        for b in 0..self.pages.buckets() {
            let mut ids = Vec::new();
            let mut codes = Vec::new();
            self.pages.visit(bm, b, |id, code| {
                ids.push(id);
                codes.extend_from_slice(code);
            })?;
            cache.push(BucketCache { ids, codes });
        }
        self.cache = Some(cache);
        Ok(())
    }

    /// The product quantizer.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// The PQ parameters the index was built with.
    pub fn pq_params(&self) -> PqParams {
        self.pq_params
    }

    /// Per-bucket tuple counts.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.pages.bucket_sizes()
    }

    fn select_probes(
        &self,
        bm: &BufferManager,
        query: &[f32],
        nprobe: usize,
    ) -> Result<Vec<usize>> {
        self.pages
            .select_probes(bm, &self.opts, &self.quantizer, query, nprobe)
    }

    /// Search with an explicit `nprobe`.
    pub fn search_with_nprobe(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let probes = self.select_probes(bm, query, nprobe)?;
        // RC#7: table construction strategy comes from the options.
        let table = self.pq.adc_table(self.opts.pq_table, query);
        let mut out = Vec::new();
        self.opts.probe_search(
            &[(table, probes)],
            k,
            |table, b, scratch, sink| {
                self.scan_bucket_into(bm, b, table, scratch, &mut |id, d| sink.push(id, d))
            },
            |r| out = r,
        )?;
        Ok(out)
    }

    /// Batch search with intra-query parallelism over a persistent
    /// worker pool (see the IVF_FLAT equivalent).
    pub fn search_batch_with_nprobe(
        &self,
        bm: &BufferManager,
        queries: &VectorSet,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let batch: Vec<(Vec<f32>, Vec<usize>)> = queries
            .iter()
            .map(|q| {
                let probes = self.select_probes(bm, q, nprobe)?;
                Ok((self.pq.adc_table(self.opts.pq_table, q), probes))
            })
            .collect::<Result<_>>()?;
        let mut out = Vec::with_capacity(batch.len());
        self.opts.probe_search(
            &batch,
            k,
            |table, b, scratch, sink| {
                self.scan_bucket_into(bm, b, table, scratch, &mut |id, d| sink.push(id, d))
            },
            |r| out.push(r),
        )?;
        Ok(out)
    }

    /// Scan one bucket with ADC lookups, feeding `(id, distance)` pairs
    /// to `push`: [`IvfPages::scan`], or the cached codes under the
    /// RC#2 fix.
    fn scan_bucket_into(
        &self,
        bm: &BufferManager,
        b: usize,
        table: &[f32],
        scratch: &mut ScanScratch,
        push: &mut dyn FnMut(u64, f32),
    ) -> Result<()> {
        let kernel = |code: &[u8]| self.pq.adc_distance(table, code);
        let Some(cache) = &self.cache else {
            return self.pages.scan(bm, b, None, scratch, kernel, push);
        };
        let bucket = &cache[b];
        let codes = bucket.codes.chunks_exact(self.pq.code_len());
        scratch.score(bucket.ids.iter().copied().zip(codes), kernel);
        scratch.flush(push);
        Ok(())
    }
}

impl PaseIndex for PaseIvfPqIndex {
    fn am_name(&self) -> &'static str {
        "ivfpq"
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

    fn insert(&mut self, bm: &BufferManager, id: u64, vector: &[f32]) -> Result<()> {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        let (b, _) = self.quantizer.nearest(self.opts.distance, vector);
        let code = self.pq.encode(vector);
        self.pages.append(bm, b, id, &code)?;
        self.len += 1;
        if let Some(cache) = &mut self.cache {
            cache[b].ids.push(id);
            cache[b].codes.extend_from_slice(&code);
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn size_bytes(&self, bm: &BufferManager) -> usize {
        self.pages.size_bytes(bm) + bm.disk().relation_bytes(self.codebook_rel)
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdb_datagen::gaussian::generate;
    use vdb_storage::{DiskManager, PageSize};
    use vdb_vecmath::PqTableMode;

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
    /// row's code, which also checks the cache `populate_cache` read.
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
        let pq_bytes = pq_idx.pages.data_bytes(&bm);
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

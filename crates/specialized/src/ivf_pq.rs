//! IVF_PQ (Faiss's `IndexIVFPQ`).
//!
//! Same coarse structure as IVF_FLAT, but bucket entries store `m`-byte
//! PQ codes instead of raw vectors. Queries build a per-query ADC
//! precomputed table — with the optimized norms-plus-inner-product
//! construction by default (RC#7) — and accumulate code distances by
//! table lookup.

use crate::options::{BuildTiming, IvfParams, PqParams, SpecializedOptions};
use crate::VectorIndex;
use std::time::Instant;
use vdb_profile::{self as profile, Category};
use vdb_vecmath::parallel::map_chunks;
use vdb_vecmath::sampling::sample_indices;
use vdb_vecmath::{
    simd, Kmeans, KmeansParams, Neighbor, PqTableMode, ProductQuantizer, TopKSink, VectorSet,
};

/// One inverted list of `(id, code)` entries; codes are concatenated.
struct CodeBucket {
    ids: Vec<u64>,
    codes: Vec<u8>,
}

/// The IVF_PQ index.
pub struct IvfPqIndex {
    opts: SpecializedOptions,
    params: IvfParams,
    pq_params: PqParams,
    table_mode: PqTableMode,
    quantizer: Kmeans,
    pq: ProductQuantizer,
    buckets: Vec<CodeBucket>,
    len: usize,
}

impl IvfPqIndex {
    /// Train coarse quantizer and PQ codebooks on a sample, then encode
    /// and add all of `data`.
    pub fn build(
        opts: SpecializedOptions,
        params: IvfParams,
        pq_params: PqParams,
        data: &VectorSet,
    ) -> (IvfPqIndex, BuildTiming) {
        Self::build_with_table_mode(opts, params, pq_params, PqTableMode::Optimized, data)
    }

    /// Build selecting the ADC table implementation (RC#7 switch).
    pub fn build_with_table_mode(
        opts: SpecializedOptions,
        params: IvfParams,
        pq_params: PqParams,
        table_mode: PqTableMode,
        data: &VectorSet,
    ) -> (IvfPqIndex, BuildTiming) {
        assert!(!data.is_empty(), "cannot build IVF_PQ over no vectors");
        let t0 = Instant::now();
        let idx = sample_indices(data.len(), params.sample_ratio, params.clusters, opts.seed);
        let sample = data.gather(&idx);
        let quantizer = Kmeans::train(
            opts.kmeans,
            &sample,
            &KmeansParams {
                k: params.clusters,
                iters: opts.kmeans_iters,
                seed: opts.seed,
                gemm: opts.gemm,
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
                gemm: opts.gemm,
            },
        );
        let train = t0.elapsed();

        let t1 = Instant::now();
        let buckets = (0..quantizer.k())
            .map(|_| CodeBucket {
                ids: Vec::new(),
                codes: Vec::new(),
            })
            .collect();
        let mut index = IvfPqIndex {
            opts,
            params,
            pq_params,
            table_mode,
            quantizer,
            pq,
            buckets,
            len: 0,
        };
        index.add_all(data);
        let add = t1.elapsed();

        (index, BuildTiming { train, add })
    }

    /// Adding phase: batched coarse assignment (RC#1, optionally
    /// parallel) plus per-vector PQ encoding.
    fn add_all(&mut self, data: &VectorSet) {
        let _t = profile::scoped(Category::IvfAdd);
        let d = data.dim();
        let threads = self.opts.threads.max(1);
        let assignments: Vec<u32> = if threads == 1 {
            self.quantizer.assign_batch(self.opts.gemm, data)
        } else {
            map_chunks(data.len(), threads, |r| {
                // Borrowed range of the flat matrix — no per-chunk copy.
                self.quantizer.assign_batch_flat(
                    self.opts.gemm,
                    d,
                    &data.as_flat()[r.start * d..r.end * d],
                )
            })
            .concat()
        };
        // Encoding is embarrassingly parallel too.
        let codes: Vec<Vec<u8>> = map_chunks(data.len(), threads, |r| {
            let mut chunk_codes = Vec::with_capacity((r.end - r.start) * self.pq.code_len());
            for i in r {
                chunk_codes.extend(self.pq.encode(data.row(i)));
            }
            chunk_codes
        });
        let codes: Vec<u8> = codes.concat();

        let clen = self.pq.code_len();
        for (i, &a) in assignments.iter().enumerate() {
            let bucket = &mut self.buckets[a as usize];
            bucket.ids.push(self.len as u64 + i as u64);
            bucket
                .codes
                .extend_from_slice(&codes[i * clen..(i + 1) * clen]);
        }
        self.len += data.len();
    }

    /// Insert one vector; its id is its insertion order, matching
    /// [`IvfPqIndex::add_all`]'s numbering. Coarse assignment uses the
    /// scalar nearest-centroid kernel; the code is produced by the same
    /// trained product quantizer as the batch path, so a streamed index
    /// stores byte-identical codes.
    pub fn insert(&mut self, v: &[f32]) -> u64 {
        let _t = profile::scoped(Category::IvfAdd);
        let id = self.len as u64;
        let (a, _) = self.quantizer.nearest(self.opts.distance, v);
        let code = self.pq.encode(v);
        let bucket = &mut self.buckets[a];
        bucket.ids.push(id);
        bucket.codes.extend(code);
        self.len += 1;
        id
    }

    /// The product quantizer (e.g. for inspecting codebooks).
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// The coarse quantizer.
    pub fn quantizer(&self) -> &Kmeans {
        &self.quantizer
    }

    /// The PQ parameters the index was built with.
    pub fn pq_params(&self) -> PqParams {
        self.pq_params
    }

    /// Search with an explicit `nprobe`.
    pub fn search_with_nprobe(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.quantizer.dim(), "dimension mismatch");
        let probes = self.opts.probes(&self.quantizer, query, nprobe);
        // RC#7: the per-query precomputed table.
        let table = self.pq.adc_table(self.table_mode, query);
        let mut out = Vec::new();
        self.opts.probe_search(
            &[(table, probes)],
            k,
            |table, b, sink, scratch| self.scan_bucket_into(table, b, sink, scratch),
            |r| out = r,
        );
        out
    }

    /// Batch search over the persistent worker pool (Figure 18's
    /// intra-query parallelism). ADC tables are built once per query on
    /// the caller; workers scan probe partitions into local heaps.
    pub fn search_batch(&self, queries: &VectorSet, k: usize, nprobe: usize) -> Vec<Vec<Neighbor>> {
        let batch: Vec<(Vec<f32>, Vec<usize>)> = queries
            .iter()
            .map(|q| {
                let probes = self.opts.probes(&self.quantizer, q, nprobe);
                (self.pq.adc_table(self.table_mode, q), probes)
            })
            .collect();
        let mut out = Vec::with_capacity(batch.len());
        self.opts.probe_search(
            &batch,
            k,
            |table, b, sink, scratch| self.scan_bucket_into(table, b, sink, scratch),
            |r| out.push(r),
        );
        out
    }

    /// Per-bucket occupancy.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.ids.len()).collect()
    }

    /// Fused bucket scan: batched LUT distances over the packed codes
    /// (one `DistanceCalc` scope), then threshold-pruned pushes (one
    /// `MinHeap` scope) — the PQ analogue of
    /// [`vdb_vecmath::simd::scan_into`].
    fn scan_bucket_into<S: TopKSink>(
        &self,
        table: &[f32],
        b: usize,
        sink: &mut S,
        scratch: &mut Vec<f32>,
    ) {
        let bucket = &self.buckets[b];
        let n = bucket.ids.len();
        {
            let _t = profile::scoped(Category::DistanceCalc);
            scratch.clear();
            scratch.resize(n, 0.0);
            self.pq.adc_distance_batch(table, &bucket.codes, scratch);
        }
        simd::offer_scanned(sink, scratch, Some(&bucket.ids));
    }
}

impl VectorIndex for IvfPqIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_nprobe(query, k, self.params.nprobe)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Centroids + codebooks + per-bucket codes and ids. Codes are `m`
    /// bytes per vector — the compression that makes Figure 12's sizes
    /// an order of magnitude below Figure 11's.
    fn size_bytes(&self) -> usize {
        let centroid = std::mem::size_of_val(self.quantizer.centroids().as_flat());
        let codebooks = self.pq.codebook_bytes();
        let data: usize = self
            .buckets
            .iter()
            .map(|b| b.codes.len() + b.ids.len() * std::mem::size_of::<u64>())
            .sum();
        centroid + codebooks + data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use vdb_datagen::gaussian::generate;

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

    fn dataset() -> VectorSet {
        generate(16, 1000, 16, 33)
    }

    #[test]
    fn build_distributes_all_vectors() {
        let data = dataset();
        let (ivf, pqp) = params();
        let (idx, timing) = IvfPqIndex::build(SpecializedOptions::default(), ivf, pqp, &data);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.bucket_sizes().iter().sum::<usize>(), 1000);
        assert!(timing.train > std::time::Duration::ZERO);
    }

    #[test]
    fn recall_reasonable_for_quantized_search() {
        let data = dataset();
        let (ivf, pqp) = params();
        let opts = SpecializedOptions::default();
        let (idx, _) = IvfPqIndex::build(opts, ivf, pqp, &data);
        let flat = FlatIndex::new(opts, data.clone());
        let mut hits = 0;
        for qi in 0..20 {
            let q = data.row(qi * 11);
            let truth: Vec<u64> = flat.search(q, 10).iter().map(|n| n.id).collect();
            let got = idx.search_with_nprobe(q, 10, 16);
            hits += got.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits as f64 / 200.0;
        // PQ is lossy; with full probing recall should still be solid.
        assert!(recall > 0.4, "recall {recall} too low");
    }

    #[test]
    fn streamed_inserts_match_batch_adds_under_full_probe() {
        let data = dataset();
        let extra = generate(16, 120, 16, 99);
        let (ivf, pqp) = params();
        let opts = SpecializedOptions::default();
        // Deterministic training: two builds over the same data produce
        // identical quantizers and codebooks.
        let (mut batch, _) = IvfPqIndex::build(opts, ivf, pqp, &data);
        let (mut streamed, _) = IvfPqIndex::build(opts, ivf, pqp, &data);
        batch.add_all(&extra);
        for (i, v) in extra.iter().enumerate() {
            assert_eq!(streamed.insert(v), (data.len() + i) as u64);
        }
        assert_eq!(streamed.len(), batch.len());
        // ADC distances depend only on the stored code, not the bucket,
        // so under full probe both paths return identical top-k even if
        // a coarse-assignment tie broke differently.
        let k_full = batch.quantizer().k();
        for qi in [0usize, 41, 997] {
            let q = data.row(qi);
            assert_eq!(
                streamed.search_with_nprobe(q, 10, k_full),
                batch.search_with_nprobe(q, 10, k_full),
                "query {qi}"
            );
        }
    }

    #[test]
    fn table_modes_agree_on_results() {
        let data = dataset();
        let (ivf, pqp) = params();
        let opts = SpecializedOptions::default();
        let (a, _) =
            IvfPqIndex::build_with_table_mode(opts, ivf, pqp, PqTableMode::Optimized, &data);
        let (b, _) =
            IvfPqIndex::build_with_table_mode(opts, ivf, pqp, PqTableMode::Straightforward, &data);
        for qi in [1usize, 50, 500] {
            let q = data.row(qi);
            let ra = a.search(q, 5);
            let rb = b.search(q, 5);
            let ids_a: Vec<u64> = ra.iter().map(|n| n.id).collect();
            let ids_b: Vec<u64> = rb.iter().map(|n| n.id).collect();
            assert_eq!(ids_a, ids_b, "query {qi}");
        }
    }

    #[test]
    fn pq_index_is_much_smaller_than_flat() {
        let data = dataset();
        let (ivf, pqp) = params();
        let (idx, _) = IvfPqIndex::build(SpecializedOptions::default(), ivf, pqp, &data);
        let raw_bytes = data.len() * data.dim() * 4;
        // Codes are 4 bytes/vector vs 64 raw, plus ids and codebooks.
        assert!(
            idx.size_bytes() < raw_bytes / 2,
            "{} vs {}",
            idx.size_bytes(),
            raw_bytes
        );
    }
}

//! IVF_SQ8 (Faiss's `IndexIVFScalarQuantizer` with `QT_8bit`).
//!
//! The fourth quantization-based index of the paper's survey (§II-B):
//! IVF coarse structure with 8-bit scalar-quantized residuals per
//! bucket entry. 4× smaller than IVF_FLAT with far better recall than
//! IVF_PQ at the same byte budget — the middle ground the survey
//! describes. Not part of the paper's evaluation; included as the
//! repository's extension index, specialized engine only.

use crate::options::{BuildTiming, IvfParams, SpecializedOptions};
use crate::VectorIndex;
use std::time::Instant;
use vdb_profile::{self as profile, Category};
use vdb_vecmath::parallel::map_chunks;
use vdb_vecmath::sampling::sample_indices;
use vdb_vecmath::sq::ScalarQuantizer;
use vdb_vecmath::{simd, Kmeans, KmeansParams, Neighbor, TopKSink, VectorSet};

/// One inverted list of `(id, sq8-code)` entries.
struct Sq8Bucket {
    ids: Vec<u64>,
    codes: Vec<u8>,
}

/// The IVF_SQ8 index.
pub struct IvfSq8Index {
    opts: SpecializedOptions,
    params: IvfParams,
    quantizer: Kmeans,
    sq: ScalarQuantizer,
    buckets: Vec<Sq8Bucket>,
    dim: usize,
    len: usize,
}

impl IvfSq8Index {
    /// Train coarse centroids and per-dimension ranges on a sample,
    /// then encode and add all of `data`.
    pub fn build(
        opts: SpecializedOptions,
        params: IvfParams,
        data: &VectorSet,
    ) -> (IvfSq8Index, BuildTiming) {
        assert!(!data.is_empty(), "cannot build IVF_SQ8 over no vectors");
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
        let sq = ScalarQuantizer::train(&sample);
        let train = t0.elapsed();

        let t1 = Instant::now();
        let buckets = (0..quantizer.k())
            .map(|_| Sq8Bucket {
                ids: Vec::new(),
                codes: Vec::new(),
            })
            .collect();
        let mut index = IvfSq8Index {
            opts,
            params,
            quantizer,
            sq,
            buckets,
            dim: data.dim(),
            len: 0,
        };
        index.add_all(data);
        let add = t1.elapsed();
        (index, BuildTiming { train, add })
    }

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
        for (i, &a) in assignments.iter().enumerate() {
            let bucket = &mut self.buckets[a as usize];
            bucket.ids.push(self.len as u64 + i as u64);
            bucket.codes.extend(self.sq.encode(data.row(i)));
        }
        self.len += data.len();
    }

    /// The scalar quantizer.
    pub fn sq(&self) -> &ScalarQuantizer {
        &self.sq
    }

    /// Search with an explicit `nprobe`.
    pub fn search_with_nprobe(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let probes = self.opts.probes(&self.quantizer, query, nprobe);
        let mut out = Vec::new();
        self.opts.probe_search(
            &[(query, probes)],
            k,
            |q, b, sink, scratch| self.scan_bucket_into(q, b, sink, scratch),
            |r| out = r,
        );
        out
    }

    /// Parallel batch search over the persistent pool.
    pub fn search_batch(&self, queries: &VectorSet, k: usize, nprobe: usize) -> Vec<Vec<Neighbor>> {
        let batch: Vec<(&[f32], Vec<usize>)> = queries
            .iter()
            .map(|q| (q, self.opts.probes(&self.quantizer, q, nprobe)))
            .collect();
        let mut out = Vec::with_capacity(batch.len());
        self.opts.probe_search(
            &batch,
            k,
            |q, b, sink, scratch| self.scan_bucket_into(q, b, sink, scratch),
            |r| out.push(r),
        );
        out
    }

    /// Per-bucket occupancy.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.ids.len()).collect()
    }

    /// Fused bucket scan: batched fused decode-and-diff distances over
    /// the packed codes (one `DistanceCalc` scope), then threshold-pruned
    /// pushes (one `MinHeap` scope). Serial and parallel search share
    /// this path so their results stay bit-identical.
    fn scan_bucket_into<S: TopKSink>(
        &self,
        query: &[f32],
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
            self.sq.asym_l2_sqr_batch(query, &bucket.codes, scratch);
        }
        simd::offer_scanned(sink, scratch, Some(&bucket.ids));
    }
}

impl VectorIndex for IvfSq8Index {
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_nprobe(query, k, self.params.nprobe)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Centroids + per-dimension ranges + 1 byte/dim codes + ids.
    fn size_bytes(&self) -> usize {
        let centroid = std::mem::size_of_val(self.quantizer.centroids().as_flat());
        let ranges = self.dim * 2 * std::mem::size_of::<f32>();
        let data: usize = self
            .buckets
            .iter()
            .map(|b| b.codes.len() + b.ids.len() * std::mem::size_of::<u64>())
            .sum();
        centroid + ranges + data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::ivf_pq::IvfPqIndex;
    use crate::options::PqParams;
    use vdb_datagen::gaussian::generate;

    fn params() -> IvfParams {
        IvfParams {
            clusters: 16,
            sample_ratio: 0.5,
            nprobe: 16,
        }
    }

    fn dataset() -> VectorSet {
        generate(16, 1000, 16, 61)
    }

    #[test]
    fn build_distributes_all_vectors() {
        let data = dataset();
        let (idx, timing) = IvfSq8Index::build(SpecializedOptions::default(), params(), &data);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.bucket_sizes().iter().sum::<usize>(), 1000);
        assert!(timing.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn recall_close_to_exact_at_full_probe() {
        // SQ8's quantization grid is fine enough that full-probe top-10
        // should almost match exact search.
        let data = dataset();
        let opts = SpecializedOptions::default();
        let (idx, _) = IvfSq8Index::build(opts, params(), &data);
        let flat = FlatIndex::new(opts, data.clone());
        let mut hits = 0;
        for qi in 0..20 {
            let q = data.row(qi * 31);
            let truth: Vec<u64> = flat.search(q, 10).iter().map(|n| n.id).collect();
            let got = idx.search(q, 10);
            hits += got.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits as f64 / 200.0;
        assert!(recall > 0.85, "SQ8 recall {recall} too low");
    }

    #[test]
    fn beats_pq_recall_at_same_probe() {
        let data = dataset();
        let opts = SpecializedOptions::default();
        let (sq8, _) = IvfSq8Index::build(opts, params(), &data);
        let (pq, _) = IvfPqIndex::build(opts, params(), PqParams { m: 8, cpq: 64 }, &data);
        let flat = FlatIndex::new(opts, data.clone());
        let mut sq_hits = 0;
        let mut pq_hits = 0;
        for qi in 0..20 {
            let q = data.row(qi * 17);
            let truth: Vec<u64> = flat.search(q, 10).iter().map(|n| n.id).collect();
            sq_hits += sq8
                .search(q, 10)
                .iter()
                .filter(|n| truth.contains(&n.id))
                .count();
            pq_hits += pq
                .search(q, 10)
                .iter()
                .filter(|n| truth.contains(&n.id))
                .count();
        }
        assert!(
            sq_hits >= pq_hits,
            "SQ8 ({sq_hits}) should not trail PQ ({pq_hits}) in recall"
        );
    }

    #[test]
    fn four_times_smaller_than_raw() {
        let data = dataset();
        let (idx, _) = IvfSq8Index::build(SpecializedOptions::default(), params(), &data);
        let raw = data.len() * data.dim() * 4;
        // Codes are d bytes/vector vs 4d raw; ids add 8/vector.
        assert!(idx.size_bytes() < raw / 2, "{} vs {raw}", idx.size_bytes());
    }

    #[test]
    fn parallel_batch_matches_serial() {
        let data = dataset();
        let serial = SpecializedOptions::default();
        let parallel = SpecializedOptions {
            threads: 4,
            ..serial
        };
        let (a, _) = IvfSq8Index::build(serial, params(), &data);
        let (b, _) = IvfSq8Index::build(parallel, params(), &data);
        let queries = generate(16, 8, 16, 62);
        let ra: Vec<_> = queries
            .iter()
            .map(|q| a.search_with_nprobe(q, 5, 8))
            .collect();
        let rb = b.search_batch(&queries, 5, 8);
        assert_eq!(ra, rb);
    }
}

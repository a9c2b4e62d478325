//! IVF_SQ8 (Faiss's `IndexIVFScalarQuantizer` with `QT_8bit`): the one
//! IVF core, [`vdb_generalized::ivf::Ivf`], over resident buckets of
//! 8-bit scalar-quantized codes.
//!
//! The fourth quantization-based index of the paper's survey (§II-B):
//! 4× smaller than IVF_FLAT with far better recall than IVF_PQ at the
//! same byte budget — the middle ground the survey describes. Not part
//! of the paper's evaluation; included as the repository's extension
//! index, specialized engine only.

use vdb_generalized::ivf::{Ivf, Resident};
use vdb_generalized::ivf_sq8::Sq8;

/// The IVF_SQ8 index: centroids + per-dimension ranges + 1 byte/dim
/// codes + ids.
pub type IvfSq8Index = Ivf<Resident<Sq8>, Sq8>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::ivf_pq::IvfPqIndex;
    use crate::options::{IvfParams, PqParams, SpecializedOptions};
    use crate::VectorIndex;
    use vdb_datagen::gaussian::generate;
    use vdb_vecmath::VectorSet;

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

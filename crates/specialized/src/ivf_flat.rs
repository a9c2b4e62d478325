//! IVF_FLAT (Faiss's `IndexIVFFlat`): the one IVF core,
//! [`vdb_generalized::ivf::Ivf`], over resident buckets of raw vectors
//! with every root-cause fix on (see [`crate::SpecializedOptions`]'s
//! conversion).
//!
//! Training clusters a sample into `c` centroids; adding assigns every
//! vector to its nearest centroid via batched GEMM distance tables
//! (RC#1), sharded over `threads`; search probes the `nprobe` nearest
//! buckets and scans their raw vectors into a size-k heap (RC#6),
//! optionally one bucket-partition per thread with local heaps merged at
//! the end (RC#3).

use vdb_generalized::ivf_flat::{IvfFlat, Resident};

/// The IVF_FLAT index.
pub type IvfFlatIndex = IvfFlat<Resident>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::options::{IvfParams, SpecializedOptions};
    use crate::VectorIndex;
    use vdb_datagen::gaussian::generate;
    use vdb_vecmath::VectorSet;

    fn small_params() -> IvfParams {
        IvfParams {
            clusters: 16,
            sample_ratio: 0.5,
            nprobe: 4,
        }
    }

    fn dataset() -> VectorSet {
        generate(16, 1200, 16, 77)
    }

    #[test]
    fn all_vectors_land_in_buckets() {
        let data = dataset();
        let (idx, timing) =
            IvfFlatIndex::build(SpecializedOptions::default(), small_params(), &data);
        assert_eq!(idx.len(), data.len());
        assert_eq!(idx.bucket_sizes().iter().sum::<usize>(), data.len());
        assert!(timing.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn streamed_inserts_match_batch_build_under_full_probe() {
        let data = dataset();
        let opts = SpecializedOptions::default();
        let (batch, _) = IvfFlatIndex::build(opts, small_params(), &data);
        let centroids = batch.quantizer().centroids().clone();
        let empty = VectorSet::empty(data.dim());
        let (mut streamed, _) =
            IvfFlatIndex::with_centroids(opts, small_params(), centroids, &empty);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(streamed.insert(v), i as u64);
        }
        assert_eq!(streamed.len(), batch.len());
        // Ids are insertion order in both paths; under full probe both
        // are exhaustive, so the top-k must agree exactly.
        let k_full = batch.quantizer().k();
        for qi in [0usize, 17, 512] {
            let q = data.row(qi);
            assert_eq!(
                streamed.search_with_nprobe(q, 10, k_full),
                batch.search_with_nprobe(q, 10, k_full),
                "query {qi}"
            );
        }
    }

    #[test]
    fn default_probe_has_decent_recall() {
        let data = dataset();
        let opts = SpecializedOptions::default();
        let (idx, _) = IvfFlatIndex::build(opts, small_params(), &data);
        let flat = FlatIndex::new(opts, data.clone());
        let mut hits = 0;
        let total = 20 * 10;
        for qi in 0..20 {
            let q = data.row(qi * 7);
            let truth: Vec<u64> = flat.search(q, 10).iter().map(|n| n.id).collect();
            let got = idx.search(q, 10);
            hits += got.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.6, "recall {recall} too low for nprobe=4/16");
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let data = dataset();
        let serial = SpecializedOptions::default();
        let parallel = SpecializedOptions {
            threads: 4,
            ..serial
        };
        let (a, _) = IvfFlatIndex::build(serial, small_params(), &data);
        let (b, _) = IvfFlatIndex::build(parallel, small_params(), &data);
        assert_eq!(a.bucket_sizes(), b.bucket_sizes());
    }

    #[test]
    fn naive_gemm_gives_same_results() {
        let data = dataset();
        let blas = SpecializedOptions::default();
        let naive = SpecializedOptions {
            gemm: vdb_gemm::GemmKernel::Naive,
            ..blas
        };
        let (a, _) = IvfFlatIndex::build(blas, small_params(), &data);
        let (b, _) = IvfFlatIndex::build(naive, small_params(), &data);
        // Same flavor + seed → same centroids; assignment argmin must
        // agree regardless of kernel.
        assert_eq!(a.bucket_sizes(), b.bucket_sizes());
    }

    #[test]
    fn size_accounts_vectors_and_ids() {
        let data = dataset();
        let (idx, _) = IvfFlatIndex::build(SpecializedOptions::default(), small_params(), &data);
        let expected_min = data.len() * 16 * 4; // raw vectors alone
        assert!(idx.size_bytes() >= expected_min);
    }
}

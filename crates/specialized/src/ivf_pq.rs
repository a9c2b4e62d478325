//! IVF_PQ (Faiss's `IndexIVFPQ`): the one IVF core,
//! [`vdb_generalized::ivf::Ivf`], over resident buckets of `m`-byte PQ
//! codes with every root-cause fix on.
//!
//! Queries build a per-query ADC precomputed table — with the optimized
//! norms-plus-inner-product construction by default (RC#7) — and sum
//! code distances by table lookup, with the unrolled batch kernel under
//! the default `distance`.

use vdb_generalized::ivf::{Ivf, Resident};
use vdb_generalized::ivf_pq::Pq;

/// The IVF_PQ index. Its size is centroids + codebooks + per-bucket
/// codes and ids: `m` bytes per vector, the compression that makes
/// Figure 12's sizes an order of magnitude below Figure 11's.
pub type IvfPqIndex = Ivf<Resident<Pq>, Pq>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::options::{IvfParams, PqParams, SpecializedOptions};
    use crate::VectorIndex;
    use vdb_datagen::gaussian::generate;
    use vdb_vecmath::{Neighbor, PqTableMode, VectorSet};

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
        let (mut streamed, _) = IvfPqIndex::build(opts, ivf, pqp, &data);
        for (i, v) in extra.iter().enumerate() {
            assert_eq!(streamed.insert(v), (data.len() + i) as u64);
        }
        assert_eq!(streamed.len(), data.len() + extra.len());
        // ADC distances depend only on the stored code, not the bucket,
        // so under full probe the batch-added and the streamed rows rank
        // exactly as their codes do, even if a coarse-assignment tie
        // broke differently.
        let pq = streamed.pq();
        let codes: Vec<u8> = data
            .iter()
            .chain(extra.iter())
            .flat_map(|v| pq.encode(v))
            .collect();
        let k_full = streamed.quantizer().k();
        for qi in [0usize, 41, 997] {
            let q = data.row(qi);
            let table = pq.adc_table(PqTableMode::Optimized, q);
            let mut oracle: Vec<Neighbor> = codes
                .chunks_exact(pq.code_len())
                .enumerate()
                .map(|(id, code)| Neighbor::new(id as u64, pq.adc_distance_unrolled(&table, code)))
                .collect();
            oracle.sort_unstable();
            oracle.truncate(10);
            assert_eq!(
                streamed.search_with_nprobe(q, 10, k_full),
                oracle,
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

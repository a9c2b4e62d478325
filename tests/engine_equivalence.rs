//! The paper's methodological premise, verified: the two engines run
//! the same algorithms with the same parameters, so their *answers*
//! coincide wherever the algorithm is deterministic, and their recall
//! matches where it is approximate.

use std::sync::Arc;
use vdb_core::datagen::{brute_force_topk, gaussian, recall_at_k};
use vdb_core::generalized::{
    FilterStrategy, GeneralizedOptions, PaseHnswIndex, PaseIndex, PaseIvfFlatIndex, SelectionBitmap,
};
use vdb_core::specialized::{HnswIndex, IvfFlatIndex, SpecializedOptions, VectorIndex};
use vdb_core::storage::{BufferManager, DiskManager, PageSize};
use vdb_core::vecmath::rng::cases;
use vdb_core::vecmath::{
    DistanceKernel, HnswParams, IvfParams, KmeansFlavor, Metric, Neighbor, TopKStrategy, VectorSet,
};

fn bm(pages: usize) -> BufferManager {
    BufferManager::new(Arc::new(DiskManager::new(PageSize::Size8K)), pages)
}

/// `(id, distance bits)` of each result, for bit-for-bit comparison.
fn bits(found: &[Neighbor]) -> Vec<(u64, u32)> {
    found.iter().map(|n| (n.id, n.distance.to_bits())).collect()
}

/// Generalized IVF_FLAT with every fix on equals specialized IVF_FLAT
/// given its centroids (the paper's Faiss* trick in reverse), bit for
/// bit, at random probe depths and through every entry point: serial,
/// batch, batch-GEMM and both filtered strategies. The data holds exact
/// ties: duplicated rows, and queries on them.
#[test]
fn ivfflat_same_centroids_same_results() {
    cases("ivfflat_same_centroids_same_results", 12, |rng| {
        let clusters = rng.range_usize(2..13);
        let mut data = gaussian::generate(12, rng.range_usize(300..900), 6, rng.next_u64());
        for _ in 0..rng.range_usize(1..80) {
            let row = data.row(rng.range_usize(0..data.len())).to_vec();
            data.push(&row);
        }
        let params = IvfParams {
            clusters,
            sample_ratio: 0.3,
            nprobe: rng.range_usize(1..clusters + 1),
        };
        let bm = bm(4096);
        let (pase, _) =
            PaseIvfFlatIndex::build(GeneralizedOptions::all_fixes(), params, &bm, &data).unwrap();
        let spec_opts = SpecializedOptions::default();
        let (faiss_star, _) =
            IvfFlatIndex::with_centroids(spec_opts, params, pase.centroids().clone(), &data);
        assert_eq!(pase.bucket_sizes(), faiss_star.bucket_sizes());

        let mut filter = SelectionBitmap::new();
        for id in 0..data.len() as u64 {
            if rng.range_usize(0..3) == 0 {
                filter.insert(id);
            }
        }
        let mut queries = VectorSet::empty(data.dim());
        let mut ks = Vec::new();
        for _ in 0..6 {
            let row = data.row(rng.range_usize(0..data.len()));
            let q: Vec<f32> = if rng.bool() {
                row.to_vec()
            } else {
                row.iter().map(|x| x + rng.range_f32(-0.3..0.3)).collect()
            };
            let k = rng.range_usize(1..30);
            let nprobe = rng.range_usize(1..clusters + 1);
            assert_eq!(
                bits(&pase.search_with_nprobe(&bm, &q, k, nprobe).unwrap()),
                bits(&faiss_star.search_with_nprobe(&q, k, nprobe)),
                "k={k} nprobe={nprobe}"
            );
            for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                assert_eq!(
                    bits(
                        &pase
                            .scan_filtered(&bm, &q, k, &filter, strategy, None)
                            .unwrap()
                    ),
                    bits(&faiss_star.search_filtered(&q, k, &filter, strategy)),
                    "{strategy:?} k={k}"
                );
            }
            queries.push(&q);
            ks.push(k);
        }
        let all = |found: Vec<Vec<Neighbor>>| -> Vec<Vec<(u64, u32)>> {
            found.iter().map(|r| bits(r)).collect()
        };
        let nprobe = params.nprobe;
        assert_eq!(
            all(pase
                .search_batch_with_nprobe(&bm, &queries, ks[0], nprobe)
                .unwrap()),
            all(faiss_star.search_batch(&queries, ks[0], nprobe)),
            "batch"
        );
        assert_eq!(
            all(pase.search_batch_gemm(&bm, &queries, &ks, nprobe).unwrap()),
            all(faiss_star.search_batch_gemm(&queries, &ks, nprobe)),
            "batch-GEMM"
        );
    });
}

/// Same k-means flavor + same seed ⇒ same centroids in both engines.
#[test]
fn training_is_engine_independent() {
    let data = gaussian::generate(16, 1_000, 8, 9);
    let params = IvfParams {
        clusters: 8,
        sample_ratio: 0.5,
        nprobe: 8,
    };
    let bm = bm(2048);
    let gen_opts = GeneralizedOptions {
        kmeans: KmeansFlavor::FaissStyle,
        assignment_gemm: Some(vdb_core::gemm::GemmKernel::Blas),
        ..Default::default()
    };
    let (pase, _) = PaseIvfFlatIndex::build(gen_opts, params, &bm, &data).unwrap();
    let (faiss, _) = IvfFlatIndex::build(SpecializedOptions::default(), params, &data);
    assert_eq!(
        pase.centroids().as_flat(),
        faiss.quantizer().centroids().as_flat(),
        "same flavor + seed must give identical centroids"
    );
    assert_eq!(pase.bucket_sizes(), faiss.bucket_sizes());
}

/// HNSW recall is statistically equivalent across engines when built
/// with the same parameters (the paper's "recall rate will be the
/// same" premise).
#[test]
fn hnsw_recall_parity() {
    let (data, queries) = gaussian::generate_with_queries(16, 1_200, 30, 8, 21);
    let truth = brute_force_topk(&data, &queries, Metric::L2, 10, 2);
    let params = HnswParams {
        bnn: 12,
        efb: 40,
        efs: 80,
    };

    let (spec, _) = HnswIndex::build(SpecializedOptions::default(), params, &data);
    let spec_results: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| spec.search(q, 10).iter().map(|n| n.id).collect())
        .collect();

    let bm = bm(4096);
    let (gener, _) =
        PaseHnswIndex::build(GeneralizedOptions::default(), params, &bm, &data).unwrap();
    let gen_results: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            gener
                .search_with_ef(&bm, q, 10, params.efs)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();

    let spec_recall = recall_at_k(&truth, &spec_results);
    let gen_recall = recall_at_k(&truth, &gen_results);
    assert!(spec_recall > 0.85, "specialized recall {spec_recall}");
    assert!(gen_recall > 0.85, "generalized recall {gen_recall}");
    assert!(
        (spec_recall - gen_recall).abs() < 0.1,
        "recall divergence: {spec_recall} vs {gen_recall}"
    );
}

/// RC#6 is a performance switch, not a correctness switch: both heap
/// strategies return the same result set.
#[test]
fn heap_strategy_does_not_change_answers() {
    let data = gaussian::generate(16, 800, 8, 31);
    let params = IvfParams {
        clusters: 8,
        sample_ratio: 0.5,
        nprobe: 4,
    };
    let bm = bm(2048);
    let size_n = GeneralizedOptions::default();
    let size_k = GeneralizedOptions {
        topk: TopKStrategy::SizeK,
        ..size_n
    };
    let (a, _) = PaseIvfFlatIndex::build(size_n, params, &bm, &data).unwrap();
    let (b, _) = PaseIvfFlatIndex::build(size_k, params, &bm, &data).unwrap();
    for qi in [5usize, 250, 799] {
        let q = data.row(qi);
        assert_eq!(
            a.search_with_nprobe(&bm, q, 20, 4).unwrap(),
            b.search_with_nprobe(&bm, q, 20, 4).unwrap(),
            "query {qi}"
        );
    }
}

/// The specialized flat index is the recall oracle: IVF_FLAT at full
/// probe equals it exactly in both engines, paged and with every fix
/// on, on clustered data and on a tie: two rows at the same distance
/// from the query, the larger id in the bucket scanned first.
#[test]
fn full_probe_equals_flat_everywhere() {
    let clustered = gaussian::generate(12, 600, 6, 41);
    let queries: Vec<Vec<f32>> = [0usize, 300, 599]
        .iter()
        .map(|&i| clustered.row(i).to_vec())
        .collect();
    full_probe_equals_flat(&clustered, 6, None, &queries, 10);

    let tie = VectorSet::from_flat(2, vec![-1.0, 0.0, 1.0, 0.0]);
    let centroids = VectorSet::from_flat(2, vec![1.0, 0.0, -1.0, 0.0]);
    full_probe_equals_flat(&tie, 2, Some(centroids), &[vec![0.0, 0.0]], 1);
}

/// Every IVF_FLAT over `data` with `clusters` buckets (the specialized
/// one over `centroids` if given), probed fully, returns the flat
/// index's top `k` for each of `queries`.
fn full_probe_equals_flat(
    data: &VectorSet,
    clusters: usize,
    centroids: Option<VectorSet>,
    queries: &[Vec<f32>],
    k: usize,
) {
    let params = IvfParams {
        clusters,
        sample_ratio: 0.5,
        nprobe: clusters,
    };
    let spec_opts = SpecializedOptions::default();
    let flat = vdb_core::specialized::FlatIndex::new(spec_opts, data.clone());
    let (ivf, _) = match centroids {
        Some(centroids) => IvfFlatIndex::with_centroids(spec_opts, params, centroids, data),
        None => IvfFlatIndex::build(spec_opts, params, data),
    };
    let bm = bm(2048);
    let gen_opts = GeneralizedOptions {
        distance: DistanceKernel::Optimized,
        ..Default::default()
    };
    let (pase, _) = PaseIvfFlatIndex::build(gen_opts, params, &bm, data).unwrap();
    let (fixed, _) =
        PaseIvfFlatIndex::build(GeneralizedOptions::all_fixes(), params, &bm, data).unwrap();

    for q in queries {
        let oracle = flat.search(q, k);
        assert_eq!(
            ivf.search_with_nprobe(q, k, clusters),
            oracle,
            "specialized, query {q:?}"
        );
        for (engine, idx) in [("generalized", &pase), ("all fixes", &fixed)] {
            assert_eq!(
                idx.search_with_nprobe(&bm, q, k, clusters).unwrap(),
                oracle,
                "{engine}, query {q:?}"
            );
        }
    }
}

//! Strategy-equivalence tests for hybrid (filtered) vector search.
//!
//! With exhaustive probing (`nprobe = clusters`) the IVF search is
//! exact, so *every* execution strategy — pre-filter, post-filter, and
//! brute force under the filter — must return the identical top-k on
//! both engines, at every selectivity including the 0% and 100% edges.
//!
//! With partial probing, IVF_FLAT's single-walk post-filter must return
//! exactly what the adaptive k'-doubling loop over the unfiltered search
//! returns (that loop is kept here as the oracle).

use std::sync::Arc;
use vdb_core::datagen::{
    brute_force_topk_filtered, gaussian, threshold_for_selectivity, uniform_attrs,
};
use vdb_core::filter::{post_filter_search, FilterStrategy, PostFilterParams, SelectionBitmap};
use vdb_core::generalized::{GeneralizedOptions, PaseIndex, PaseIvfFlatIndex, PaseIvfPqIndex};
use vdb_core::specialized::{
    FlatIndex, IvfFlatIndex, IvfPqIndex, IvfSq8Index, SpecializedOptions, VectorIndex,
};
use vdb_core::storage::{BufferManager, DiskManager, PageSize};
use vdb_core::vecmath::rng::cases;
use vdb_core::vecmath::{DistanceKernel, IvfParams, Metric, Neighbor, PqParams, VectorSet};

fn bm(pages: usize) -> BufferManager {
    BufferManager::new(Arc::new(DiskManager::new(PageSize::Size8K)), pages)
}

/// A selection bitmap passing rows with `attrs[id] < t` for the cutoff
/// matching `selectivity`, plus the pass closure for the oracle.
fn bitmap_for(attrs: &[f64], selectivity: f64) -> (SelectionBitmap, f64) {
    let t = threshold_for_selectivity(attrs, selectivity);
    let bitmap: SelectionBitmap = attrs
        .iter()
        .enumerate()
        .filter(|(_, &a)| a < t)
        .map(|(i, _)| i as u64)
        .collect();
    (bitmap, t)
}

const SELECTIVITIES: [f64; 6] = [0.0, 0.001, 0.01, 0.1, 0.5, 1.0];

#[test]
fn specialized_strategies_agree_across_selectivities() {
    let (data, queries) = gaussian::generate_with_queries(12, 2_000, 8, 8, 41);
    let attrs = uniform_attrs(2_000, 42);
    // Full probe: the ANN layer is exact, isolating the filter logic.
    let params = IvfParams {
        clusters: 8,
        sample_ratio: 0.3,
        nprobe: 8,
    };
    let (ivf, _) = IvfFlatIndex::build(SpecializedOptions::default(), params, &data);
    let flat = FlatIndex::new(SpecializedOptions::default(), data.clone());

    for sel in SELECTIVITIES {
        let (bitmap, t) = bitmap_for(&attrs, sel);
        let truth = brute_force_topk_filtered(&data, &queries, Metric::L2, 10, 2, &|id| {
            attrs[id as usize] < t
        });
        for (qi, q) in queries.iter().enumerate() {
            let expect = &truth.neighbors[qi];
            for index in [&ivf as &dyn VectorIndex, &flat] {
                for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                    let got: Vec<u64> = index
                        .search_filtered(q, 10, &bitmap, strategy)
                        .into_iter()
                        .map(|n| n.id)
                        .collect();
                    assert_eq!(&got, expect, "sel {sel}, query {qi}, strategy {strategy:?}");
                }
            }
        }
    }
}

#[test]
fn generalized_strategies_agree_across_selectivities() {
    let (data, queries) = gaussian::generate_with_queries(12, 1_200, 6, 8, 43);
    let attrs = uniform_attrs(1_200, 44);
    let params = IvfParams {
        clusters: 8,
        sample_ratio: 0.3,
        nprobe: 8,
    };
    let bm = bm(8_192);
    let opts = GeneralizedOptions {
        distance: DistanceKernel::Optimized,
        ..Default::default()
    };
    let (pase, _) = PaseIvfFlatIndex::build_with_ids(opts, params, &bm, None, &data).unwrap();

    for sel in SELECTIVITIES {
        let (bitmap, t) = bitmap_for(&attrs, sel);
        let truth = brute_force_topk_filtered(&data, &queries, Metric::L2, 10, 2, &|id| {
            attrs[id as usize] < t
        });
        for (qi, q) in queries.iter().enumerate() {
            let expect = &truth.neighbors[qi];
            for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                let got: Vec<u64> = pase
                    .scan_filtered(&bm, q, 10, &bitmap, strategy, None)
                    .unwrap()
                    .into_iter()
                    .map(|n| n.id)
                    .collect();
                assert_eq!(&got, expect, "sel {sel}, query {qi}, strategy {strategy:?}");
            }
        }
    }
}

/// The memory-optimized (bucket-cache) read path must filter
/// identically to the paged path.
#[test]
fn generalized_cache_path_matches_paged_path() {
    let data = gaussian::generate(8, 600, 4, 45);
    let attrs = uniform_attrs(600, 46);
    let params = IvfParams {
        clusters: 4,
        sample_ratio: 0.5,
        nprobe: 4,
    };
    let (bitmap, _) = bitmap_for(&attrs, 0.1);

    let mut results = Vec::new();
    for memory_optimized in [false, true] {
        let bm = bm(4_096);
        let opts = GeneralizedOptions {
            memory_optimized,
            ..Default::default()
        };
        let (pase, _) = PaseIvfFlatIndex::build_with_ids(opts, params, &bm, None, &data).unwrap();
        let q = data.row(11);
        results.push(
            pase.scan_filtered(&bm, q, 5, &bitmap, FilterStrategy::PreFilter, None)
                .unwrap(),
        );
    }
    assert_eq!(results[0], results[1]);
}

/// Randomized instances: pre-filter, post-filter, and the exact
/// oracle agree on both engines for arbitrary k and selectivity.
#[test]
fn strategies_equivalent_on_random_instances() {
    cases("strategies_equivalent_on_random_instances", 8, |rng| {
        let seed = rng.range_usize(0..1_000) as u64;
        let k = rng.range_usize(1..12);
        let sel = rng.range_f64(0.0..1.0);
        let n = 400;
        let (data, queries) = gaussian::generate_with_queries(6, n, 3, 4, seed);
        let attrs = uniform_attrs(n, seed ^ 0xA5A5);
        let (bitmap, t) = bitmap_for(&attrs, sel);
        let params = IvfParams {
            clusters: 4,
            sample_ratio: 0.5,
            nprobe: 4,
        };
        let (ivf, _) = IvfFlatIndex::build(SpecializedOptions::default(), params, &data);
        let bufs = bm(4_096);
        let (pase, _) = PaseIvfFlatIndex::build_with_ids(
            GeneralizedOptions {
                distance: DistanceKernel::Optimized,
                ..Default::default()
            },
            params,
            &bufs,
            None,
            &data,
        )
        .unwrap();

        let queries: &VectorSet = &queries;
        let truth = brute_force_topk_filtered(&data, queries, Metric::L2, k, 2, &|id| {
            attrs[id as usize] < t
        });
        for (qi, q) in queries.iter().enumerate() {
            let expect = &truth.neighbors[qi];
            for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
                let spec: Vec<u64> = ivf
                    .search_filtered(q, k, &bitmap, strategy)
                    .into_iter()
                    .map(|n| n.id)
                    .collect();
                assert_eq!(&spec, expect, "specialized {:?} q{}", strategy, qi);
                let genr: Vec<u64> = pase
                    .scan_filtered(&bufs, q, k, &bitmap, strategy, None)
                    .unwrap()
                    .into_iter()
                    .map(|n| n.id)
                    .collect();
                assert_eq!(&genr, expect, "generalized {:?} q{}", strategy, qi);
            }
        }
    });
}

/// Partial probe (`nprobe < clusters`): one filtered walk of the
/// probed lists equals the k'-doubling loop over the unfiltered
/// search — same ids, same distances, same order — on specialized
/// IVF_FLAT and on generalized IVF_FLAT, paged and memory-optimized,
/// under both distance kernels, at every selectivity.
#[test]
fn one_walk_post_filter_equals_retry_loop_at_partial_probe() {
    cases(
        "one_walk_post_filter_equals_retry_loop_at_partial_probe",
        8,
        |rng| {
            let seed = rng.range_usize(0..1_000) as u64;
            let k = rng.range_usize(1..12);
            let nprobe = rng.range_usize(1..8);
            let n = 500;
            let (data, queries) = gaussian::generate_with_queries(6, n, 4, 4, seed);
            let attrs = uniform_attrs(n, seed ^ 0x5A5A);
            let params = IvfParams {
                clusters: 8,
                sample_ratio: 0.5,
                nprobe,
            };
            let (spec, _) = IvfFlatIndex::build(SpecializedOptions::default(), params, &data);
            let bufs = bm(4_096);
            // Built with another default nprobe: the per-query knob decides.
            let pase_params = IvfParams {
                nprobe: 2,
                ..params
            };
            let mut pases = Vec::new();
            for memory_optimized in [false, true] {
                for distance in [DistanceKernel::Reference, DistanceKernel::Optimized] {
                    let opts = GeneralizedOptions {
                        memory_optimized,
                        distance,
                        ..Default::default()
                    };
                    pases.push(
                        PaseIvfFlatIndex::build_with_ids(opts, pase_params, &bufs, None, &data)
                            .unwrap()
                            .0,
                    );
                }
            }

            for sel in SELECTIVITIES {
                let (bitmap, _) = bitmap_for(&attrs, sel);
                let retry_loop = |len: usize, search: &dyn Fn(usize) -> Vec<Neighbor>| {
                    post_filter_search(
                        k,
                        len,
                        PostFilterParams::default(),
                        |id| bitmap.contains(id),
                        search,
                    )
                };
                for (qi, q) in queries.iter().enumerate() {
                    assert_eq!(
                        spec.search_filtered(q, k, &bitmap, FilterStrategy::PostFilter),
                        retry_loop(spec.len(), &|kp| spec.search(q, kp)),
                        "specialized sel {} q{}",
                        sel,
                        qi
                    );
                    for pase in &pases {
                        assert_eq!(
                            pase.scan_filtered(
                                &bufs,
                                q,
                                k,
                                &bitmap,
                                FilterStrategy::PostFilter,
                                Some(nprobe)
                            )
                            .unwrap(),
                            retry_loop(pase.len(), &|kp| {
                                pase.search_with_nprobe(&bufs, q, kp, nprobe).unwrap()
                            }),
                            "generalized sel {} q{}",
                            sel,
                            qi
                        );
                    }
                }
            }
        },
    );
}

/// `(id, distance bits)` of each result, for bit-for-bit comparison.
fn bits(found: &[Neighbor]) -> Vec<(u64, u32)> {
    found.iter().map(|n| (n.id, n.distance.to_bits())).collect()
}

/// IVF_PQ and IVF_SQ8 take IVF_FLAT's one filtered walk: at partial
/// probe, post-filter equals the k'-doubling loop over the unfiltered
/// search, bit for bit, on random data and bitmaps, with `k` and
/// `nprobe` drawn per case — specialized IVF_PQ and IVF_SQ8, and
/// generalized IVF_PQ paged and memory-optimized, under both distance
/// kernels.
#[test]
fn quantized_post_filter_walk_equals_retry_loop() {
    cases("quantized_post_filter_walk_equals_retry_loop", 8, |rng| {
        let n = rng.range_usize(300..700);
        let (data, queries) = gaussian::generate_with_queries(8, n, 4, 4, rng.next_u64());
        let (k, nprobe) = (rng.range_usize(1..16), rng.range_usize(1..8));
        let params = IvfParams {
            clusters: 8,
            sample_ratio: 0.5,
            nprobe,
        };
        let pq = PqParams { m: 4, cpq: 16 };
        let keep = rng.range_usize(1..12);
        let bitmap: SelectionBitmap = (0..n as u64)
            .filter(|_| rng.range_usize(0..keep) == 0)
            .collect();
        let retry_loop = |len: usize, search: &dyn Fn(usize) -> Vec<Neighbor>| {
            let passes = |id| bitmap.contains(id);
            bits(&post_filter_search(
                k,
                len,
                PostFilterParams::default(),
                passes,
                search,
            ))
        };
        let bufs = bm(4_096);
        for distance in [DistanceKernel::Reference, DistanceKernel::Optimized] {
            let spec = SpecializedOptions {
                distance,
                ..Default::default()
            };
            let (ivfpq, _) = IvfPqIndex::build(spec, params, pq, &data);
            let (sq8, _) = IvfSq8Index::build(spec, params, &data);
            for (name, idx) in [("IVF_PQ", &ivfpq as &dyn VectorIndex), ("IVF_SQ8", &sq8)] {
                for (qi, q) in queries.iter().enumerate() {
                    assert_eq!(
                        bits(&idx.search_filtered(q, k, &bitmap, FilterStrategy::PostFilter)),
                        retry_loop(idx.len(), &|kp| idx.search(q, kp)),
                        "specialized {name} {distance:?} k={k} nprobe={nprobe} q{qi}"
                    );
                }
            }
            for memory_optimized in [false, true] {
                let opts = GeneralizedOptions {
                    memory_optimized,
                    distance,
                    ..Default::default()
                };
                // Built with another default nprobe: the per-query knob decides.
                let built = IvfParams {
                    nprobe: 2,
                    ..params
                };
                let (pase, _) = PaseIvfPqIndex::build(opts, built, pq, &bufs, &data).unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    let strategy = FilterStrategy::PostFilter;
                    let found = pase.scan_filtered(&bufs, q, k, &bitmap, strategy, Some(nprobe));
                    assert_eq!(
                        bits(&found.unwrap()),
                        retry_loop(pase.len(), &|kp| {
                            pase.search_with_nprobe(&bufs, q, kp, nprobe).unwrap()
                        }),
                        "generalized IVF_PQ cached={memory_optimized} {distance:?} q{qi}"
                    );
                }
            }
        }
    });
}

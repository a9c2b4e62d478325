//! Micro-benchmarks for the primitive operations behind the root
//! causes: distance kernels, one-vs-many scans, top-k heaps (RC#6), PQ
//! table construction (RC#7), the blocked GEMM (RC#1, paper §V-A) and
//! what a bucket costs through the buffer pool (RC#2), and what a DELETE
//! by id costs through SQL and the id B-tree. The macro
//! experiments live in the other bench targets; these quantify the
//! per-operation deltas.
//!
//! Each line is the best of [`ROUNDS`] timed batches, in ns per call
//! (ns per row for `scan_batched` and `paged_scan`, so the batched arm
//! reads directly against the per-row ones).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdb_core::gemm::{gemm_nt_blocked, gemm_nt_naive};
use vdb_core::generalized::{GeneralizedOptions, PaseIvfFlatIndex};
use vdb_core::specialized::{IvfFlatIndex, SpecializedOptions};
use vdb_core::sql::Database;
use vdb_core::storage::{BufferManager, DiskManager, PageSize};
use vdb_core::vecmath::distance::{l2_sqr_ref, l2_sqr_unrolled};
use vdb_core::vecmath::pq::train_default;
use vdb_core::vecmath::rng::Rng;
use vdb_core::vecmath::simd;
use vdb_core::vecmath::{
    DistanceKernel, IvfParams, KHeap, KmeansFlavor, NHeap, PqTableMode, TopKStrategy, VectorSet,
};

/// Timed batches per arm; the fastest one is reported.
const ROUNDS: u32 = 20;

/// Each timed batch runs for at least this long.
const BATCH: Duration = Duration::from_millis(2);

fn random(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.f32() - 0.5).collect()
}

/// Time `f` and print the best-of-[`ROUNDS`] cost of one call divided
/// by `per` (the rows one call covers).
fn bench<T>(group: &str, arm: &str, per: usize, mut f: impl FnMut() -> T) {
    // Warm up, then size the batch so one batch spans `BATCH`.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (BATCH.as_nanos() / once.as_nanos()).max(1) as u32;
    let best_ns = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min);
    let unit = if per > 1 { "ns/row" } else { "ns/op" };
    let label = format!("{group}/{arm}");
    println!("{label:<36} {:>12.1} {unit}", best_ns / per as f64);
}

fn distance_kernels() {
    for d in [64usize, 128, 960] {
        let x = random(d, 1);
        let y = random(d, 2);
        bench("distance", &format!("reference/{d}"), 1, || {
            l2_sqr_ref(&x, &y)
        });
        bench("distance", &format!("unrolled/{d}"), 1, || {
            l2_sqr_unrolled(&x, &y)
        });
        bench("distance", &format!("simd/{d}"), 1, || {
            simd::l2_sqr_auto(&x, &y)
        });
    }
}

/// One-vs-many scan at each dimension: per-row kernel calls vs the
/// batched primitive.
fn batched_scan() {
    let n = 1024usize;
    for d in [64usize, 128, 960] {
        let q = random(d, 6);
        let rows = VectorSet::from_flat(d, random(n * d, 7));
        let mut out = vec![0.0f32; n];
        bench("scan_batched", &format!("unrolled_per_row/{d}"), n, || {
            for (o, row) in out.iter_mut().zip(rows.iter()) {
                *o = l2_sqr_unrolled(&q, row);
            }
        });
        bench("scan_batched", &format!("simd_per_row/{d}"), n, || {
            for (o, row) in out.iter_mut().zip(rows.iter()) {
                *o = simd::l2_sqr_auto(&q, row);
            }
        });
        bench("scan_batched", &format!("simd_batched/{d}"), n, || {
            simd::l2_sqr_batch(&q, &rows, &mut out)
        });
    }
}

/// RC#6: pushing n candidates through a size-k heap vs a size-n heap.
fn topk_heaps() {
    let k = 100usize;
    let dists = random(20_000, 3);
    bench("topk_rc6", "size_k_heap", 1, || {
        let mut h = KHeap::new(k);
        for (i, &d) in dists.iter().enumerate() {
            h.push(i as u64, d);
        }
        h.into_sorted()
    });
    bench("topk_rc6", "size_n_heap", 1, || {
        let mut h = NHeap::new(k);
        for (i, &d) in dists.iter().enumerate() {
            h.push(i as u64, d);
        }
        h.into_sorted()
    });
}

/// RC#7: optimized vs straightforward ADC table construction.
fn pq_tables() {
    let d = 128;
    let training = VectorSet::from_flat(d, random(500 * d, 4));
    let pq = train_default(
        &training,
        16,
        256,
        KmeansFlavor::FaissStyle,
        7,
        vdb_core::gemm::GemmKernel::Blas,
    );
    let query = random(d, 5);
    bench("pq_table_rc7", "optimized", 1, || {
        pq.adc_table(PqTableMode::Optimized, &query)
    });
    bench("pq_table_rc7", "straightforward", 1, || {
        pq.adc_table(PqTableMode::Straightforward, &query)
    });
}

/// RC#1: blocked vs naive GEMM on IVF-adding-phase shapes; the blocked
/// kernel should pull ahead as the centroid count grows.
fn gemm_nt() {
    let d = 128; // SIFT dimensionality
    let n = 1024; // vectors per batch
    for centroids in [64usize, 256] {
        let a = random(n * d, 7);
        let b = random(centroids * d, 13);
        let mut out = vec![0.0f32; n * centroids];
        bench("gemm_nt", &format!("blocked/{centroids}"), 1, || {
            gemm_nt_blocked(n, centroids, d, &a, &b, &mut out)
        });
        bench("gemm_nt", &format!("naive/{centroids}"), 1, || {
            gemm_nt_naive(n, centroids, d, &a, &b, &mut out)
        });
    }
}

/// RC#2's residual: one resident IVF_FLAT bucket of 8,192 rows at
/// d = 128 (a one-cluster index probed with `nprobe` 1) read through
/// the buffer pool (pin, line pointers, page-by-page kernel) against
/// the same rows read from the RC#2 cache and from the specialized
/// index, with each kernel. Every arm runs the whole search with a
/// size-k heap, so the difference is the page path; the cache and
/// specialized arms run the same resident scan.
fn paged_scan() {
    let (n, d) = (8192usize, 128usize);
    let data = VectorSet::from_flat(d, random(n * d, 8));
    let query = random(d, 9);
    let params = IvfParams {
        clusters: 1,
        sample_ratio: 1.0,
        nprobe: 1,
    };
    for distance in [DistanceKernel::Reference, DistanceKernel::Optimized] {
        for (arm, memory_optimized) in [("pool", false), ("cache", true)] {
            let opts = GeneralizedOptions {
                distance,
                memory_optimized,
                topk: TopKStrategy::SizeK,
                ..GeneralizedOptions::default()
            };
            let bm = BufferManager::new(Arc::new(DiskManager::new(PageSize::Size8K)), 1024);
            // PANIC-OK: a bench over an in-memory disk and a pool larger than the index.
            let (index, _) = PaseIvfFlatIndex::build(opts, params, &bm, &data).expect("build");
            let label = format!("{arm}/{distance:?}").to_lowercase();
            bench("paged_scan", &label, n, || {
                index.search_with_nprobe(&bm, &query, 10, 1)
            });
        }
        let opts = SpecializedOptions {
            distance,
            ..SpecializedOptions::default()
        };
        let (index, _) = IvfFlatIndex::build(opts, params, &data);
        let label = format!("specialized/{distance:?}").to_lowercase();
        bench("paged_scan", &label, n, || {
            index.search_with_nprobe(&query, 10, 1)
        });
    }
}

/// `DELETE FROM t WHERE id = n` through SQL on an `n`-row table of
/// 16-d rows: ns per statement (best of [`DELETE_PASSES`] passes of
/// [`DELETES`] statements, each pass over a freshly loaded table) and
/// the exact pins per statement. The id B-tree finds the row in
/// `height` pins, then the heap delete and the leaf update take one
/// each, so the pins stay `height + 2` from 10k to 100k rows.
fn delete_by_id() {
    const DELETES: usize = 1_000;
    const DELETE_PASSES: usize = 5;
    let d = 16;
    for n in [10_000usize, 100_000] {
        let data = VectorSet::from_flat(d, random(n * d, 10));
        let ids: Vec<i64> = (0..n as i64).collect();
        let victims: Vec<String> = (0..DELETES)
            .map(|i| format!("DELETE FROM t WHERE id = {}", i * n / DELETES))
            .collect();
        let mut best_ns = f64::INFINITY;
        let mut pins = 0.0;
        for _ in 0..DELETE_PASSES {
            let mut db = Database::new(PageSize::Size8K, 4096);
            // PANIC-OK: a bench over an in-memory table it just created.
            db.execute(&format!("CREATE TABLE t (id int, vec float[{d}])"))
                .expect("create");
            db.bulk_load("t", &ids, &data).expect("load");
            let pinned = |db: &Database| {
                let s = db.buffer_manager().stats();
                s.hits + s.misses
            };
            let before = pinned(&db);
            let t0 = Instant::now();
            for sql in &victims {
                black_box(db.execute(sql).expect("delete"));
            }
            best_ns = best_ns.min(t0.elapsed().as_nanos() as f64 / DELETES as f64);
            pins = (pinned(&db) - before) as f64 / DELETES as f64;
        }
        let label = format!("delete_by_id/sql/{n}");
        println!("{label:<36} {best_ns:>12.1} ns/op");
        let label = format!("delete_by_id/pins/{n}");
        println!("{label:<36} {pins:>12.1} pins/op");
    }
}

fn main() {
    distance_kernels();
    batched_scan();
    topk_heaps();
    pq_tables();
    gemm_nt();
    paged_scan();
    delete_by_id();
}

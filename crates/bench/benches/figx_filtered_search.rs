//! Hybrid (filtered) vector search: QPS and recall versus predicate
//! selectivity, both engines, both strategies.
//!
//! Not a figure from the paper — this extends its PASE-vs-Faiss
//! methodology to the hybrid-query workload the related filtered-ANN
//! literature studies. The expected shape is a *trade*: pre-filter is
//! exact at every selectivity (it computes distances for exactly the
//! passing rows but visits every row), while IVF_FLAT's post-filter is
//! one walk of the `nprobe` probed lists whatever the selectivity — its
//! cost never rises as the predicate tightens, it only skips more
//! distances — and pays in recall instead, which collapses as the
//! probed lists hold too few passing rows.
//!
//! Besides the usual experiment record, this target writes a
//! machine-readable `BENCH_filtered_search.json` at the repository root
//! (selectivity → QPS/recall per engine and strategy).

use std::io::Write;
use std::path::PathBuf;
use vdb_bench::*;
use vdb_core::datagen::{
    brute_force_topk_filtered, recall_at_k, threshold_for_selectivity, uniform_attrs, DatasetId,
};
use vdb_core::filter::{FilterStrategy, SelectionBitmap};
use vdb_core::generalized::{GeneralizedOptions, PaseIndex};
use vdb_core::specialized::SpecializedOptions;
use vdb_core::vecmath::Metric;
use vdb_core::{ExperimentRecord, Series};

const K: usize = 10;
const SELECTIVITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 1.0];
const ATTR_SEED: u64 = 0xF117E2;

struct Point {
    selectivity: f64,
    engine: &'static str,
    strategy: FilterStrategy,
    qps: f64,
    recall: f64,
}

fn main() {
    let ds = dataset(DatasetId::ALL[0]);
    let params = ivf_params_for(&ds);
    let n = ds.base.len();
    let nq = ds.queries.len();
    let attrs = uniform_attrs(n, ATTR_SEED);

    let built = pase_ivfflat(GeneralizedOptions::default(), params, &ds);
    let (faiss_idx, _) = faiss_ivfflat(SpecializedOptions::default(), params, &ds);

    let mut points: Vec<Point> = Vec::new();
    let mut series: Vec<Series> = ["PASE pre", "PASE post", "Faiss pre", "Faiss post"]
        .into_iter()
        .map(Series::new)
        .collect();
    let mut labels = Vec::new();

    for (xi, &sel) in SELECTIVITIES.iter().enumerate() {
        labels.push(format!("{}%", sel * 100.0));
        let t = threshold_for_selectivity(&attrs, sel);
        let bitmap: SelectionBitmap = attrs
            .iter()
            .enumerate()
            .filter(|(_, &a)| a < t)
            .map(|(i, _)| i as u64)
            .collect();
        let truth = brute_force_topk_filtered(&ds.base, &ds.queries, Metric::L2, K, 2, &|id| {
            attrs[id as usize] < t
        });

        for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
            // Generalized (PASE): bitmap-qualified index scan.
            let mut results: Vec<Vec<u64>> = Vec::with_capacity(nq);
            let avg = avg_query_time(nq, |q| {
                let found = built
                    .index
                    .scan_filtered(&built.bm, ds.queries.row(q), K, &bitmap, strategy, None)
                    .expect("PASE filtered scan");
                results.push(found.into_iter().map(|nb| nb.id).collect());
            });
            let qps = 1.0 / secs(avg).max(1e-12);
            let recall = recall_at_k(&truth, &results);
            points.push(Point {
                selectivity: sel,
                engine: "generalized",
                strategy,
                qps,
                recall,
            });
            let si = if strategy == FilterStrategy::PreFilter {
                0
            } else {
                1
            };
            series[si].push(xi as f64, qps);

            // Specialized (Faiss): in-memory filtered search.
            let mut results: Vec<Vec<u64>> = Vec::with_capacity(nq);
            let avg = avg_query_time(nq, |q| {
                let found = faiss_idx.search_filtered(ds.queries.row(q), K, &bitmap, strategy);
                results.push(found.into_iter().map(|nb| nb.id).collect());
            });
            let qps = 1.0 / secs(avg).max(1e-12);
            let recall = recall_at_k(&truth, &results);
            points.push(Point {
                selectivity: sel,
                engine: "specialized",
                strategy,
                qps,
                recall,
            });
            series[si + 2].push(xi as f64, qps);
        }
        let last = &points[points.len() - 4..];
        for p in last {
            println!(
                "sel {:>6}: {:<11} {:<11} {:>12.1} qps  recall {:.3}",
                format!("{}%", p.selectivity * 100.0),
                p.engine,
                p.strategy.label(),
                p.qps,
                p.recall
            );
        }
    }

    write_json(&ds.spec.id, n, params.nprobe, &points);

    // Shape, on both engines: pre-filter is exact at every selectivity;
    // post-filter's cost does not rise as the predicate tightens (one
    // walk of the probed lists, skipping the distances of failing rows)
    // and its recall collapses at the tight end. On the paged engine
    // post-filter is also the faster plan at every selectivity.
    let shape_holds = ["generalized", "specialized"].into_iter().all(|engine| {
        let cells = |strategy: FilterStrategy| -> Vec<&Point> {
            points
                .iter()
                .filter(|p| p.engine == engine && p.strategy == strategy)
                .collect()
        };
        let (pre, post) = (
            cells(FilterStrategy::PreFilter),
            cells(FilterStrategy::PostFilter),
        );
        let (tight, loose) = (0, post.len() - 1);
        let pre_exact = pre.iter().all(|p| p.recall >= 0.999);
        let post_not_dearer = post[tight].qps >= post[loose].qps;
        let collapses = post[tight].recall < 0.9 && post[loose].recall >= 0.95;
        let post_faster =
            engine != "generalized" || pre.iter().zip(&post).all(|(a, b)| b.qps > a.qps);
        println!(
            "{engine}: pre-filter exact {pre_exact}; post-filter no dearer at the tight end \
             {post_not_dearer}, recall collapses there {collapses}, faster than pre-filter \
             everywhere (paged engine only) {post_faster}"
        );
        pre_exact && post_not_dearer && collapses && post_faster
    });

    let record = ExperimentRecord {
        id: "figx_filtered_search".into(),
        title: "Filtered (hybrid) search QPS vs predicate selectivity".into(),
        paper_claim: "pre-filter exact everywhere; post-filter cost not rising as the \
                      predicate tightens, recall collapsing there (filtered-ANN literature)"
            .into(),
        x_labels: labels,
        unit: "qps".into(),
        series,
        measured_factor: None,
        shape_holds,
        notes: format!("scale {:?}, k={K}, dataset {}", scale(), ds.spec.id.name()),
    };
    emit(&record);
}

/// Hand-formatted JSON (repo convention: no serde dependency on the
/// bench output path) with one object per (selectivity, engine,
/// strategy) cell.
fn write_json(dataset: &DatasetId, n: usize, nprobe: usize, points: &[Point]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_filtered_search.json");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"dataset\": \"{}\",\n", dataset.name()));
    body.push_str(&format!("  \"scale\": \"{:?}\",\n", scale()));
    body.push_str(&format!(
        "  \"n\": {n},\n  \"k\": {K},\n  \"nprobe\": {nprobe},\n"
    ));
    body.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"selectivity\": {}, \"engine\": \"{}\", \"strategy\": \"{}\", \
             \"qps\": {:.3}, \"recall\": {:.4}}}{}\n",
            p.selectivity,
            p.engine,
            p.strategy.label(),
            p.qps,
            p.recall,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(body.as_bytes());
            println!("(filtered-search table written to {})", path.display());
        }
        Err(e) => eprintln!("cannot write {path:?}: {e}"),
    }
}

//! Figure 12: IVF_PQ index size, PASE vs Faiss, all six datasets.
//!
//! Paper: no obvious difference, for the same reason as IVF_FLAT —
//! sequentially packed pages align with the memory layout.

use vdb_bench::*;
use vdb_core::generalized::{GeneralizedOptions, PaseIndex};
use vdb_core::specialized::SpecializedOptions;
use vdb_core::{ExperimentRecord, Series};

fn main() {
    let mut pase_mb = Series::new("PASE");
    let mut faiss_mb = Series::new("Faiss");
    let mut slack_mb = Series::new("page-tail slack bound");
    let mut labels = Vec::new();

    for (i, id) in all_datasets().into_iter().enumerate() {
        let ds = dataset(id);
        let params = ivf_params_for(&ds);
        let pq = pq_params_for(&ds);
        labels.push(id.name().to_string());

        let built = pase_ivfpq(GeneralizedOptions::default(), params, pq, &ds);
        let (faiss_idx, _) = faiss_ivfpq(SpecializedOptions::default(), params, pq, &ds);

        let p = built.index.size_bytes(&built.bm) as f64 / 1e6;
        let f = faiss_idx.size_bytes() as f64 / 1e6;
        // Every bucket chain (plus the centroid/codebook relations)
        // ends in a partially-filled page; that tail slack is the whole
        // difference the paper's claim allows, and it amortizes away as
        // n grows (at 1M scale it is <2% of the index).
        let slack = (params.clusters + 2) as f64 * 8192.0 / 1e6;
        pase_mb.push(i as f64, p);
        faiss_mb.push(i as f64, f);
        slack_mb.push(i as f64, slack);
        println!(
            "{:<10} PASE {p:.2} MB | Faiss {f:.2} MB (slack bound {slack:.2})",
            id.name()
        );
    }

    let mut record = ExperimentRecord {
        id: "fig12".into(),
        title: "IVF_PQ index size".into(),
        paper_claim: "no obvious size difference between the systems".into(),
        x_labels: labels,
        unit: "MB".into(),
        series: vec![pase_mb, faiss_mb, slack_mb],
        measured_factor: None,
        shape_holds: false,
        notes: format!(
            "scale {:?}; code tuples are tiny, so page slack is relatively larger at reduced scale",
            scale()
        ),
    };
    let (min_f, max_f) = record.factor_range().unwrap_or((0.0, 0.0));
    record.measured_factor = Some(max_f);
    // The claim: PASE's layout adds no *structural* overhead — the
    // measured difference must be within the page-tail slack bound
    // (which amortizes to nothing at the paper's 1M scale), and PASE
    // must not be smaller than the payload Faiss stores.
    let within_slack = (0..record.x_labels.len()).all(|i| {
        let p = record.series[0].points[i].1;
        let f = record.series[1].points[i].1;
        let slack = record.series[2].points[i].1;
        p <= f + slack && p >= f * 0.5
    });
    record.shape_holds = within_slack && min_f > 0.5;
    emit(&record);
}

//! Figure 11: IVF_FLAT index size, PASE vs Faiss, all six datasets.
//!
//! Paper: sizes are almost identical — IVF_FLAT's page layout aligns
//! well with the memory representation (sequential centroid pages +
//! data pages), so the relational format costs almost nothing here.

use vdb_bench::*;
use vdb_core::generalized::{GeneralizedOptions, PaseIndex};
use vdb_core::specialized::SpecializedOptions;
use vdb_core::{ExperimentRecord, Series};

fn main() {
    let mut pase_mb = Series::new("PASE");
    let mut faiss_mb = Series::new("Faiss");
    let mut labels = Vec::new();

    for (i, id) in all_datasets().into_iter().enumerate() {
        let ds = dataset(id);
        let params = ivf_params_for(&ds);
        labels.push(id.name().to_string());

        let built = pase_ivfflat(GeneralizedOptions::default(), params, &ds);
        let (faiss_idx, _) = faiss_ivfflat(SpecializedOptions::default(), params, &ds);

        let p = built.index.size_bytes(&built.bm) as f64 / 1e6;
        let f = faiss_idx.size_bytes() as f64 / 1e6;
        pase_mb.push(i as f64, p);
        faiss_mb.push(i as f64, f);
        println!("{:<10} PASE {p:.1} MB | Faiss {f:.1} MB", id.name());
    }

    let mut record = ExperimentRecord {
        id: "fig11".into(),
        title: "IVF_FLAT index size".into(),
        paper_claim: "almost the same size on both systems".into(),
        x_labels: labels,
        unit: "MB".into(),
        series: vec![pase_mb, faiss_mb],
        measured_factor: None,
        shape_holds: false,
        notes: format!("scale {:?}", scale()),
    };
    let (min_f, max_f) = record.factor_range().unwrap_or((0.0, 0.0));
    record.measured_factor = Some(max_f);
    // Shape: within ~1.5x of each other everywhere (page slack only).
    record.shape_holds = min_f > 1.0 / 1.5 && max_f < 1.5;
    emit(&record);
}

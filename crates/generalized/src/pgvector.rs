//! A pgvector-style IVF_FLAT — the slower generalized baseline of
//! Figure 2.
//!
//! The paper picks PASE over pgvector because "PASE exhibits the highest
//! performance among all open-sourced generalized vector databases"
//! (Figure 2). This module models why pgvector trails PASE: its ivfflat
//! scan feeds every candidate tuple into the executor's *sort node*
//! (`ORDER BY` over the full probed set) instead of maintaining any heap
//! at all, and its scan re-reads centroid pages per query the same way.
//! Storage-wise it shares PASE's page organization, so the index reuses
//! [`PaseIvfFlatIndex`]'s layout with a different executor strategy.

use crate::index_am::PaseIndex;
use crate::ivf_flat::PaseIvfFlatIndex;
use crate::ivf_pages::ScanScratch;
use crate::options::GeneralizedOptions;
use vdb_profile::{self as profile, Category};
use vdb_storage::{BufferManager, Result};
use vdb_vecmath::{BuildTiming, IvfParams, Neighbor, TopKSink, VectorSet};

/// The pgvector-flavor index: PASE pages, sort-node execution.
pub struct PgVectorIvfFlatIndex {
    inner: PaseIvfFlatIndex,
    params: IvfParams,
}

impl PgVectorIvfFlatIndex {
    /// Build with the same page layout as PASE's IVF_FLAT.
    pub fn build(
        opts: GeneralizedOptions,
        params: IvfParams,
        bm: &BufferManager,
        data: &VectorSet,
    ) -> Result<(PgVectorIvfFlatIndex, BuildTiming)> {
        let (inner, timing) = PaseIvfFlatIndex::build(opts, params, bm, data)?;
        Ok((PgVectorIvfFlatIndex { inner, params }, timing))
    }

    /// Search with an explicit `nprobe`: gather *all* candidates from the
    /// probed buckets, then fully sort them — the tuplesort execution
    /// model.
    pub fn search_with_nprobe(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        assert!(k > 0, "k must be positive");
        let rows = &self.inner.rows(bm);
        let mut all = SortInput(Vec::new());
        let mut scratch = ScanScratch::default();
        for b in self.inner.probes(rows, query, nprobe)? {
            self.inner
                .scan_bucket(rows, query, b, None, &mut scratch, &mut all)?;
        }
        // The sort node: O(n log n) over every probed tuple.
        let _t = profile::scoped(Category::MinHeap);
        let SortInput(mut all) = all;
        all.sort_unstable();
        all.truncate(k);
        Ok(all)
    }
}

/// The sort node's input: every probed tuple, none pruned.
struct SortInput(Vec<Neighbor>);

impl TopKSink for SortInput {
    fn threshold(&self) -> f32 {
        f32::INFINITY
    }

    fn push(&mut self, id: u64, distance: f32) {
        self.0.push(Neighbor::new(id, distance));
    }
}

impl PaseIndex for PgVectorIvfFlatIndex {
    fn am_name(&self) -> &'static str {
        "pgvector_ivfflat"
    }

    fn scan(&self, bm: &BufferManager, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.search_with_nprobe(bm, query, k, self.params.nprobe)
    }

    fn scan_with_knob(
        &self,
        bm: &BufferManager,
        query: &[f32],
        k: usize,
        knob: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        self.search_with_nprobe(bm, query, k, knob.unwrap_or(self.params.nprobe))
    }

    fn insert(&mut self, bm: &BufferManager, id: u64, vector: &[f32]) -> Result<()> {
        self.inner.insert(bm, id, vector)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn size_bytes(&self, bm: &BufferManager) -> usize {
        self.inner.size_bytes(bm)
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdb_datagen::gaussian::generate;
    use vdb_storage::{DiskManager, PageSize};

    fn setup() -> (BufferManager, VectorSet) {
        let disk = Arc::new(DiskManager::new(PageSize::Size8K));
        let bm = BufferManager::new(disk, 2048);
        (bm, generate(16, 800, 16, 21))
    }

    #[test]
    fn results_match_pase_ivfflat() {
        let (bm, data) = setup();
        let params = IvfParams {
            clusters: 16,
            sample_ratio: 0.5,
            nprobe: 4,
        };
        let opts = GeneralizedOptions::default();
        let (pg, _) = PgVectorIvfFlatIndex::build(opts, params, &bm, &data).unwrap();
        let (pase, _) = PaseIvfFlatIndex::build(opts, params, &bm, &data).unwrap();
        for qi in [0usize, 50, 700] {
            let q = data.row(qi);
            assert_eq!(
                pg.search_with_nprobe(&bm, q, 10, 4).unwrap(),
                pase.search_with_nprobe(&bm, q, 10, 4).unwrap(),
                "query {qi}"
            );
        }
    }

    #[test]
    fn full_probe_finds_self() {
        let (bm, data) = setup();
        let params = IvfParams {
            clusters: 16,
            sample_ratio: 0.5,
            nprobe: 16,
        };
        let (pg, _) =
            PgVectorIvfFlatIndex::build(GeneralizedOptions::default(), params, &bm, &data).unwrap();
        let res = pg.scan(&bm, data.row(9), 1).unwrap();
        assert_eq!(res[0].id, 9);
    }

    #[test]
    fn insert_visible_in_scan() {
        let (bm, data) = setup();
        let params = IvfParams {
            clusters: 8,
            sample_ratio: 0.5,
            nprobe: 8,
        };
        let (mut pg, _) =
            PgVectorIvfFlatIndex::build(GeneralizedOptions::default(), params, &bm, &data).unwrap();
        let novel = vec![77.0f32; 16];
        pg.insert(&bm, 123_456, &novel).unwrap();
        let res = pg.search_with_nprobe(&bm, &novel, 1, 8).unwrap();
        assert_eq!(res[0].id, 123_456);
    }
}

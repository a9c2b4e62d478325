//! Engine configuration.
//!
//! Index parameters ([`IvfParams`], [`PqParams`], [`HnswParams`]) and
//! [`BuildTiming`] are shared with the generalized engine via
//! [`vdb_vecmath::params`] so both systems are always configured
//! identically, per the paper's methodology.

pub use vdb_vecmath::params::{BuildTiming, HnswParams, IvfParams, PqParams};

use std::convert::Infallible;
use vdb_gemm::GemmKernel;
use vdb_generalized::GeneralizedOptions;
use vdb_vecmath::parallel::probe_scan;
use vdb_vecmath::{
    DistanceKernel, Kmeans, KmeansFlavor, Metric, Neighbor, TopKCollector, TopKStrategy,
};

/// Engine-wide knobs. Defaults model Faiss; each field is one of the
/// paper's root-cause switches.
#[derive(Clone, Copy, Debug)]
pub struct SpecializedOptions {
    /// Similarity metric.
    pub metric: Metric,
    /// RC#1: kernel for batched assignment (GEMM vs naive).
    pub gemm: GemmKernel,
    /// Scalar distance kernel (optimized vs reference loop).
    pub distance: DistanceKernel,
    /// RC#6: top-k heap strategy.
    pub topk: TopKStrategy,
    /// RC#5: clustering flavor.
    pub kmeans: KmeansFlavor,
    /// Lloyd iterations for IVF training.
    pub kmeans_iters: usize,
    /// Threads for parallel build/search (1 = serial).
    pub threads: usize,
    /// RNG seed for training and level assignment.
    pub seed: u64,
}

impl Default for SpecializedOptions {
    fn default() -> Self {
        SpecializedOptions {
            metric: Metric::L2,
            gemm: GemmKernel::Blas,
            distance: DistanceKernel::Optimized,
            topk: TopKStrategy::SizeK,
            kmeans: KmeansFlavor::FaissStyle,
            kmeans_iters: 10,
            threads: 1,
            seed: 42,
        }
    }
}

/// The IVF_FLAT core's options for this engine: every root-cause fix
/// on, with the engine's own metric, kernels, heap, clustering, threads
/// and seed.
impl From<SpecializedOptions> for GeneralizedOptions {
    fn from(opts: SpecializedOptions) -> GeneralizedOptions {
        GeneralizedOptions {
            metric: opts.metric,
            distance: opts.distance,
            assignment_gemm: Some(opts.gemm),
            topk: opts.topk,
            kmeans: opts.kmeans,
            kmeans_iters: opts.kmeans_iters,
            threads: opts.threads,
            seed: opts.seed,
            ..GeneralizedOptions::all_fixes()
        }
    }
}

impl SpecializedOptions {
    /// The `nprobe` buckets of `quantizer` nearest `query` under
    /// [`metric`](Self::metric), best first.
    pub(crate) fn probes(&self, quantizer: &Kmeans, query: &[f32], nprobe: usize) -> Vec<usize> {
        quantizer
            .nearest_n_by(self.metric, self.distance, query, nprobe)
            .into_iter()
            .map(|(b, _)| b)
            .collect()
    }

    /// RC#3 for every specialized IVF index: scan `batch` (per-query
    /// context and probed buckets) over [`threads`](Self::threads)
    /// workers with `scan(context, bucket, collector, scratch)` and hand
    /// each query's top `k`, in order, to `out`. One thread collects
    /// with the configured [`topk`](Self::topk) strategy; several keep
    /// a size-k local heap each, merged lock-free at the end (Faiss).
    pub(crate) fn probe_search<Q: Sync>(
        &self,
        batch: &[(Q, Vec<usize>)],
        k: usize,
        scan: impl Fn(&Q, usize, &mut TopKCollector, &mut Vec<f32>) + Sync,
        mut out: impl FnMut(Vec<Neighbor>),
    ) {
        let threads = self.threads.max(1);
        let topk = if threads == 1 {
            self.topk
        } else {
            TopKStrategy::SizeK
        };
        let scanned = probe_scan(
            batch,
            k,
            threads,
            |_| (topk.collector(k), Vec::new()),
            |context, b, (collector, scratch)| {
                scan(context, b, collector, scratch);
                Ok::<(), Infallible>(())
            },
            |_, locals| {
                let merged = locals.map(|(collector, _)| collector).reduce(|mut a, b| {
                    a.merge(b);
                    a
                });
                out(merged.map_or_else(Vec::new, TopKCollector::into_sorted));
            },
        );
        if let Err(never) = scanned {
            match never {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_faiss() {
        let o = SpecializedOptions::default();
        assert_eq!(o.gemm, GemmKernel::Blas);
        assert_eq!(o.distance, DistanceKernel::Optimized);
        assert_eq!(o.topk, TopKStrategy::SizeK);
        assert_eq!(o.kmeans, KmeansFlavor::FaissStyle);
        assert_eq!(o.threads, 1);
    }
}

//! Engine configuration.
//!
//! Index parameters ([`IvfParams`], [`PqParams`], [`HnswParams`]) and
//! [`BuildTiming`] are shared with the generalized engine via
//! [`vdb_vecmath::params`] so both systems are always configured
//! identically, per the paper's methodology.

pub use vdb_vecmath::params::{BuildTiming, HnswParams, IvfParams, PqParams};

use vdb_gemm::GemmKernel;
use vdb_generalized::GeneralizedOptions;
use vdb_vecmath::{DistanceKernel, KmeansFlavor, Metric, TopKStrategy};

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

/// The IVF core's options for this engine: every root-cause fix on
/// (the optimized ADC table among them), with the engine's own metric,
/// kernels, heap, clustering, threads and seed.
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

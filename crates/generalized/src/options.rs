//! Generalized-engine configuration: one switch per root cause.

use crate::ivf_pages::ScanScratch;
use vdb_gemm::GemmKernel;
use vdb_storage::sync::OrderedMutex;
use vdb_vecmath::parallel::probe_scan;
use vdb_vecmath::{
    DistanceKernel, KmeansFlavor, Metric, Neighbor, PqTableMode, TopKCollector, TopKSink,
    TopKStrategy,
};

/// How a parallel search combines per-thread results (RC#3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelMode {
    /// PASE: every worker pushes into one shared heap under a mutex.
    /// §VII-D: "directly use a global heap with locks to support
    /// concurrent insertions, which will lead to significant performance
    /// overhead".
    #[default]
    GlobalLockedHeap,
    /// Faiss: per-worker local heaps merged lock-free at the end.
    LocalHeapMerge,
}

/// How HNSW adjacency lists are laid out on pages (RC#4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HnswLayout {
    /// PASE: every vertex's adjacency list starts on a fresh page, each
    /// neighbor entry is a 24-byte `HNSWNeighborTuple` (§VI-C).
    #[default]
    PagePerAdjacency,
    /// Memory-centric fix: adjacency lists packed densely, 8-byte
    /// entries.
    Packed,
}

/// All knobs of the generalized engine. `Default` is PASE as the paper
/// measured it; flipping everything to the "fixed" side makes the engine
/// behave like the future system §IX-C sketches.
#[derive(Clone, Copy, Debug)]
pub struct GeneralizedOptions {
    /// Similarity metric.
    pub metric: Metric,
    /// Scalar distance kernel; PASE's `fvec_L2sqr_ref` is the reference
    /// loop.
    pub distance: DistanceKernel,
    /// RC#1: `None` assigns vectors to centroids one scalar distance at
    /// a time (PASE); `Some(kernel)` batches through a distance table.
    pub assignment_gemm: Option<GemmKernel>,
    /// RC#6: top-k strategy (PASE uses the size-n heap).
    pub topk: TopKStrategy,
    /// RC#5: clustering flavor.
    pub kmeans: KmeansFlavor,
    /// Lloyd iterations.
    pub kmeans_iters: usize,
    /// RC#7: ADC precomputed-table implementation.
    pub pq_table: PqTableMode,
    /// RC#3: parallel-search merge strategy.
    pub parallel: ParallelMode,
    /// Worker threads for search, and for the IVF adding phase when
    /// [`parallel`](Self::parallel) is the fixed `LocalHeapMerge` (PASE
    /// builds are always serial — the paper notes PASE "does not support
    /// parallelism for index construction").
    pub threads: usize,
    /// RC#2: cache vectors/adjacency in direct arrays after build,
    /// bypassing the buffer manager (the "memory-optimized table
    /// design" fix).
    pub memory_optimized: bool,
    /// RC#4: HNSW page layout.
    pub hnsw_layout: HnswLayout,
    /// Seed for training.
    pub seed: u64,
}

impl Default for GeneralizedOptions {
    fn default() -> Self {
        GeneralizedOptions {
            metric: Metric::L2,
            distance: DistanceKernel::Reference,
            assignment_gemm: None,
            topk: TopKStrategy::SizeN,
            kmeans: KmeansFlavor::PaseStyle,
            kmeans_iters: 10,
            pq_table: PqTableMode::Straightforward,
            parallel: ParallelMode::GlobalLockedHeap,
            threads: 1,
            memory_optimized: false,
            hnsw_layout: HnswLayout::PagePerAdjacency,
            seed: 42,
        }
    }
}

impl GeneralizedOptions {
    /// The paper's §IX-C target: every root-cause fix applied. Useful
    /// for the "gap is bridgeable" ablation bench.
    pub fn all_fixes() -> GeneralizedOptions {
        GeneralizedOptions {
            distance: DistanceKernel::Optimized,
            assignment_gemm: Some(GemmKernel::Blas),
            topk: TopKStrategy::SizeK,
            kmeans: KmeansFlavor::FaissStyle,
            pq_table: PqTableMode::Optimized,
            parallel: ParallelMode::LocalHeapMerge,
            memory_optimized: true,
            hnsw_layout: HnswLayout::Packed,
            ..Default::default()
        }
    }

    /// RC#3 for every IVF index built on these options: scan `batch`
    /// (per-query context and probed buckets) over
    /// [`threads`](Self::threads) workers with `scan(context, bucket,
    /// scratch, sink)` and hand each query's top `k`, in order, to `out`.
    /// Each worker's share of a query reuses one scratch. One thread
    /// collects with the configured [`topk`](Self::topk) strategy;
    /// several merge as [`parallel`](Self::parallel) says.
    pub(crate) fn probe_search<Q: Sync, E: Send>(
        &self,
        batch: &[(Q, Vec<usize>)],
        k: usize,
        scan: impl Fn(&Q, usize, &mut ScanScratch, &mut Sink<'_>) -> Result<(), E> + Sync,
        mut out: impl FnMut(Vec<Neighbor>),
    ) -> Result<(), E> {
        let threads = self.threads.max(1);
        // PASE's heaps, one per query, only when several threads share them.
        let locked = threads > 1 && self.parallel == ParallelMode::GlobalLockedHeap;
        let shared: Vec<OrderedMutex<TopKCollector>> = (0..if locked { batch.len() } else { 0 })
            .map(|_| OrderedMutex::engine(self.topk.collector(k)))
            .collect();
        probe_scan(
            batch,
            k,
            threads,
            |q| {
                let sink = match shared.get(q) {
                    Some(heap) => Sink::Shared(heap),
                    None if threads == 1 => Sink::Own(self.topk.collector(k)),
                    None => Sink::Own(TopKStrategy::SizeK.collector(k)),
                };
                (sink, ScanScratch::default())
            },
            |context, b, (sink, scratch)| scan(context, b, scratch, sink),
            |q, sinks| match shared.get(q) {
                // Every worker's sink is a handle on this one heap.
                Some(heap) => {
                    out(std::mem::replace(&mut *heap.lock(), self.topk.collector(k)).into_sorted())
                }
                None => {
                    let own = sinks.filter_map(|(sink, _)| match sink {
                        Sink::Own(collector) => Some(collector),
                        Sink::Shared(_) => None,
                    });
                    let merged = own.reduce(|mut a, b| {
                        a.merge(b);
                        a
                    });
                    out(merged.map_or_else(Vec::new, TopKCollector::into_sorted));
                }
            },
        )
    }
}

/// Where one probe-scan worker pushes its candidates (RC#3).
pub(crate) enum Sink<'a> {
    /// A collector of its own: the whole query's when one thread scans
    /// it, else a size-k local heap merged at the end
    /// ([`ParallelMode::LocalHeapMerge`]).
    Own(TopKCollector),
    /// PASE's one collector per query under a mutex: every candidate
    /// takes the lock ([`ParallelMode::GlobalLockedHeap`]).
    Shared(&'a OrderedMutex<TopKCollector>),
}

impl TopKSink for Sink<'_> {
    /// The collector's own threshold; a shared heap never prunes, so
    /// every candidate still takes the lock.
    #[inline]
    fn threshold(&self) -> f32 {
        match self {
            Sink::Own(collector) => collector.threshold(),
            Sink::Shared(_) => f32::INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, id: u64, distance: f32) {
        match self {
            Sink::Own(collector) => collector.push(id, distance),
            // One lock acquisition per candidate — the contention §VII-D blames.
            Sink::Shared(heap) => heap.lock().push(id, distance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pase_shaped() {
        let o = GeneralizedOptions::default();
        assert_eq!(o.distance, DistanceKernel::Reference);
        assert!(o.assignment_gemm.is_none());
        assert_eq!(o.topk, TopKStrategy::SizeN);
        assert_eq!(o.kmeans, KmeansFlavor::PaseStyle);
        assert_eq!(o.pq_table, PqTableMode::Straightforward);
        assert_eq!(o.parallel, ParallelMode::GlobalLockedHeap);
        assert!(!o.memory_optimized);
        assert_eq!(o.hnsw_layout, HnswLayout::PagePerAdjacency);
    }

    #[test]
    fn all_fixes_flips_every_root_cause() {
        let o = GeneralizedOptions::all_fixes();
        assert_eq!(o.distance, DistanceKernel::Optimized);
        assert!(o.assignment_gemm.is_some());
        assert_eq!(o.topk, TopKStrategy::SizeK);
        assert_eq!(o.kmeans, KmeansFlavor::FaissStyle);
        assert_eq!(o.pq_table, PqTableMode::Optimized);
        assert_eq!(o.parallel, ParallelMode::LocalHeapMerge);
        assert!(o.memory_optimized);
        assert_eq!(o.hnsw_layout, HnswLayout::Packed);
    }
}

//! The specialized vector engine — this repository's Faiss.
//!
//! A purpose-built, in-memory vector search library: vectors live in flat
//! arrays addressed by integer id, and no search reads a page, takes a
//! buffer pin or follows a tuple pointer. [`IvfFlatIndex`] is the
//! generalized engine's IVF_FLAT core ([`vdb_generalized::ivf_flat`])
//! over resident buckets with every root-cause fix on, so this crate
//! depends on `vdb-generalized`, but its IVF_FLAT never touches the
//! storage layer. Where the paper credits Faiss with a specific
//! optimization, this engine implements it and exposes the switch:
//!
//! * **RC#1** — the IVF adding phase assigns vectors to centroids with a
//!   blocked GEMM distance table ([`vdb_gemm`]); [`SpecializedOptions::gemm`]
//!   can flip to the naive kernel to reproduce Figures 4 and 6.
//! * **RC#3** — index build and search fan out over threads; parallel
//!   search merges per-thread *local* heaps instead of locking a shared
//!   one (Figures 9 and 18).
//! * **RC#5** — clustering defaults to the Faiss-style k-means flavor; the
//!   Faiss* centroid transplant of Figure 15 is [`IvfFlatIndex::with_centroids`].
//! * **RC#6** — top-k uses a bounded size-k heap.
//! * **RC#7** — IVF_PQ queries use the optimized precomputed table.
//!
//! The three index types are the three the paper evaluates: [`IvfFlatIndex`],
//! [`IvfPqIndex`] and [`HnswIndex`], plus a brute-force [`FlatIndex`]
//! baseline and the survey's fourth quantization index, [`IvfSq8Index`]
//! (§II-B lists IVF_SQ8 alongside the others), as an extension.

pub mod flat;
pub mod hnsw;
pub mod ivf_flat;
pub mod ivf_pq;
pub mod ivf_sq8;
pub mod options;

pub use flat::FlatIndex;
pub use hnsw::HnswIndex;
pub use ivf_flat::IvfFlatIndex;
pub use ivf_pq::IvfPqIndex;
pub use ivf_sq8::IvfSq8Index;
pub use options::{BuildTiming, HnswParams, IvfParams, PqParams, SpecializedOptions};
pub use vdb_filter::{FilterStrategy, SelectionBitmap};
pub use vdb_vecmath::Neighbor;

/// Common interface over the specialized indexes.
pub trait VectorIndex {
    /// Top-k search for a single query.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;
    /// Number of indexed vectors.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// In-memory footprint in bytes (for the Figure 11–13 comparisons).
    fn size_bytes(&self) -> usize;
    /// Hybrid (filtered) top-k: only ids set in `filter` may appear in
    /// the result.
    ///
    /// The default implementation handles both strategies with the
    /// shared adaptive k-expansion loop over [`search`](Self::search) —
    /// approximate for approximate indexes ([`HnswIndex`], [`IvfPqIndex`]
    /// and [`IvfSq8Index`] use it; for HNSW a larger `k'` also widens
    /// the search beam). [`FlatIndex`] and [`IvfFlatIndex`] override both
    /// arms with one bitmap-qualified scan: of every row or list for
    /// pre-filter (exact), and for IVF_FLAT post-filter of the `nprobe`
    /// probed lists, whose candidates a larger `k'` would not change.
    fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
    ) -> Vec<Neighbor> {
        let _ = strategy;
        vdb_filter::post_filter_search(
            k,
            self.len(),
            vdb_filter::PostFilterParams::default(),
            |id| filter.contains(id),
            |k_prime| self.search(query, k_prime),
        )
    }
}

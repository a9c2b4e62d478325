//! The generalized vector engine — this repository's PASE.
//!
//! The same three indexes as [`vdb_specialized`] (IVF_FLAT, IVF_PQ,
//! HNSW), but implemented the way a PostgreSQL extension must implement
//! them (paper §II-E): vectors live as tuples in heap pages, indexes
//! follow the page structure, and every access goes through the buffer
//! manager. By default this engine exhibits all seven of the paper's
//! root causes; each is an [`options::GeneralizedOptions`] switch so the
//! ablation experiments can turn them off one at a time and watch the
//! gap close (the paper's §IX-C claim that the gap is implementation,
//! not fundamental):
//!
//! | Root cause | Default (PASE behaviour) | Fix switch |
//! |---|---|---|
//! | RC#1 | per-vector scalar assignment in the IVF adding phase | `assignment_gemm: Some(kernel)` |
//! | RC#2 | every vector/neighbor read via buffer manager | `memory_optimized: true` caches direct arrays |
//! | RC#3 | no build parallelism; global locked heap in parallel search | `parallel: LocalHeapMerge`, `threads > 1` |
//! | RC#4 | one page per HNSW adjacency list, 24-byte neighbor entries | `hnsw_layout: Packed` |
//! | RC#5 | PASE-flavor k-means | `kmeans: FaissStyle` |
//! | RC#6 | size-*n* top-k heap | `topk: SizeK` |
//! | RC#7 | straightforward per-query PQ table | `pq_table: Optimized` |

pub mod hnsw;
pub mod index_am;
pub mod ivf_flat;
mod ivf_pages;
pub mod ivf_pq;
pub mod options;
pub mod pgvector;

pub use hnsw::PaseHnswIndex;
pub use index_am::PaseIndex;
pub use ivf_flat::PaseIvfFlatIndex;
pub use ivf_pq::PaseIvfPqIndex;
pub use options::{GeneralizedOptions, HnswLayout, ParallelMode};
pub use pgvector::PgVectorIvfFlatIndex;
pub use vdb_filter::{FilterStrategy, SelectionBitmap};
pub use vdb_vecmath::Neighbor;

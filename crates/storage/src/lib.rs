//! A PostgreSQL-shaped storage engine, built to measure what that shape
//! costs vector workloads.
//!
//! PASE (paper §II-E) inherits PostgreSQL's disk-oriented architecture:
//! fixed-size slotted pages, a shared buffer pool with page indirection,
//! heap tables addressed by `(block, offset)` tuple identifiers, and
//! index access methods that must speak all of the above. The paper's
//! **RC#2** (buffer-manager overhead on every access) and **RC#4**
//! (page-structure space amplification) are properties of this substrate,
//! so the generalized engine in `vdb-generalized` is built strictly on
//! top of it.
//!
//! The "disk" is an in-memory segment store ([`disk::DiskManager`]) — the
//! paper explicitly rules out I/O as a factor by reproducing its results
//! on tmpfs, and we bake that in. What remains is exactly the overhead
//! under study: hash lookup, pin/unpin, latch, line-pointer chase and
//! tuple copy on every access.
//!
//! | Module | PostgreSQL analogue |
//! |---|---|
//! | [`page`] | `bufpage.h` slotted pages with line pointers |
//! | [`disk`] | `smgr`/`md.c` segment storage (tmpfs-resident) |
//! | [`buffer`] | `bufmgr.c` shared buffer pool with clock sweep |
//! | [`heap`] | heap access method (`heapam`) |
//! | [`btree`] | B-tree access method (`nbtree`) |
//! | [`tid`] | `ItemPointerData` |
//! | [`catalog`] | `pg_class`, minimally |

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod disk;
pub mod heap;
pub mod lockorder;
pub mod model;
pub mod page;
pub mod sync;
pub mod tid;
pub mod tuple;

pub use btree::BTree;
pub use buffer::{BufferManager, BufferPoolMode, BufferStats, ShardStats};
pub use catalog::{Catalog, RelationInfo};
pub use disk::{DiskManager, RelId};
pub use heap::HeapTable;
pub use page::{Page, PageSize};
pub use tid::Tid;

use std::fmt;

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Every buffer in the pool is pinned; nothing can be evicted.
    BufferPoolExhausted,
    /// A tuple is larger than the usable space of an empty page.
    TupleTooLarge {
        /// Bytes requested.
        need: usize,
        /// Bytes a fresh page can hold.
        available: usize,
    },
    /// A TID pointed at a nonexistent block or line pointer.
    InvalidTid(Tid),
    /// A block number beyond the relation's extent.
    InvalidBlock(u32),
    /// Unknown relation.
    UnknownRelation(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::BufferPoolExhausted => {
                write!(f, "buffer pool exhausted: all pages pinned")
            }
            StorageError::TupleTooLarge { need, available } => {
                write!(
                    f,
                    "tuple of {need} bytes exceeds empty-page capacity {available}"
                )
            }
            StorageError::InvalidTid(tid) => write!(f, "invalid tuple id {tid:?}"),
            StorageError::InvalidBlock(b) => write!(f, "invalid block number {b}"),
            StorageError::UnknownRelation(name) => write!(f, "unknown relation {name:?}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Storage-layer result type.
pub type Result<T> = std::result::Result<T, StorageError>;

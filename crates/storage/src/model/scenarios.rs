//! Executable concurrency models of the buffer-pool protocol.
//!
//! Positive models drive the *real* [`BufferManager`] at model scale
//! (2 threads, 2 frames, 3 blocks) and assert the protocol invariants
//! the pool documents: pinned frames are never evicted, a reader never
//! observes another block's bytes (latch-as-I/O-marker + tag
//! revalidation), dirty victims are written back before unmap, and the
//! stats counters never perturb any of it. Under `--cfg vdb_loom` the
//! pool's locks and protocol atomics are instrumented and the explorer
//! walks every (preemption-bounded) interleaving; without the cfg the
//! same functions run single-schedule as smoke tests.
//!
//! The `mini_*` replicas model the same protocols directly on
//! [`super::sync`] types — always instrumented, whatever the cfg — with
//! a switch that seeds the historical bug (skipped tag revalidation
//! after a latch wait). The negative tests in
//! `crates/storage/tests/loom_pool.rs` prove the explorer actually
//! catches them.
//!
//! Run every scenario with a *bounded* [`Config::max_preemptions`]
//! (2 suffices for the seeded bugs): the revalidate-and-retry loops
//! are livelocks under adversarial scheduling, so the unbounded
//! schedule tree is infinite and exhaustive exploration would only
//! stop at the step budget.

use super::sync as msync;
use super::thread as mthread;
use super::{explore, Config};
use crate::buffer::BufferManager;
use crate::disk::DiskManager;
use crate::page::{Page, PageSize};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Model scale: threads racing in each scenario.
pub const MODEL_THREADS: usize = 2;
/// Model scale: buffer-pool frames (forces eviction).
pub const MODEL_FRAMES: usize = 2;
/// Model scale: distinct blocks touched.
pub const MODEL_BLOCKS: u32 = 3;

/// A pool at model scale over an in-memory disk, with `MODEL_BLOCKS`
/// pages whose first item's first byte encodes the block number.
fn model_pool() -> (Arc<DiskManager>, crate::disk::RelId, Arc<BufferManager>) {
    let disk = Arc::new(DiskManager::new(PageSize::Size4K));
    let rel = disk.create_relation();
    let bm = Arc::new(BufferManager::sharded_with_shards(
        Arc::clone(&disk),
        MODEL_FRAMES,
        1,
    ));
    for b in 0..MODEL_BLOCKS {
        // Failure here is a harness bug the explorer should surface.
        // PANIC-OK: model setup over an in-memory disk.
        bm.new_page(rel, 0, |p| {
            p.add_item(&[b as u8; 4]);
        })
        .expect("model setup: new_page");
    }
    (disk, rel, bm)
}

/// First byte of the first item on a page — the block fingerprint the
/// scenarios assert on.
fn fingerprint(p: &Page) -> Option<u8> {
    p.items().next().map(|(_, item)| item[0])
}

/// Protocol (a), core path: concurrent pin/unpin/evict with capacity
/// pressure. Two threads read overlapping block sets through a
/// 2-frame, 1-shard pool, so every schedule exercises eviction, tag
/// revalidation after latch waits, and the I/O-in-progress marker.
/// Every read must observe its own block's bytes, and the disk must be
/// coherent afterwards.
pub fn pool_pin_evict_latch(cfg: Config) -> usize {
    explore(cfg, || {
        let (disk, rel, bm) = model_pool();
        let reads = [[0u32, 1], [1u32, 2]];
        let workers: Vec<_> = (0..MODEL_THREADS)
            .map(|t| {
                let bm = Arc::clone(&bm);
                mthread::spawn(move || {
                    for &b in &reads[t] {
                        // PANIC-OK: model invariant checks; the explorer
                        // reports them as schedule counterexamples.
                        let seen = bm
                            .with_page(rel, b, fingerprint)
                            .expect("model pin must succeed");
                        assert_eq!(seen, Some(b as u8), "read of block {b} saw foreign bytes");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        // PANIC-OK: post-join coherence audit of the model run.
        bm.flush_all().expect("model flush");
        for b in 0..MODEL_BLOCKS {
            let bytes = disk.read_block(rel, b).expect("model disk read");
            let page = Page::from_bytes(bytes);
            assert_eq!(
                fingerprint(&page),
                Some(b as u8),
                "block {b} corrupted on disk after concurrent pins"
            );
        }
        let stats = bm.stats();
        assert!(
            stats.misses >= u64::from(MODEL_BLOCKS),
            "every block misses at least once"
        );
    })
}

/// Protocol (a), dirty-victim path: one thread writes block 0 while
/// the other forces evictions by reading blocks 1 and 2 through the
/// 2-frame pool. Whatever the interleaving, the write must survive —
/// a dirty victim is flushed before its frame is unmapped.
pub fn pool_dirty_writeback(cfg: Config) -> usize {
    explore(cfg, || {
        let (disk, rel, bm) = model_pool();
        let writer = {
            let bm = Arc::clone(&bm);
            mthread::spawn(move || {
                let wrote = bm.with_page_mut(rel, 0, |p| {
                    // PANIC-OK: model invariant checks (see above).
                    let (offno, _) = p.items().next().expect("setup wrote an item");
                    p.item_mut(offno).expect("item readable")[0] = 0x7f;
                });
                // PANIC-OK: model invariant checks (see above).
                wrote.expect("model write pin");
            })
        };
        let reader = {
            let bm = Arc::clone(&bm);
            mthread::spawn(move || {
                for b in [1u32, 2] {
                    // PANIC-OK: model invariant checks (see above).
                    let seen = bm.with_page(rel, b, fingerprint).expect("model read pin");
                    assert_eq!(seen, Some(b as u8), "reader saw foreign bytes");
                }
            })
        };
        writer.join();
        reader.join();
        // PANIC-OK: post-join coherence audit of the model run.
        bm.flush_all().expect("model flush");
        let bytes = disk.read_block(rel, 0).expect("model disk read");
        assert_eq!(
            fingerprint(&Page::from_bytes(bytes)),
            Some(0x7f),
            "dirty write to block 0 was lost in an eviction"
        );
    })
}

/// Protocol (a), stats independence: both threads hammer the same
/// block. After the first pin faults it in, every access is a hit with
/// no eviction pressure — the Relaxed stats counters must not perturb
/// the content either way.
pub fn pool_stats_independent(cfg: Config) -> usize {
    explore(cfg, || {
        let (_disk, rel, bm) = model_pool();
        let workers: Vec<_> = (0..MODEL_THREADS)
            .map(|_| {
                let bm = Arc::clone(&bm);
                mthread::spawn(move || {
                    for _ in 0..2 {
                        // PANIC-OK: model invariant checks (see above).
                        let seen = bm.with_page(rel, 0, fingerprint).expect("model pin");
                        assert_eq!(seen, Some(0), "stats path corrupted a read");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let stats = bm.stats();
        assert!(
            stats.hits + stats.misses >= 2 * MODEL_THREADS as u64,
            "every pin is counted at least once"
        );
    })
}

// ---- seeded-bug replica: latch-as-I/O-marker + tag revalidation --------

/// Sentinel tag meaning "I/O in progress" — the marker waiters must
/// revalidate against, exactly like `TAG_NONE` in the real pool.
const MINI_NONE: u64 = u64::MAX;

/// Single-frame replica of the pool's frame protocol, built directly
/// on the instrumented model primitives so it explores under every
/// cfg. `tag` says which block the frame holds; `content` stands in
/// for the frame bytes (it stores the owning block's number).
struct MiniFrame {
    tag: msync::AtomicU64,
    content: msync::RwLock<u64>,
}

/// "Evict + load": claim the frame for `block` under the write latch,
/// with the tag parked on the I/O marker until the load lands.
fn mini_load(f: &MiniFrame, block: u64) {
    let mut g = f.content.write();
    f.tag.store(MINI_NONE, Ordering::Release);
    *g = block; // the "disk read"
    f.tag.store(block, Ordering::Release);
}

/// Read `block` through the frame. `revalidate` is the protocol switch
/// the negative test flips off: after waiting for the read latch, the
/// tag may have moved — a correct reader re-checks and retries, a
/// buggy one serves whatever the frame now holds.
fn mini_read(f: &MiniFrame, block: u64, revalidate: bool) {
    loop {
        if f.tag.load(Ordering::Acquire) != block {
            mini_load(f, block);
        }
        let g = f.content.read();
        if revalidate && f.tag.load(Ordering::Acquire) != block {
            drop(g);
            continue;
        }
        assert_eq!(*g, block, "frame content belongs to another block");
        return;
    }
}

/// Model over `MiniFrame`: two threads read different blocks through
/// one frame. With `revalidate` the protocol holds on every schedule;
/// without it the explorer finds the interleaving where a reader
/// serves a stolen frame (`#[should_panic]` in the negative test).
pub fn mini_pool_model(cfg: Config, revalidate: bool) -> usize {
    explore(cfg, move || {
        let frame = Arc::new(MiniFrame {
            tag: msync::AtomicU64::new(MINI_NONE),
            content: msync::RwLock::new(MINI_NONE),
        });
        let workers: Vec<_> = (0..MODEL_THREADS as u64)
            .map(|b| {
                let frame = Arc::clone(&frame);
                mthread::spawn(move || mini_read(&frame, b, revalidate))
            })
            .collect();
        for w in workers {
            w.join();
        }
    })
}

//! Property tests for the slotted page under `strict-invariants`.
//!
//! With the feature on, every `add_item`/`delete_item`/`compact` runs
//! the structural audit (header order, MAXALIGN, tuple disjointness),
//! so these tests double as fuzzers for the audit itself: any sequence
//! of operations that corrupts the layout panics inside the operation
//! that caused it rather than failing the end-state assertions.

#![cfg(feature = "strict-invariants")]

use vdb_storage::page::{stamp_checksum, verify_checksum, Page, PageSize};
use vdb_vecmath::rng::{cases, Rng};

/// One page operation in a generated workload.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>),
    /// Delete the i-th currently-live offset (modulo live count).
    Delete(usize),
    Compact,
}

fn random_bytes(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<u8> {
    rng.vec(len, |r| r.next_u64() as u8)
}

/// One of four arms, uniformly. Insert is listed twice to bias
/// workloads toward fuller pages.
fn random_op(rng: &mut Rng) -> Op {
    match rng.range_usize(0..4) {
        0 => Op::Insert(random_bytes(rng, 1..200)),
        1 => Op::Insert(random_bytes(rng, 1..40)),
        2 => Op::Delete(rng.range_usize(0..64)),
        _ => Op::Compact,
    }
}

/// Arbitrary insert/delete/compact interleavings: live tuples always
/// read back exactly, dead offsets stay dead, and every intermediate
/// state passes the audit (implicitly — the audited operations would
/// panic otherwise).
#[test]
fn prop_insert_delete_compact_round_trip() {
    cases("prop_insert_delete_compact_round_trip", 256, |rng| {
        let ops = rng.vec(1..60, random_op);
        let size = rng.pick(&[PageSize::Size4K, PageSize::Size8K]);
        let mut page = Page::new(size);
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        let mut dead: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(data) => {
                    if let Some(off) = page.add_item(&data) {
                        live.push((off, data));
                    }
                }
                Op::Delete(i) => {
                    if !live.is_empty() {
                        let (off, _) = live.remove(i % live.len());
                        assert!(page.delete_item(off));
                        dead.push(off);
                    }
                }
                Op::Compact => page.compact(),
            }
            for (off, data) in &live {
                assert_eq!(page.item(*off), Some(&data[..]));
            }
            for off in &dead {
                assert!(page.item(*off).is_none());
            }
        }
    });
}

/// Page images survive a byte-level round trip through `from_bytes`
/// (which re-audits), and a stamped checksum detects any single-byte
/// corruption outside the checksum slot.
#[test]
fn prop_from_bytes_and_checksum() {
    cases("prop_from_bytes_and_checksum", 256, |rng| {
        let tuples = rng.vec(1..20, |r| random_bytes(r, 1..100));
        let flip_at = rng.range_usize(16..4096);
        let mut page = Page::new(PageSize::Size4K);
        for t in &tuples {
            let _ = page.add_item(t);
        }
        let mut raw = page.bytes().to_vec();
        stamp_checksum(&mut raw);
        assert!(verify_checksum(&raw));
        let reread = Page::from_bytes(raw.clone().into_boxed_slice());
        assert_eq!(reread.item_count(), page.item_count());

        let mut corrupted = raw;
        corrupted[flip_at] ^= 0x01;
        assert!(!verify_checksum(&corrupted), "flip at {flip_at} undetected");
    });
}

/// The storage-order visit (`item_ranges`) over arbitrary
/// insert/delete/compact interleavings: it yields exactly the live
/// `(offno, bytes)` items of `items()`, each once, in ascending tuple
/// offset. `compact` slides live tuples up in line-pointer order, so the
/// order survives it.
#[test]
fn prop_storage_order_visits_live_items_by_ascending_offset() {
    cases(
        "prop_storage_order_visits_live_items_by_ascending_offset",
        256,
        |rng| {
            let ops = rng.vec(1..60, random_op);
            let size = rng.pick(&[PageSize::Size4K, PageSize::Size8K]);
            let mut page = Page::new(size);
            let mut live: Vec<u16> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(data) => live.extend(page.add_item(&data)),
                    Op::Delete(i) => {
                        if !live.is_empty() {
                            assert!(page.delete_item(live.remove(i % live.len())));
                        }
                    }
                    Op::Compact => page.compact(),
                }
                let visited: Vec<(u16, std::ops::Range<usize>)> = page.item_ranges().collect();
                assert!(
                    visited.windows(2).all(|w| w[0].1.end <= w[1].1.start),
                    "not in ascending, disjoint offsets: {visited:?}"
                );
                let mut by_offno: Vec<(u16, &[u8])> = visited
                    .iter()
                    .map(|(off, r)| (*off, &page.bytes()[r.clone()]))
                    .collect();
                by_offno.sort_by_key(|&(off, _)| off);
                let items: Vec<(u16, &[u8])> = page.items().collect();
                assert_eq!(by_offno, items);
            }
        },
    );
}

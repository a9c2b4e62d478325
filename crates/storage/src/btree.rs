//! A B-tree over 8 KB pages: PostgreSQL's `nbtree`, cut down to what a
//! single-writer table index needs.
//!
//! Every page is read and written through the [`BufferManager`]
//! (`with_page`, `with_page_mut`, `new_page`), so a tree walk costs
//! pins like any other access path. A node lives in its page's special
//! space; the slotted area stays empty:
//!
//! ```text
//! +--------+--------+---------+----------+---------------------------------+
//! | level  | count  | sibling | high key | entries, ascending              |
//! | u16    | u16    | u32     | u128     | leaf: entry (16 B)              |
//! |        |        |         |          | inner: separator + child (20 B) |
//! +--------+--------+---------+----------+---------------------------------+
//! ```
//!
//! An *entry* is one `u128`: an order-preserving `u64` key (see
//! [`key_from_i64`]) in the high half and the row's [`Tid::pack`] in
//! the low half. Entries therefore sort by key, then by heap position,
//! and the duplicates of a key are distinct entries, newest last. The
//! tree is a set of entries.
//!
//! Leaves are level 0 and linked left to right by `sibling`, as are the
//! pages of every inner level. A page's high key bounds its entries
//! from above (`u128::MAX` on the rightmost page of a level). Inner
//! entry `i` leads to the child holding entries in
//! `[separator_i, separator_{i+1})`; entry 0's separator is the page's
//! lower bound and is never compared, as in nbtree's "minus infinity"
//! item.
//!
//! Deletes free nothing and merge no pages, as nbtree does until
//! VACUUM: a separator, once posted, bounds its child for the tree's
//! lifetime, so a descent never has to move right. Writers take no
//! latch beyond the page latches because the tree's owner serialises
//! them (`&mut self`); readers (`&self`) never overlap a writer.

use crate::buffer::BufferManager;
use crate::disk::RelId;
use crate::tid::Tid;
use crate::Result;
use std::ops::ControlFlow;

/// Bytes of the page left to the slotted header (16) and alignment; the
/// rest is the node.
const PAGE_PREFIX: usize = 32;
const NODE_HEADER: usize = 24;
const LEAF_ENTRY: usize = 16;
const INNER_ENTRY: usize = 20;
const OFF_LEVEL: usize = 0;
const OFF_COUNT: usize = 2;
const OFF_SIBLING: usize = 4;
const OFF_HIGH: usize = 8;
/// `sibling` of the rightmost page of a level.
const NO_SIBLING: u32 = u32::MAX;
/// High key of the rightmost page of a level; no entry reaches it
/// (the low half of an entry is a 48-bit packed TID).
const HIGH_INF: u128 = u128::MAX;
/// Percent of a page a bottom-up build fills (nbtree's leaf default,
/// `BTREE_DEFAULT_FILLFACTOR`), leaving room for inserts before a split.
const BUILD_FILL_PCT: usize = 90;

/// The order-preserving `u64` encoding of an `i64`: the sign bit is
/// flipped, so `a < b` exactly when `key_from_i64(a) < key_from_i64(b)`.
pub fn key_from_i64(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

fn entry(key: u64, tid: Tid) -> u128 {
    (u128::from(key) << 64) | u128::from(tid.pack())
}

/// One entry of a tree, as a range walk found it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// The entry's key.
    pub key: u64,
    /// The row it points at.
    pub tid: Tid,
    /// The leaf the walk found it on (where [`BTree::delete_hit`]
    /// starts looking).
    leaf: u32,
}

impl Hit {
    fn new(e: u128, leaf: u32) -> Hit {
        Hit {
            key: (e >> 64) as u64,
            tid: Tid::unpack(e as u64),
            leaf,
        }
    }
}

/// A node entry in memory: the leaf entry or separator, and the child
/// block (unused on leaves).
type Slot = (u128, u32);

/// A B-tree of `(key, Tid)` entries in its own relation.
pub struct BTree {
    rel: RelId,
    root: u32,
    /// Levels, leaves included; 0 while the tree has no page.
    height: usize,
    leaf_cap: usize,
    inner_cap: usize,
}

impl BTree {
    /// An empty tree in a new relation on the buffer manager's disk. No
    /// page exists until the first entry arrives.
    pub fn create(bm: &BufferManager) -> BTree {
        let node = bm.page_size().bytes() - PAGE_PREFIX - NODE_HEADER;
        BTree {
            rel: bm.disk().create_relation(),
            root: 0,
            height: 0,
            leaf_cap: node / LEAF_ENTRY,
            inner_cap: node / INNER_ENTRY,
        }
    }

    /// Levels from the root to the leaves (1 for a lone leaf, 0 for an
    /// empty tree): the pins a point lookup takes.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Add `entries`. An empty tree is built bottom-up in one pass over
    /// the sorted entries (pages written left to right, each level filled
    /// to `BUILD_FILL_PCT`); a non-empty one takes them one
    /// [`insert`](Self::insert) at a time.
    pub fn extend(&mut self, bm: &BufferManager, entries: &[(u64, Tid)]) -> Result<()> {
        if self.height > 0 {
            for &(key, tid) in entries {
                self.insert(bm, key, tid)?;
            }
            return Ok(());
        }
        let mut level: Vec<Slot> = entries.iter().map(|&(k, t)| (entry(k, t), 0)).collect();
        level.sort_unstable();
        level.dedup();
        let mut depth = 0;
        while !level.is_empty() {
            let per_page = (self.cap(depth) * BUILD_FILL_PCT / 100).max(2);
            let mut built: Vec<Slot> = Vec::with_capacity(level.len() / per_page + 1);
            let mut pages = level.chunks(per_page).peekable();
            while let Some(page) = pages.next() {
                let high = pages.peek().map_or(HIGH_INF, |next| next[0].0);
                let blk = self.new_node(bm, depth, NO_SIBLING, high, page)?;
                if let Some(&(_, left)) = built.last() {
                    bm.with_page_mut(self.rel, left, |p| {
                        write_u32(p.special_mut(), OFF_SIBLING, blk)
                    })?;
                }
                built.push((page[0].0, blk));
            }
            depth += 1;
            if built.len() == 1 {
                self.root = built[0].1;
                self.height = depth;
                break;
            }
            level = built;
        }
        Ok(())
    }

    /// Add one entry; `false` if the tree already holds it. A full page
    /// splits in half and posts the right half's first entry to its
    /// parent, splitting upwards as far as needed (a root split adds a
    /// level).
    pub fn insert(&mut self, bm: &BufferManager, key: u64, tid: Tid) -> Result<bool> {
        let x = entry(key, tid);
        if self.height == 0 {
            self.root = self.new_node(bm, 0, NO_SIBLING, HIGH_INF, &[(x, 0)])?;
            self.height = 1;
            return Ok(true);
        }
        let mut path = Vec::with_capacity(self.height);
        let leaf = self.descend(bm, x, Some(&mut path))?;
        let cap = self.leaf_cap;
        let placed = bm.with_page_mut(self.rel, leaf, |p| {
            let sp = p.special_mut();
            let n = count(sp);
            let pos = partition(0, n, |i| slot_at(sp, 0, i).0 < x);
            if pos < n && slot_at(sp, 0, pos).0 == x {
                return None;
            }
            Some(place(sp, 0, pos, (x, 0), cap))
        })?;
        let Some(mut full) = placed else {
            return Ok(false);
        };
        let mut depth = 0;
        let mut blk = leaf;
        while let Some(node) = full {
            let (sep, right) = self.split(bm, blk, depth, node)?;
            depth += 1;
            full = match path.pop() {
                Some(parent) => {
                    blk = parent;
                    let cap = self.inner_cap;
                    bm.with_page_mut(self.rel, parent, |p| {
                        let sp = p.special_mut();
                        let pos = partition(1, count(sp), |i| slot_at(sp, depth, i).0 <= sep);
                        place(sp, depth, pos, (sep, right), cap)
                    })?
                }
                None => {
                    let slots = [(0, self.root), (sep, right)];
                    self.root = self.new_node(bm, depth, NO_SIBLING, HIGH_INF, &slots)?;
                    self.height += 1;
                    None
                }
            };
        }
        Ok(true)
    }

    /// Remove an entry a [`range`](Self::range) walk found, starting at
    /// its leaf: one pin when no split has moved it since (a split only
    /// moves entries right, so the search walks right from there).
    /// `false` if the tree no longer holds it.
    pub fn delete_hit(&mut self, bm: &BufferManager, hit: Hit) -> Result<bool> {
        let x = entry(hit.key, hit.tid);
        let mut leaf = hit.leaf;
        loop {
            let next = bm.with_page_mut(self.rel, leaf, |p| {
                let sp = p.special_mut();
                let n = count(sp);
                let pos = partition(0, n, |i| slot_at(sp, 0, i).0 < x);
                if pos < n && slot_at(sp, 0, pos).0 == x {
                    remove_at(sp, 0, pos);
                    return ControlFlow::Break(true);
                }
                let sibling = read_u32(sp, OFF_SIBLING);
                if x >= read_u128(sp, OFF_HIGH) && sibling != NO_SIBLING {
                    ControlFlow::Continue(sibling)
                } else {
                    ControlFlow::Break(false)
                }
            })?;
            match next {
                ControlFlow::Continue(sibling) => leaf = sibling,
                ControlFlow::Break(found) => return Ok(found),
            }
        }
    }

    /// Call `f` on every entry whose key lies in `lo..=hi`, in entry
    /// order, until it breaks. Each leaf's hits are copied out and its
    /// pin released before `f` sees them, so `f` may enter the buffer
    /// manager itself.
    pub fn range(
        &self,
        bm: &BufferManager,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(Hit) -> ControlFlow<()>,
    ) -> Result<()> {
        if self.height == 0 || lo > hi {
            return Ok(());
        }
        let from = entry(lo, Tid::unpack(0));
        let to = (u128::from(hi) << 64) | u128::from(u64::MAX);
        let mut leaf = self.descend(bm, from, None)?;
        let mut hits: Vec<u128> = Vec::new();
        loop {
            hits.clear();
            let next = bm.with_page(self.rel, leaf, |p| {
                let sp = p.special();
                let n = count(sp);
                let start = partition(0, n, |i| slot_at(sp, 0, i).0 < from);
                hits.extend(
                    (start..n)
                        .map(|i| slot_at(sp, 0, i).0)
                        .take_while(|&e| e <= to),
                );
                let sibling = read_u32(sp, OFF_SIBLING);
                (read_u128(sp, OFF_HIGH) <= to && sibling != NO_SIBLING).then_some(sibling)
            })?;
            for &e in &hits {
                if f(Hit::new(e, leaf)).is_break() {
                    return Ok(());
                }
            }
            match next {
                Some(sibling) => leaf = sibling,
                None => return Ok(()),
            }
        }
    }

    /// The newest entry of `key` (its highest TID), if any.
    pub fn last(&self, bm: &BufferManager, key: u64) -> Result<Option<Hit>> {
        let mut last = None;
        self.range(bm, key, key, |hit| {
            last = Some(hit);
            ControlFlow::Continue(())
        })?;
        Ok(last)
    }

    fn cap(&self, depth: usize) -> usize {
        if depth == 0 {
            self.leaf_cap
        } else {
            self.inner_cap
        }
    }

    /// The leaf whose range holds `x`, pushing the inner pages passed on
    /// the way onto `path` (root first).
    fn descend(&self, bm: &BufferManager, x: u128, mut path: Option<&mut Vec<u32>>) -> Result<u32> {
        let mut blk = self.root;
        for depth in (1..self.height).rev() {
            if let Some(path) = path.as_deref_mut() {
                path.push(blk);
            }
            blk = bm.with_page(self.rel, blk, |p| {
                let sp = p.special();
                let c = partition(1, count(sp), |i| slot_at(sp, depth, i).0 <= x) - 1;
                slot_at(sp, depth, c).1
            })?;
        }
        Ok(blk)
    }

    /// A new page at `depth` holding `slots`.
    fn new_node(
        &self,
        bm: &BufferManager,
        depth: usize,
        sibling: u32,
        high: u128,
        slots: &[Slot],
    ) -> Result<u32> {
        let special = bm.page_size().bytes() - PAGE_PREFIX;
        let (blk, ()) = bm.new_page(self.rel, special, |p| {
            write_node(p.special_mut(), depth, sibling, high, slots)
        })?;
        Ok(blk)
    }

    /// Split the full page `blk`, whose entries plus the new one are
    /// `node`, moving the upper half to a new right sibling. Returns
    /// the separator to post to the parent and the new page.
    fn split(&self, bm: &BufferManager, blk: u32, depth: usize, node: Full) -> Result<(u128, u32)> {
        let (slots, sibling, high) = node;
        let mid = slots.len() / 2;
        let sep = slots[mid].0;
        let right = self.new_node(bm, depth, sibling, high, &slots[mid..])?;
        bm.with_page_mut(self.rel, blk, |p| {
            write_node(p.special_mut(), depth, right, sep, &slots[..mid])
        })?;
        Ok((sep, right))
    }

    /// Whole-tree structural audit (strict-invariants only; `Ok(())`
    /// otherwise): entries ascend within every page and lie inside the
    /// bounds their parent's separators give, each page's high key is
    /// its upper bound, and each level's sibling chain visits that
    /// level's pages in key order. It reads every page, so mutations do
    /// not run it; each one checks the page it wrote (see
    /// [`check_page`]).
    #[cfg(feature = "strict-invariants")]
    pub fn audit(&self, bm: &BufferManager) -> Result<()> {
        if self.height == 0 {
            return Ok(());
        }
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); self.height];
        self.audit_node(bm, self.root, self.height - 1, 0, HIGH_INF, &mut levels)?;
        for (depth, pages) in levels.iter().enumerate() {
            let mut chain = Vec::with_capacity(pages.len());
            let mut blk = pages[0];
            loop {
                chain.push(blk);
                let sibling =
                    bm.with_page(self.rel, blk, |p| read_u32(p.special(), OFF_SIBLING))?;
                if sibling == NO_SIBLING || chain.len() > pages.len() {
                    break;
                }
                blk = sibling;
            }
            assert_eq!(
                &chain, pages,
                "btree audit: level {depth}'s sibling chain is not its key order"
            );
        }
        Ok(())
    }

    #[cfg(feature = "strict-invariants")]
    fn audit_node(
        &self,
        bm: &BufferManager,
        blk: u32,
        depth: usize,
        lo: u128,
        hi: u128,
        levels: &mut [Vec<u32>],
    ) -> Result<()> {
        levels[depth].push(blk);
        let (level, high, slots) = bm.with_page(self.rel, blk, |p| {
            let sp = p.special();
            let level = usize::from(read_u16(sp, OFF_LEVEL));
            let slots: Vec<Slot> = (0..count(sp)).map(|i| slot_at(sp, level, i)).collect();
            (level, read_u128(sp, OFF_HIGH), slots)
        })?;
        assert_eq!(level, depth, "btree audit: page {blk} at the wrong level");
        assert_eq!(
            high, hi,
            "btree audit: page {blk}'s high key is not its bound"
        );
        assert!(
            slots.len() <= self.cap(depth),
            "btree audit: page {blk} overfull"
        );
        // An inner page's first separator is its lower bound, never compared.
        let keys = &slots[usize::from(depth > 0)..];
        assert!(
            keys.windows(2).all(|w| w[0].0 < w[1].0),
            "btree audit: page {blk}'s entries are not ascending"
        );
        assert!(
            keys.iter().all(|s| lo <= s.0 && s.0 < hi),
            "btree audit: page {blk} holds an entry outside [{lo:#x}, {hi:#x})"
        );
        if depth == 0 {
            return Ok(());
        }
        assert!(!slots.is_empty(), "btree audit: inner page {blk} is empty");
        for (i, &(sep, child)) in slots.iter().enumerate() {
            let lo = if i == 0 { lo } else { sep };
            let hi = slots.get(i + 1).map_or(hi, |s| s.0);
            self.audit_node(bm, child, depth - 1, lo, hi, levels)?;
        }
        Ok(())
    }

    /// See the strict-invariants build.
    #[cfg(not(feature = "strict-invariants"))]
    #[inline(always)]
    pub fn audit(&self, _bm: &BufferManager) -> Result<()> {
        Ok(())
    }
}

/// A full page's entries (the new one included), sibling and high key.
type Full = (Vec<Slot>, u32, u128);

/// First index in `lo..hi` at which `before` turns false (`before`
/// holds on a prefix of the range).
fn partition(mut lo: usize, mut hi: usize, before: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn entry_size(depth: usize) -> usize {
    if depth == 0 {
        LEAF_ENTRY
    } else {
        INNER_ENTRY
    }
}

fn count(sp: &[u8]) -> usize {
    usize::from(read_u16(sp, OFF_COUNT))
}

fn slot_at(sp: &[u8], depth: usize, i: usize) -> Slot {
    let at = NODE_HEADER + i * entry_size(depth);
    let child = if depth == 0 { 0 } else { read_u32(sp, at + 16) };
    (read_u128(sp, at), child)
}

fn write_slot(sp: &mut [u8], depth: usize, i: usize, (e, child): Slot) {
    let at = NODE_HEADER + i * entry_size(depth);
    sp[at..at + 16].copy_from_slice(&e.to_le_bytes());
    if depth > 0 {
        write_u32(sp, at + 16, child);
    }
}

/// Put `slot` at `pos` if the page has room (`None`); otherwise leave
/// the page as it is and return its entries with `slot` placed, for a
/// split.
fn place(sp: &mut [u8], depth: usize, pos: usize, slot: Slot, cap: usize) -> Option<Full> {
    let n = count(sp);
    if n < cap {
        let size = entry_size(depth);
        let at = NODE_HEADER + pos * size;
        sp.copy_within(at..NODE_HEADER + n * size, at + size);
        write_slot(sp, depth, pos, slot);
        write_u16(sp, OFF_COUNT, (n + 1) as u16);
        check_page(sp);
        return None;
    }
    let mut slots: Vec<Slot> = (0..n).map(|i| slot_at(sp, depth, i)).collect();
    slots.insert(pos, slot);
    Some((slots, read_u32(sp, OFF_SIBLING), read_u128(sp, OFF_HIGH)))
}

fn remove_at(sp: &mut [u8], depth: usize, pos: usize) {
    let n = count(sp);
    let size = entry_size(depth);
    let end = NODE_HEADER + n * size;
    sp.copy_within(
        NODE_HEADER + (pos + 1) * size..end,
        NODE_HEADER + pos * size,
    );
    sp[end - size..end].fill(0);
    write_u16(sp, OFF_COUNT, (n - 1) as u16);
    check_page(sp);
}

fn write_node(sp: &mut [u8], depth: usize, sibling: u32, high: u128, slots: &[Slot]) {
    sp.fill(0);
    write_u16(sp, OFF_LEVEL, depth as u16);
    write_u16(sp, OFF_COUNT, slots.len() as u16);
    write_u32(sp, OFF_SIBLING, sibling);
    sp[OFF_HIGH..OFF_HIGH + 16].copy_from_slice(&high.to_le_bytes());
    for (i, &slot) in slots.iter().enumerate() {
        write_slot(sp, depth, i, slot);
    }
    check_page(sp);
}

/// Page audit after every write (strict-invariants only): the entries
/// ascend and stay below the high key.
#[cfg(feature = "strict-invariants")]
fn check_page(sp: &[u8]) {
    let depth = usize::from(read_u16(sp, OFF_LEVEL));
    let high = read_u128(sp, OFF_HIGH);
    // An inner page's first separator is its lower bound, never compared.
    let keys: Vec<u128> = (usize::from(depth > 0)..count(sp))
        .map(|i| slot_at(sp, depth, i).0)
        .collect();
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]) && keys.last().is_none_or(|&k| k < high),
        "btree audit: page entries not ascending below the high key"
    );
}

#[cfg(not(feature = "strict-invariants"))]
#[inline(always)]
fn check_page(_sp: &[u8]) {}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn write_u16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn write_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn read_u128(b: &[u8], at: usize) -> u128 {
    let mut bytes = [0u8; 16];
    bytes.copy_from_slice(&b[at..at + 16]);
    u128::from_le_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::page::PageSize;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use vdb_vecmath::rng::{cases, Rng};

    /// A one-shard pool of `frames` frames of `size` pages.
    fn pool_of(size: PageSize, frames: usize) -> BufferManager {
        BufferManager::sharded_with_shards(Arc::new(DiskManager::new(size)), frames, 1)
    }

    fn pool(frames: usize) -> BufferManager {
        pool_of(PageSize::Size8K, frames)
    }

    /// A tree whose pages hold at most `leaf_cap` / `inner_cap` entries,
    /// so that a few dozen entries split leaves, inner pages and the root.
    fn small_tree(bm: &BufferManager, leaf_cap: usize, inner_cap: usize) -> BTree {
        let mut tree = BTree::create(bm);
        tree.leaf_cap = leaf_cap;
        tree.inner_cap = inner_cap;
        tree
    }

    type Model = BTreeSet<(u64, Tid)>;

    fn walk(tree: &BTree, bm: &BufferManager, lo: u64, hi: u64) -> Vec<(u64, Tid)> {
        let mut out = Vec::new();
        tree.range(bm, lo, hi, |hit| {
            out.push((hit.key, hit.tid));
            ControlFlow::Continue(())
        })
        .unwrap();
        out
    }

    fn expect(model: &Model, lo: u64, hi: u64) -> Vec<(u64, Tid)> {
        model
            .range((lo, Tid::new(0, 0))..=(hi, Tid::new(u32::MAX, u16::MAX)))
            .copied()
            .collect()
    }

    fn pins(bm: &BufferManager) -> u64 {
        let s = bm.stats();
        s.hits + s.misses
    }

    #[test]
    fn key_encoding_preserves_order() {
        let edges = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        for w in edges.windows(2) {
            assert!(key_from_i64(w[0]) < key_from_i64(w[1]), "{w:?}");
        }
        cases("key_encoding_preserves_order", 256, |rng| {
            let (a, b) = (rng.next_u64() as i64, rng.next_u64() as i64);
            assert_eq!(a.cmp(&b), key_from_i64(a).cmp(&key_from_i64(b)));
        });
    }

    #[test]
    fn empty_tree_has_no_pages_and_finds_nothing() {
        let bm = pool(4);
        let mut tree = BTree::create(&bm);
        assert_eq!(tree.height(), 0);
        assert!(walk(&tree, &bm, 0, u64::MAX).is_empty());
        assert_eq!(tree.last(&bm, 7).unwrap(), None);
        tree.extend(&bm, &[]).unwrap();
        assert_eq!(bm.disk().nblocks(RelId(0)), 0);
    }

    #[test]
    fn duplicates_come_back_in_tid_order_newest_last() {
        let bm = pool(4);
        let mut tree = small_tree(&bm, 4, 3);
        let key = key_from_i64(-5);
        let tids: Vec<Tid> = (0..20)
            .map(|i| Tid::new(i / 3, (i % 3 + 1) as u16))
            .collect();
        for &tid in tids.iter().rev() {
            assert!(tree.insert(&bm, key, tid).unwrap());
            assert!(tree.insert(&bm, key_from_i64(-4), tid).unwrap());
            assert!(tree.insert(&bm, key_from_i64(-6), tid).unwrap());
        }
        assert!(
            !tree.insert(&bm, key, tids[3]).unwrap(),
            "entries are a set"
        );
        let got: Vec<Tid> = walk(&tree, &bm, key, key).iter().map(|e| e.1).collect();
        assert_eq!(got, tids);
        let last = tree.last(&bm, key).unwrap().unwrap();
        assert_eq!(last.tid, tids[19]);
        assert!(tree.delete_hit(&bm, last).unwrap());
        assert_eq!(tree.last(&bm, key).unwrap().unwrap().tid, tids[18]);
        assert!(
            tree.height() >= 3,
            "the dozens of entries split the root twice"
        );
    }

    #[test]
    fn bulk_build_equals_inserts_and_lookups_pin_height_pages() {
        let bm = pool(64);
        let n = if cfg!(miri) { 2_000 } else { 20_000u32 };
        let entries: Vec<(u64, Tid)> = (0..n)
            .map(|i| {
                (
                    key_from_i64(i64::from(i % 9_000) - 4_000),
                    Tid::new(i / 50, (i % 50 + 1) as u16),
                )
            })
            .collect();
        let mut built = BTree::create(&bm);
        built.extend(&bm, &entries).unwrap();
        let mut inserted = BTree::create(&bm);
        for &(k, t) in &entries {
            inserted.insert(&bm, k, t).unwrap();
        }
        let all = walk(&built, &bm, 0, u64::MAX);
        assert_eq!(all.len(), entries.len());
        assert_eq!(all, walk(&inserted, &bm, 0, u64::MAX));
        assert_eq!(
            built.height(),
            2,
            "thousands of entries at 90 % of 508 per leaf"
        );
        let key = key_from_i64(17);
        let before = pins(&bm);
        let last = built.last(&bm, key).unwrap().unwrap();
        assert_eq!(pins(&bm) - before, built.height() as u64);
        let before = pins(&bm);
        assert!(built.delete_hit(&bm, last).unwrap());
        assert_eq!(pins(&bm) - before, 1, "a found entry is deleted in place");
        // A second extend goes through insert and keeps the tree whole.
        built.extend(&bm, &[(key, last.tid)]).unwrap();
        assert_eq!(walk(&built, &bm, 0, u64::MAX), all);
    }

    /// One random tree operation, checked against the model.
    fn step(
        rng: &mut Rng,
        bm: &BufferManager,
        tree: &mut BTree,
        model: &mut Model,
        next_tid: &mut u32,
    ) {
        let draw_key = |rng: &mut Rng| {
            if rng.range_usize(0..4) == 0 {
                rng.next_u64()
            } else {
                key_from_i64(rng.range_usize(0..24) as i64 - 12)
            }
        };
        let fresh_tid = |next: &mut u32| {
            *next += 1;
            Tid::new(*next / 5, (*next % 5 + 1) as u16)
        };
        let existing = |rng: &mut Rng, model: &Model| {
            let at = (!model.is_empty()).then(|| rng.range_usize(0..model.len()))?;
            model.iter().nth(at).copied()
        };
        match rng.range_usize(0..10) {
            0..=3 => {
                let (key, tid) = (draw_key(rng), fresh_tid(next_tid));
                assert!(tree.insert(bm, key, tid).unwrap());
                model.insert((key, tid));
            }
            4 => {
                if let Some((key, tid)) = existing(rng, model) {
                    assert!(
                        !tree.insert(bm, key, tid).unwrap(),
                        "re-insert of a held entry"
                    );
                }
            }
            5 | 6 => {
                if let Some((key, tid)) = existing(rng, model) {
                    let mut hit = None;
                    tree.range(bm, key, key, |h| {
                        if h.tid == tid {
                            hit = Some(h);
                        }
                        ControlFlow::Continue(())
                    })
                    .unwrap();
                    let hit = hit.unwrap_or_else(|| panic!("lost entry {key:#x} {tid:?}"));
                    assert!(tree.delete_hit(bm, hit).unwrap());
                    assert!(!tree.delete_hit(bm, hit).unwrap(), "deleted twice");
                    model.remove(&(key, tid));
                }
            }
            7 => {
                let key = draw_key(rng);
                let last = tree.last(bm, key).unwrap();
                assert_eq!(last.map(|h| (h.key, h.tid)), expect(model, key, key).pop());
                if let Some(hit) = last {
                    assert!(tree.delete_hit(bm, hit).unwrap());
                    model.remove(&(hit.key, hit.tid));
                }
            }
            8 => {
                let key = draw_key(rng);
                assert_eq!(walk(tree, bm, key, key), expect(model, key, key));
            }
            _ => {
                let (a, b) = (draw_key(rng), draw_key(rng));
                let (lo, hi) = (a.min(b), a.max(b));
                assert_eq!(walk(tree, bm, lo, hi), expect(model, lo, hi));
            }
        }
        tree.audit(bm).unwrap();
    }

    /// Random inserts, deletes, point lookups and range walks, with
    /// duplicate and negative keys, against a `BTreeSet` model, through
    /// a four-frame pool of 4 KB pages (every operation evicts). Pages
    /// of four leaf entries and three children split leaves, inner pages
    /// and the root. Under `strict-invariants` every operation ends in the full
    /// structural audit.
    #[test]
    fn prop_tree_matches_model() {
        // Each strict-build case re-reads (and checksums) every page per
        // operation, so that build runs a quarter of the cases.
        let n = if cfg!(miri) {
            2
        } else if cfg!(feature = "strict-invariants") {
            12
        } else {
            48
        };
        let mut tallest = 0;
        cases("prop_tree_matches_model", n, |rng| {
            let bm = pool_of(PageSize::Size4K, 4);
            let mut tree = small_tree(&bm, 4, 3);
            let mut model = Model::new();
            let mut next_tid = 0;
            if rng.bool() {
                let seed: Vec<(u64, Tid)> = (0..rng.range_usize(0..60))
                    .map(|_| {
                        (key_from_i64(rng.range_usize(0..24) as i64 - 12), {
                            next_tid += 1;
                            Tid::new(next_tid / 5, (next_tid % 5 + 1) as u16)
                        })
                    })
                    .collect();
                tree.extend(&bm, &seed).unwrap();
                model.extend(seed);
                tree.audit(&bm).unwrap();
            }
            let ops = if cfg!(miri) { 60 } else { 300 };
            for _ in 0..ops {
                step(rng, &bm, &mut tree, &mut model, &mut next_tid);
                tallest = tallest.max(tree.height());
            }
            assert_eq!(walk(&tree, &bm, 0, u64::MAX), expect(&model, 0, u64::MAX));
            assert!(bm.stats().evictions > 0, "a four-frame pool evicts");
        });
        assert!(
            tallest >= 4,
            "splits reached the root's parent level ({tallest})"
        );
    }
}

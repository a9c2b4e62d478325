//! Slotted pages with line pointers, following PostgreSQL's `bufpage`
//! layout.
//!
//! ```text
//! +-----------------+-------------------------+------------------+---------+
//! | 16-byte header  | line pointers (grow →)  |   free space     | tuples  |
//! |                 | lp1 lp2 lp3 ...         |                  | (← grow)|
//! +-----------------+-------------------------+------------------+---------+
//!                   ^lower                                  upper^   special
//! ```
//!
//! Tuples are addressed by 1-based line-pointer offsets, so a tuple's
//! physical position can move (e.g. during compaction) without changing
//! its [`crate::Tid`]. The page size is runtime-configurable because the
//! paper's Table IV measures HNSW index size at both 8KB and 4KB pages.

/// Supported page sizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// PostgreSQL's default.
    #[default]
    Size8K,
    /// The paper's Table IV alternative.
    Size4K,
}

impl PageSize {
    /// Size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            PageSize::Size8K => 8192,
            PageSize::Size4K => 4096,
        }
    }
}

const HEADER_SIZE: usize = 16;
const LP_SIZE: usize = 4; // {off: u16, len: u16}

const OFF_LOWER: usize = 0;
const OFF_UPPER: usize = 2;
const OFF_SPECIAL: usize = 4; // start of the special space
const OFF_FLAGS: usize = 6;
/// Bytes 8..16 of the header. The LSN is unused by this engine (no
/// WAL), so under `strict-invariants` the slot doubles as a page
/// checksum stamped at the disk boundary; 0 means "unstamped".
const OFF_LSN: usize = 8;

/// FNV-1a 64 over a page image, with the checksum slot itself (bytes
/// 8..16) hashed as zero so the stamp does not perturb its own input.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for (i, &b) in bytes.iter().enumerate() {
        let b = if (OFF_LSN..OFF_LSN + 8).contains(&i) {
            0
        } else {
            b
        };
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    // A real checksum of 0 would read as "unstamped"; remap it.
    if h == 0 {
        1
    } else {
        h
    }
}

/// Stamp a page image's checksum slot in place.
pub fn stamp_checksum(bytes: &mut [u8]) {
    let sum = page_checksum(bytes);
    bytes[OFF_LSN..OFF_LSN + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Whether a page image's stamp matches its contents. Unstamped pages
/// (slot == 0, e.g. fresh zeroed blocks) pass.
pub fn verify_checksum(bytes: &[u8]) -> bool {
    let mut slot = [0u8; 8];
    slot.copy_from_slice(&bytes[OFF_LSN..OFF_LSN + 8]);
    let stored = u64::from_le_bytes(slot);
    stored == 0 || stored == page_checksum(bytes)
}

/// A slotted page.
///
/// Owns its byte buffer; the buffer manager copies these bytes to and
/// from the [`crate::DiskManager`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Page {
    buf: Box<[u8]>,
}

impl Page {
    /// A fresh, empty page with no special space.
    pub fn new(size: PageSize) -> Page {
        Page::with_special(size, 0)
    }

    /// A fresh page reserving `special` bytes at the end (index metadata,
    /// like PostgreSQL's opaque special space).
    ///
    /// # Panics
    /// Panics if the special space leaves no room for any tuple.
    pub fn with_special(size: PageSize, special: usize) -> Page {
        let total = size.bytes();
        assert!(
            HEADER_SIZE + LP_SIZE + 8 + special <= total,
            "special space {special} leaves no usable page"
        );
        let mut buf = vec![0u8; total].into_boxed_slice();
        let special_start = total - special;
        write_u16(&mut buf, OFF_LOWER, HEADER_SIZE as u16);
        write_u16(&mut buf, OFF_UPPER, special_start as u16);
        write_u16(&mut buf, OFF_SPECIAL, special_start as u16);
        write_u16(&mut buf, OFF_FLAGS, 0);
        Page { buf }
    }

    /// Reinterpret raw bytes (read back from disk) as a page.
    ///
    /// # Panics
    /// Panics if the header is inconsistent with the buffer length.
    pub fn from_bytes(buf: Box<[u8]>) -> Page {
        let lower = read_u16(&buf, OFF_LOWER) as usize;
        let upper = read_u16(&buf, OFF_UPPER) as usize;
        let special = read_u16(&buf, OFF_SPECIAL) as usize;
        assert!(
            lower >= HEADER_SIZE && lower <= upper && upper <= special && special <= buf.len(),
            "corrupt page header (lower={lower} upper={upper} special={special} len={})",
            buf.len()
        );
        let page = Page { buf };
        page.audit();
        page
    }

    /// The raw bytes (for writing to disk).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Total page size in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    fn lower(&self) -> usize {
        read_u16(&self.buf, OFF_LOWER) as usize
    }

    fn upper(&self) -> usize {
        read_u16(&self.buf, OFF_UPPER) as usize
    }

    fn special_start(&self) -> usize {
        read_u16(&self.buf, OFF_SPECIAL) as usize
    }

    /// The page's special space (index-specific metadata).
    pub fn special(&self) -> &[u8] {
        &self.buf[self.special_start()..]
    }

    /// Mutable special space.
    pub fn special_mut(&mut self) -> &mut [u8] {
        let s = self.special_start();
        &mut self.buf[s..]
    }

    /// Number of line pointers, live or dead.
    pub fn item_count(&self) -> u16 {
        ((self.lower() - HEADER_SIZE) / LP_SIZE) as u16
    }

    /// Free bytes between the line-pointer array and the tuple space
    /// (the room `add_item` has to work with, minus one new pointer).
    pub fn free_space(&self) -> usize {
        self.upper() - self.lower()
    }

    /// Largest tuple an *empty* page of `size` with `special` reserved
    /// bytes can store (accounting for the 8-byte start alignment).
    pub fn max_item_size(size: PageSize, special: usize) -> usize {
        size.bytes() - HEADER_SIZE - LP_SIZE - special - 4
    }

    /// Append a tuple; returns its 1-based line-pointer offset, or `None`
    /// if the page lacks space.
    ///
    /// Tuple start offsets are rounded down to 8 bytes (PostgreSQL's
    /// `MAXALIGN`), so payloads written as `f32`/`u64` arrays can be read
    /// back without copying.
    pub fn add_item(&mut self, data: &[u8]) -> Option<u16> {
        let lower = self.lower();
        let new_upper = self.upper().checked_sub(data.len())? & !7;
        if new_upper < lower + LP_SIZE {
            return None;
        }
        self.buf[new_upper..new_upper + data.len()].copy_from_slice(data);
        write_u16(&mut self.buf, lower, new_upper as u16);
        write_u16(&mut self.buf, lower + 2, data.len() as u16);
        write_u16(&mut self.buf, OFF_LOWER, (lower + LP_SIZE) as u16);
        write_u16(&mut self.buf, OFF_UPPER, new_upper as u16);
        self.audit();
        Some(self.item_count())
    }

    fn lp(&self, offno: u16) -> Option<(usize, usize)> {
        if offno == 0 || offno > self.item_count() {
            return None;
        }
        let base = HEADER_SIZE + (offno as usize - 1) * LP_SIZE;
        let off = read_u16(&self.buf, base) as usize;
        let len = read_u16(&self.buf, base + 2) as usize;
        if len == 0 {
            None // dead line pointer
        } else {
            Some((off, len))
        }
    }

    /// Borrow tuple `offno` (1-based); `None` for invalid or dead slots.
    pub fn item(&self, offno: u16) -> Option<&[u8]> {
        self.lp(offno).map(|(off, len)| &self.buf[off..off + len])
    }

    /// Mutably borrow tuple `offno`.
    pub fn item_mut(&mut self, offno: u16) -> Option<&mut [u8]> {
        self.lp(offno)
            .map(|(off, len)| &mut self.buf[off..off + len])
    }

    /// Mark tuple `offno` dead. Its space is reclaimed by [`compact`]
    /// (PostgreSQL's page pruning); the line pointer stays so other TIDs
    /// on the page remain stable.
    ///
    /// Returns whether the slot was live.
    ///
    /// [`compact`]: Page::compact
    pub fn delete_item(&mut self, offno: u16) -> bool {
        if self.lp(offno).is_none() {
            return false;
        }
        let base = HEADER_SIZE + (offno as usize - 1) * LP_SIZE;
        write_u16(&mut self.buf, base + 2, 0);
        self.audit();
        true
    }

    /// Reclaim dead tuple space by sliding live tuples to the end of the
    /// page. Line-pointer offsets (and therefore TIDs) are unchanged.
    pub fn compact(&mut self) {
        let count = self.item_count();
        let special = self.special_start();
        // Collect live items (offno, bytes), then rewrite top-down.
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        for offno in 1..=count {
            if let Some(data) = self.item(offno) {
                live.push((offno, data.to_vec()));
            }
        }
        let mut upper = special;
        for (offno, data) in &live {
            upper = (upper - data.len()) & !7;
            self.buf[upper..upper + data.len()].copy_from_slice(data);
            let base = HEADER_SIZE + (*offno as usize - 1) * LP_SIZE;
            write_u16(&mut self.buf, base, upper as u16);
            write_u16(&mut self.buf, base + 2, data.len() as u16);
        }
        write_u16(&mut self.buf, OFF_UPPER, upper as u16);
        self.audit();
    }

    /// Structural audit of the slotted layout, active only under
    /// `strict-invariants` (zero-cost otherwise). Checks the header
    /// bounds, line-pointer-array alignment, and — for every live line
    /// pointer — MAXALIGNed start, containment in the tuple space, and
    /// pairwise disjointness. Runs after every mutation and on
    /// [`Page::from_bytes`], so a corrupting write is caught at the
    /// operation that made it, not pages later.
    #[cfg(feature = "strict-invariants")]
    fn audit(&self) {
        let lower = self.lower();
        let upper = self.upper();
        let special = self.special_start();
        assert!(
            lower >= HEADER_SIZE && lower <= upper && upper <= special && special <= self.buf.len(),
            "page audit: header out of order (lower={lower} upper={upper} special={special})"
        );
        assert!(
            (lower - HEADER_SIZE).is_multiple_of(LP_SIZE),
            "page audit: ragged line-pointer array (lower={lower})"
        );
        let mut extents: Vec<(usize, usize)> = Vec::new();
        for offno in 1..=self.item_count() {
            if let Some((off, len)) = self.lp(offno) {
                assert!(
                    off.is_multiple_of(8),
                    "page audit: tuple {offno} start {off} not MAXALIGNed"
                );
                assert!(
                    off >= upper && off + len <= special,
                    "page audit: tuple {offno} [{off}, {}) outside tuple space \
                     [{upper}, {special})",
                    off + len
                );
                extents.push((off, off + len));
            }
        }
        extents.sort_unstable();
        for pair in extents.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "page audit: overlapping tuples at [{}, {}) and [{}, {})",
                pair[0].0,
                pair[0].1,
                pair[1].0,
                pair[1].1
            );
        }
    }

    #[cfg(not(feature = "strict-invariants"))]
    #[inline(always)]
    fn audit(&self) {}

    /// Iterate live tuples as `(offno, bytes)`.
    pub fn items(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (1..=self.item_count()).filter_map(move |off| self.item(off).map(|d| (off, d)))
    }

    /// Live tuples as `(offno, range)`, where `range` locates the tuple
    /// in [`bytes`](Self::bytes), in storage order: ascending address.
    ///
    /// `add_item` places each tuple below the ones before it and
    /// `compact` slides live tuples up in line-pointer order, so storage
    /// order is reverse line-pointer order on every page this type
    /// writes. A scan that reads tuples this way walks the page forward,
    /// the direction hardware prefetchers follow; [`items`](Self::items)
    /// walks it backward. Both visit the same tuples; no caller's
    /// result may depend on which order it gets.
    pub fn item_ranges(&self) -> impl Iterator<Item = (u16, std::ops::Range<usize>)> + '_ {
        (1..=self.item_count())
            .rev()
            .filter_map(move |off| self.lp(off).map(|(at, len)| (off, at..at + len)))
    }
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_vecmath::rng::{cases, Rng};

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new(PageSize::Size8K);
        assert_eq!(p.item_count(), 0);
        assert_eq!(p.free_space(), 8192 - HEADER_SIZE);
        assert!(p.item(1).is_none());
    }

    #[test]
    fn add_and_get_round_trip() {
        let mut p = Page::new(PageSize::Size4K);
        let off1 = p.add_item(b"hello").unwrap();
        let off2 = p.add_item(b"world!").unwrap();
        assert_eq!(off1, 1);
        assert_eq!(off2, 2);
        assert_eq!(p.item(1), Some(&b"hello"[..]));
        assert_eq!(p.item(2), Some(&b"world!"[..]));
    }

    #[test]
    fn page_fills_up() {
        let mut p = Page::new(PageSize::Size4K);
        let tuple = vec![0xAB; 1000];
        let mut added = 0;
        while p.add_item(&tuple).is_some() {
            added += 1;
        }
        // 4096 - 16 = 4080 usable; each tuple costs 1004 → 4 fit.
        assert_eq!(added, 4);
    }

    #[test]
    fn delete_then_item_is_none_but_others_stable() {
        let mut p = Page::new(PageSize::Size8K);
        p.add_item(b"a").unwrap();
        p.add_item(b"bb").unwrap();
        assert!(p.delete_item(1));
        assert!(p.item(1).is_none());
        assert_eq!(p.item(2), Some(&b"bb"[..]));
        assert!(!p.delete_item(1)); // already dead
    }

    #[test]
    fn compact_reclaims_space_keeps_offsets() {
        let mut p = Page::new(PageSize::Size4K);
        p.add_item(&[1u8; 1000]).unwrap();
        p.add_item(&[2u8; 1000]).unwrap();
        p.add_item(&[3u8; 1000]).unwrap();
        let before = p.free_space();
        p.delete_item(2);
        p.compact();
        assert!(p.free_space() >= before + 1000);
        assert_eq!(p.item(1), Some(&[1u8; 1000][..]));
        assert!(p.item(2).is_none());
        assert_eq!(p.item(3), Some(&[3u8; 1000][..]));
        // Space is reusable.
        assert!(p.add_item(&[4u8; 1000]).is_some());
    }

    #[test]
    fn special_space_is_preserved() {
        let mut p = Page::with_special(PageSize::Size8K, 32);
        p.special_mut().copy_from_slice(&[7u8; 32]);
        p.add_item(&[1u8; 100]).unwrap();
        assert_eq!(p.special(), &[7u8; 32]);
        assert_eq!(
            Page::max_item_size(PageSize::Size8K, 32),
            8192 - 16 - 4 - 32 - 4
        );
        // A max-size tuple actually fits a fresh page.
        let mut q = Page::new(PageSize::Size4K);
        let max = Page::max_item_size(PageSize::Size4K, 0);
        assert!(q.add_item(&vec![0u8; max]).is_some());
        assert!(Page::new(PageSize::Size4K)
            .add_item(&vec![0u8; max + 1])
            .is_none());
    }

    #[test]
    fn from_bytes_round_trip() {
        let mut p = Page::new(PageSize::Size4K);
        p.add_item(b"persisted").unwrap();
        let raw = p.bytes().to_vec().into_boxed_slice();
        let q = Page::from_bytes(raw);
        assert_eq!(q.item(1), Some(&b"persisted"[..]));
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "corrupt page header")]
    fn corrupt_header_rejected() {
        let mut raw = vec![0u8; 4096].into_boxed_slice();
        raw[0] = 0xFF; // lower > upper
        raw[1] = 0xFF;
        Page::from_bytes(raw);
    }

    #[test]
    fn checksum_stamp_and_verify() {
        let mut p = Page::new(PageSize::Size4K);
        p.add_item(b"payload").unwrap();
        let mut raw = p.bytes().to_vec();
        assert!(verify_checksum(&raw), "unstamped page must pass");
        stamp_checksum(&mut raw);
        assert!(verify_checksum(&raw));
        raw[100] ^= 0xFF;
        assert!(!verify_checksum(&raw), "bit flip must be detected");
    }

    #[test]
    fn checksum_ignores_its_own_slot() {
        let p = Page::new(PageSize::Size8K);
        let mut a = p.bytes().to_vec();
        let mut b = p.bytes().to_vec();
        stamp_checksum(&mut a);
        stamp_checksum(&mut b);
        stamp_checksum(&mut b); // double stamp is a fixed point
        assert_eq!(a, b);
        assert!(verify_checksum(&b));
    }

    #[test]
    fn item_mut_writes_through() {
        let mut p = Page::new(PageSize::Size8K);
        p.add_item(&[0u8; 8]).unwrap();
        p.item_mut(1).unwrap().copy_from_slice(&[9u8; 8]);
        assert_eq!(p.item(1), Some(&[9u8; 8][..]));
    }

    #[test]
    fn items_iterates_live_only() {
        let mut p = Page::new(PageSize::Size8K);
        p.add_item(b"x").unwrap();
        p.add_item(b"y").unwrap();
        p.add_item(b"z").unwrap();
        p.delete_item(2);
        let got: Vec<(u16, &[u8])> = p.items().collect();
        assert_eq!(got, vec![(1, &b"x"[..]), (3, &b"z"[..])]);
    }

    /// `count` tuples of `len` arbitrary bytes each.
    fn random_tuples(
        rng: &mut Rng,
        count: std::ops::Range<usize>,
        len: std::ops::Range<usize>,
    ) -> Vec<Vec<u8>> {
        rng.vec(count, |r| r.vec(len.clone(), |r| r.next_u64() as u8))
    }

    /// Add/get round trips for arbitrary batches of tuples, across
    /// page boundaries (each page rejects what does not fit).
    #[test]
    fn prop_add_get_round_trip() {
        cases("prop_add_get_round_trip", 256, |rng| {
            let tuples = random_tuples(rng, 1..40, 1..300);
            let mut p = Page::new(PageSize::Size4K);
            let mut stored: Vec<(u16, Vec<u8>)> = Vec::new();
            for t in &tuples {
                if let Some(off) = p.add_item(t) {
                    stored.push((off, t.clone()));
                }
            }
            for (off, data) in &stored {
                assert_eq!(p.item(*off), Some(&data[..]));
            }
        });
    }

    /// Deleting a subset then compacting preserves the remaining
    /// tuples and never shrinks free space.
    #[test]
    fn prop_compact_preserves_live_items() {
        cases("prop_compact_preserves_live_items", 256, |rng| {
            let tuples = random_tuples(rng, 1..30, 1..100);
            let delete_mask: Vec<bool> = (0..30).map(|_| rng.bool()).collect();
            let mut p = Page::new(PageSize::Size4K);
            let mut stored: Vec<(u16, Vec<u8>)> = Vec::new();
            for t in &tuples {
                if let Some(off) = p.add_item(t) {
                    stored.push((off, t.clone()));
                }
            }
            let mut kept = Vec::new();
            for (i, (off, data)) in stored.iter().enumerate() {
                if delete_mask.get(i).copied().unwrap_or(false) {
                    p.delete_item(*off);
                } else {
                    kept.push((*off, data.clone()));
                }
            }
            let free_before = p.free_space();
            p.compact();
            assert!(p.free_space() >= free_before);
            for (off, data) in &kept {
                assert_eq!(p.item(*off), Some(&data[..]));
            }
        });
    }
}

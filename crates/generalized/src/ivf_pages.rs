//! The page layout both paged IVF indexes share: centroid pages plus
//! bucket-chained data pages.
//!
//! PASE stores an IVF index as centroid pages and, per bucket, a chain
//! of data pages whose tuples are `[id u64 | payload]`: the raw vector
//! for IVF_FLAT, the PQ code for IVF_PQ. Each data page's special space
//! links the chain as `[next_block u32][bucket u32]`. [`IvfPages`] owns
//! that layout: appending, probe selection over the centroid pages, and
//! the one chain walk that every search, batch and cache build reads
//! through.
//!
//! [`IvfPages::scan`] reads each page once, taking its tuples in storage
//! order ([`Page::item_ranges`]), in the phases the paper's Table V
//! separates: tuple access (the pin and the line-pointer resolution),
//! distance computation over the same page, and, once the page is
//! released, the heap pushes.

use crate::options::GeneralizedOptions;
use std::ops::Range;
use vdb_filter::SelectionBitmap;
use vdb_profile::{self as profile, Category};
use vdb_storage::heap::{as_bytes_f32, bytemuck_f32};
use vdb_storage::tuple::{decode_u32_at, decode_u64_at};
use vdb_storage::{BufferManager, Page, RelId, Result};
use vdb_vecmath::{Kmeans, VectorSet};

/// Sentinel "no next page" block number in the page chain.
const NO_NEXT: u32 = u32::MAX;
/// Special-space layout of data pages: `[next_block u32][bucket u32]`.
const SPECIAL_LEN: usize = 8;
/// Bytes of the id in front of every data-page payload.
const ID_LEN: usize = 8;

/// Per-bucket page-chain bookkeeping (PASE keeps the equivalent in its
/// index meta page).
#[derive(Clone, Copy, Debug)]
struct BucketChain {
    head: u32,
    tail: u32,
    count: usize,
}

/// The pages of one paged IVF index: its centroid relation and its
/// data relation of bucket chains.
pub(crate) struct IvfPages {
    centroid_rel: RelId,
    data_rel: RelId,
    chains: Vec<Option<BucketChain>>,
}

/// Buffers one search reuses for every page it reads.
#[derive(Default)]
pub(crate) struct ScanScratch {
    /// The current page's live tuples, in storage order.
    tuples: Vec<Range<usize>>,
    /// `(id, distance)` of the scored tuples, not yet pushed.
    scored: Vec<(u64, f32)>,
    /// One resident bucket's distances, in row order.
    pub(crate) distances: Vec<f32>,
}

impl ScanScratch {
    /// Score every `(id, row)` with `kernel`, timed as distance
    /// computation, for a later [`flush`](Self::flush).
    pub(crate) fn score<'a, R: ?Sized + 'a>(
        &mut self,
        rows: impl Iterator<Item = (u64, &'a R)>,
        kernel: impl Fn(&R) -> f32,
    ) {
        let _t = profile::scoped(Category::DistanceCalc);
        self.scored.extend(rows.map(|(id, row)| (id, kernel(row))));
    }

    /// Hand the scored tuples to `push`, timed as heap maintenance.
    pub(crate) fn flush(&mut self, push: &mut dyn FnMut(u64, f32)) {
        let _h = profile::scoped(Category::MinHeap);
        profile::count(Category::MinHeap, self.scored.len() as u64);
        for (id, d) in self.scored.drain(..) {
            push(id, d);
        }
    }
}

impl IvfPages {
    /// Write `centroids` into a fresh centroid relation and create an
    /// empty data relation with one (empty) chain per centroid.
    pub(crate) fn create(bm: &BufferManager, centroids: &VectorSet) -> Result<IvfPages> {
        let centroid_rel = bm.disk().create_relation();
        let data_rel = bm.disk().create_relation();
        write_pages(bm, centroid_rel, centroids.iter().map(as_bytes_f32))?;
        Ok(IvfPages {
            centroid_rel,
            data_rel,
            chains: vec![None; centroids.len()],
        })
    }

    /// Number of buckets.
    pub(crate) fn buckets(&self) -> usize {
        self.chains.len()
    }

    /// Per-bucket tuple counts.
    pub(crate) fn bucket_sizes(&self) -> Vec<usize> {
        self.chains
            .iter()
            .map(|c| c.map_or(0, |c| c.count))
            .collect()
    }

    /// Bytes of the data relation alone.
    pub(crate) fn data_bytes(&self, bm: &BufferManager) -> usize {
        bm.disk().relation_bytes(self.data_rel)
    }

    /// Bytes of the centroid and data relations.
    pub(crate) fn size_bytes(&self, bm: &BufferManager) -> usize {
        bm.disk().relation_bytes(self.centroid_rel) + self.data_bytes(bm)
    }

    /// Append one `[id | payload]` tuple to bucket `b`'s page chain.
    pub(crate) fn append(
        &mut self,
        bm: &BufferManager,
        b: usize,
        id: u64,
        payload: &[u8],
    ) -> Result<()> {
        let mut tuple = Vec::with_capacity(ID_LEN + payload.len());
        tuple.extend_from_slice(&id.to_le_bytes());
        tuple.extend_from_slice(payload);

        if let Some(chain) = self.chains[b] {
            if bm
                .with_page_mut(self.data_rel, chain.tail, |p| p.add_item(&tuple))?
                .is_some()
            {
                self.chains[b] = Some(BucketChain {
                    count: chain.count + 1,
                    ..chain
                });
                return Ok(());
            }
        }

        // Need a fresh page at the end of the chain.
        let (blk, _) = bm.new_page(self.data_rel, SPECIAL_LEN, |p| {
            write_special(p, NO_NEXT, b as u32);
            // PANIC-OK: build checked the tuple against empty-page capacity up front.
            p.add_item(&tuple).expect("fresh page fits one tuple")
        })?;
        self.chains[b] = Some(match self.chains[b] {
            Some(chain) => {
                bm.with_page_mut(self.data_rel, chain.tail, |p| {
                    let (_, bucket) = read_special(p);
                    write_special(p, blk, bucket);
                })?;
                BucketChain {
                    head: chain.head,
                    tail: blk,
                    count: chain.count + 1,
                }
            }
            None => BucketChain {
                head: blk,
                tail: blk,
                count: 1,
            },
        });
        Ok(())
    }

    /// Select the `nprobe` buckets whose centroids are nearest `query`,
    /// reading the centroid pages through the buffer manager, or asking
    /// the in-memory `quantizer` when memory-optimized (RC#2 fix).
    pub(crate) fn select_probes(
        &self,
        bm: &BufferManager,
        opts: &GeneralizedOptions,
        quantizer: &Kmeans,
        query: &[f32],
        nprobe: usize,
    ) -> Result<Vec<usize>> {
        if opts.memory_optimized {
            return Ok(opts.quantizer_probes(quantizer, query, nprobe));
        }
        let mut dists: Vec<(usize, f32)> = Vec::with_capacity(self.chains.len());
        for blk in 0..bm.disk().nblocks(self.centroid_rel) as u32 {
            bm.with_page(self.centroid_rel, blk, |p| {
                for (_, bytes) in p.items() {
                    let d = {
                        let _t = profile::scoped(Category::DistanceCalc);
                        opts.metric
                            .distance_with(opts.distance, query, bytemuck_f32(bytes))
                    };
                    dists.push((dists.len(), d));
                }
            })?;
        }
        dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        dists.truncate(nprobe.max(1));
        Ok(dists.into_iter().map(|(b, _)| b).collect())
    }

    /// Score bucket `b` with `kernel` over each tuple's payload and feed
    /// `(id, distance)` to `push`, keeping only ids in `filter` if one is
    /// given.
    ///
    /// Each page is read once, in storage order: under tuple access the
    /// pin and the line-pointer resolution, under filter evaluation the
    /// bitmap probes, under distance computation the kernel. The pushes
    /// run after the page is released.
    pub(crate) fn scan(
        &self,
        bm: &BufferManager,
        b: usize,
        filter: Option<&SelectionBitmap>,
        scratch: &mut ScanScratch,
        kernel: impl Fn(&[u8]) -> f32,
        push: &mut dyn FnMut(u64, f32),
    ) -> Result<()> {
        self.walk(
            bm,
            b,
            scratch,
            |scratch, p| {
                let tuples = &mut scratch.tuples;
                {
                    let _t = profile::scoped(Category::TupleAccess);
                    tuples.clear();
                    tuples.extend(p.item_ranges().map(|(_, r)| r));
                }
                let bytes = p.bytes();
                if let Some(filter) = filter {
                    let _t = profile::scoped(Category::FilterEval);
                    tuples.retain(|r| filter.contains(decode_u64_at(bytes, r.start)));
                }
                let rows = tuples.iter().map(|r| {
                    (
                        decode_u64_at(bytes, r.start),
                        &bytes[r.start + ID_LEN..r.end],
                    )
                });
                let _t = profile::scoped(Category::DistanceCalc);
                scratch
                    .scored
                    .extend(rows.map(|(id, payload)| (id, kernel(payload))));
            },
            |scratch| scratch.flush(push),
        )
    }

    /// Call `f(id, payload)` for every tuple of bucket `b`, in the
    /// order [`scan`](Self::scan) reads them.
    pub(crate) fn visit(
        &self,
        bm: &BufferManager,
        b: usize,
        mut f: impl FnMut(u64, &[u8]),
    ) -> Result<()> {
        self.walk(
            bm,
            b,
            &mut f,
            |f, p| {
                let bytes = p.bytes();
                for (_, r) in p.item_ranges() {
                    f(
                        decode_u64_at(bytes, r.start),
                        &bytes[r.start + ID_LEN..r.end],
                    );
                }
            },
            |_| {},
        )
    }

    /// The chain walk: `read(state, page)` under each of bucket `b`'s
    /// pages in chain order, then `released(state)` once that page is
    /// unpinned.
    fn walk<S: ?Sized>(
        &self,
        bm: &BufferManager,
        b: usize,
        state: &mut S,
        mut read: impl FnMut(&mut S, &Page),
        mut released: impl FnMut(&mut S),
    ) -> Result<()> {
        let Some(chain) = self.chains[b] else {
            return Ok(());
        };
        let mut blk = chain.head;
        loop {
            let next = bm.with_page(self.data_rel, blk, |p| {
                read(state, p);
                read_special(p).0
            })?;
            released(state);
            if next == NO_NEXT {
                return Ok(());
            }
            blk = next;
        }
    }
}

/// Write `rows` into sequential pages of `rel`, one tuple per row, each
/// page filled before the next is started (centroid and codebook pages).
pub(crate) fn write_pages<'a>(
    bm: &BufferManager,
    rel: RelId,
    rows: impl IntoIterator<Item = &'a [u8]>,
) -> Result<()> {
    let mut current: Option<u32> = None;
    for bytes in rows {
        let placed = match current {
            Some(blk) => bm.with_page_mut(rel, blk, |p| p.add_item(bytes))?.is_some(),
            None => false,
        };
        if !placed {
            let (blk, _) = bm.new_page(rel, 0, |p| {
                // PANIC-OK: one centroid or codeword row is far below page capacity.
                p.add_item(bytes).expect("fresh page fits one row")
            })?;
            current = Some(blk);
        }
    }
    Ok(())
}

fn write_special(p: &mut Page, next: u32, bucket: u32) {
    let sp = p.special_mut();
    sp[0..4].copy_from_slice(&next.to_le_bytes());
    sp[4..8].copy_from_slice(&bucket.to_le_bytes());
}

fn read_special(p: &Page) -> (u32, u32) {
    let sp = p.special();
    (decode_u32_at(sp, 0), decode_u32_at(sp, 4))
}

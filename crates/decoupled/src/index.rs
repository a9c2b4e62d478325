//! The decoupled index: a native in-memory ANN structure with TID
//! back-links, fed by the change log.
//!
//! Internally this is a *slot map* over the specialized engine's index
//! types: native id `i` (the specialized indexes assign ids in
//! insertion order) is slot `i`, and slot `i` records the application
//! row id, the heap TID back-link, and liveness. Deletes tombstone the
//! slot — the native structures never shrink, matching how PostgreSQL
//! indexes keep dead entries until VACUUM — and searches over-fetch by
//! the tombstone count, then translate surviving native ids back to
//! application ids (attributed to [`Category::TidLookup`]).

use crate::changelog::{ChangeLog, ChangeRecord};
use crate::Consistency;
use std::collections::HashMap;
use vdb_filter::{FilterStrategy, SelectionBitmap};
use vdb_profile::{self as profile, Category};
use vdb_specialized::{
    FlatIndex, HnswIndex, HnswParams, IvfFlatIndex, IvfParams, IvfPqIndex, PqParams,
    SpecializedOptions, VectorIndex,
};
use vdb_storage::lockorder::LockClass;
use vdb_storage::sync::OrderedRwLock;
use vdb_storage::Tid;
use vdb_vecmath::{Neighbor, VectorSet};

/// Which native structure serves ANN, with its build parameters.
#[derive(Clone, Copy, Debug)]
pub enum NativeParams {
    /// Brute-force flat scan (exact).
    Flat,
    /// Inverted file over raw vectors.
    IvfFlat(IvfParams),
    /// Inverted file over PQ codes.
    IvfPq(IvfParams, PqParams),
    /// Hierarchical navigable small world graph.
    Hnsw(HnswParams),
}

impl NativeParams {
    /// The SQL access-method name (`decoupled_<kind>`).
    pub fn am_name(self) -> &'static str {
        match self {
            NativeParams::Flat => "decoupled_flat",
            NativeParams::IvfFlat(_) => "decoupled_ivfflat",
            NativeParams::IvfPq(..) => "decoupled_ivfpq",
            NativeParams::Hnsw(_) => "decoupled_hnsw",
        }
    }
}

/// The native ANN structure (specialized-engine internals reused).
enum Native {
    Flat(FlatIndex),
    IvfFlat(IvfFlatIndex),
    IvfPq(IvfPqIndex),
    Hnsw(HnswIndex),
}

impl Native {
    fn build(opts: SpecializedOptions, params: NativeParams, data: &VectorSet) -> Native {
        match params {
            NativeParams::Flat => Native::Flat(FlatIndex::new(opts, data.clone())),
            NativeParams::IvfFlat(ivf) => Native::IvfFlat(IvfFlatIndex::build(opts, ivf, data).0),
            NativeParams::IvfPq(ivf, pq) => Native::IvfPq(IvfPqIndex::build(opts, ivf, pq, data).0),
            NativeParams::Hnsw(h) => Native::Hnsw(HnswIndex::build(opts, h, data).0),
        }
    }

    /// Append one vector; the native id equals the insertion order.
    fn push(&mut self, v: &[f32]) -> u64 {
        match self {
            Native::Flat(ix) => {
                ix.add(v);
                (ix.len() - 1) as u64
            }
            Native::IvfFlat(ix) => ix.insert(v),
            Native::IvfPq(ix) => ix.insert(v),
            Native::Hnsw(ix) => u64::from(ix.insert(v)),
        }
    }

    fn search(&self, query: &[f32], k: usize, knob: Option<usize>) -> Vec<Neighbor> {
        match (self, knob) {
            (Native::IvfFlat(ix), Some(nprobe)) => ix.search_with_nprobe(query, k, nprobe),
            (Native::IvfPq(ix), Some(nprobe)) => ix.search_with_nprobe(query, k, nprobe),
            (Native::Hnsw(ix), Some(efs)) => ix.search_with_ef(query, k, efs),
            (Native::Flat(ix), _) => ix.search(query, k),
            (Native::IvfFlat(ix), None) => ix.search(query, k),
            (Native::IvfPq(ix), None) => ix.search(query, k),
            (Native::Hnsw(ix), None) => ix.search(query, k),
        }
    }

    /// Batched search (`vdb-serve`): flat and IVF_FLAT route through
    /// their query-batch × block SGEMM paths (bit-for-bit identical to
    /// [`Native::search`] per query); kinds without a batched native
    /// structure serve each query serially.
    fn search_batch(
        &self,
        queries: &VectorSet,
        ks: &[usize],
        knob: Option<usize>,
    ) -> Vec<Vec<Neighbor>> {
        match self {
            Native::Flat(ix) => ix.search_batch_gemm(queries, ks),
            Native::IvfFlat(ix) => {
                ix.search_batch_gemm(queries, ks, knob.unwrap_or(ix.default_nprobe()))
            }
            Native::IvfPq(_) | Native::Hnsw(_) => queries
                .iter()
                .zip(ks)
                .map(|(q, &k)| self.search(q, k, knob))
                .collect(),
        }
    }

    fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
    ) -> Vec<Neighbor> {
        match self {
            Native::Flat(ix) => ix.search_filtered(query, k, filter, strategy),
            Native::IvfFlat(ix) => ix.search_filtered(query, k, filter, strategy),
            Native::IvfPq(ix) => ix.search_filtered(query, k, filter, strategy),
            Native::Hnsw(ix) => ix.search_filtered(query, k, filter, strategy),
        }
    }

    fn len(&self) -> usize {
        match self {
            Native::Flat(ix) => ix.len(),
            Native::IvfFlat(ix) => ix.len(),
            Native::IvfPq(ix) => ix.len(),
            Native::Hnsw(ix) => ix.len(),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Native::Flat(ix) => ix.size_bytes(),
            Native::IvfFlat(ix) => ix.size_bytes(),
            Native::IvfPq(ix) => ix.size_bytes(),
            Native::Hnsw(ix) => ix.size_bytes(),
        }
    }
}

/// One native entry's row bookkeeping. Slot index == native id.
struct Slot {
    /// Application row id (SQL `id` cast to u64).
    id: u64,
    /// Heap tuple back-link.
    tid: Tid,
    /// False once deleted (tombstone).
    live: bool,
}

/// Everything the index lock protects.
struct Inner {
    native: Native,
    slots: Vec<Slot>,
    /// Latest live slot per application id (re-inserts win).
    by_id: HashMap<u64, u32>,
    /// For a slot that shadowed a live slot of the same id when it was
    /// added: that older slot, which becomes the id's latest again when
    /// this one is deleted. Duplicated ids only; empty otherwise.
    shadowed: HashMap<u32, u32>,
    /// Tombstone count — the search over-fetch margin.
    dead: usize,
}

impl Inner {
    fn apply(&mut self, rec: &ChangeRecord) {
        match rec {
            ChangeRecord::Insert { id, tid, vector } => {
                let native_id = self.native.push(vector);
                debug_assert_eq!(native_id as usize, self.slots.len());
                self.slots.push(Slot {
                    id: *id,
                    tid: *tid,
                    live: true,
                });
                if let Some(older) = self.by_id.insert(*id, native_id as u32) {
                    self.shadowed.insert(native_id as u32, older);
                }
            }
            // The SQL layer deletes an id's newest row, so the id's
            // latest slot goes, and the one it shadowed takes its place.
            ChangeRecord::Delete { id } => {
                if let Some(slot) = self.by_id.remove(id) {
                    let s = &mut self.slots[slot as usize];
                    if s.live {
                        s.live = false;
                        self.dead += 1;
                    }
                    if let Some(older) = self.shadowed.remove(&slot) {
                        self.by_id.insert(*id, older);
                    }
                }
            }
        }
    }
}

/// The decoupled engine's index: native ANN + slot map + change log.
///
/// All mutation goes through `&self` (interior mutability): writes
/// append to the change log, reads replay it as their consistency mode
/// requires. The inner lock sits at [`LockClass::DecoupledIndex`]; the
/// log's lock at [`LockClass::ChangeLog`]; the drain path takes them in
/// that order and nothing here ever enters the buffer pool while
/// holding either (vectors travel inline in the log).
pub struct DecoupledIndex {
    dim: usize,
    params: NativeParams,
    consistency: Consistency,
    log: ChangeLog,
    inner: OrderedRwLock<Inner>,
}

impl DecoupledIndex {
    /// Build over a loaded table: `ids[i]`/`tids[i]` describe the heap
    /// row whose vector is `data.row(i)`.
    ///
    /// # Panics
    /// Panics if the slices and `data` disagree on length or `data` is
    /// empty (the SQL layer rejects indexing an empty table first).
    pub fn build(
        opts: SpecializedOptions,
        params: NativeParams,
        consistency: Consistency,
        ids: &[u64],
        tids: &[Tid],
        data: &VectorSet,
    ) -> DecoupledIndex {
        assert_eq!(ids.len(), data.len(), "ids/data length mismatch");
        assert_eq!(tids.len(), data.len(), "tids/data length mismatch");
        assert!(!data.is_empty(), "cannot build over an empty table");
        let native = Native::build(opts, params, data);
        let mut by_id = HashMap::with_capacity(ids.len());
        let mut shadowed = HashMap::new();
        let slots = ids
            .iter()
            .zip(tids)
            .enumerate()
            .map(|(i, (&id, &tid))| {
                if let Some(older) = by_id.insert(id, i as u32) {
                    shadowed.insert(i as u32, older);
                }
                Slot {
                    id,
                    tid,
                    live: true,
                }
            })
            .collect();
        DecoupledIndex {
            dim: data.dim(),
            params,
            consistency,
            log: ChangeLog::new(),
            inner: OrderedRwLock::new(
                LockClass::DecoupledIndex,
                Inner {
                    native,
                    slots,
                    by_id,
                    shadowed,
                    dead: 0,
                },
            ),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The consistency mode this index runs under.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }

    /// Native kind + build parameters.
    pub fn params(&self) -> NativeParams {
        self.params
    }

    /// Current change-log lag (unapplied records).
    pub fn lag(&self) -> u64 {
        self.log.lag()
    }

    /// Log a row insert. Under [`Consistency::Sync`] the record is
    /// replayed before returning; under [`Consistency::Bounded`] the
    /// write returns after the append and a later read pays the replay.
    pub fn insert(&self, id: u64, tid: Tid, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        self.log.append(ChangeRecord::Insert {
            id,
            tid,
            vector: vector.to_vec(),
        });
        if self.consistency == Consistency::Sync {
            self.refresh();
        }
    }

    /// Log a row delete (tombstones the native entry on replay).
    pub fn delete(&self, id: u64) {
        self.log.append(ChangeRecord::Delete { id });
        if self.consistency == Consistency::Sync {
            self.refresh();
        }
    }

    /// Drain barrier: replay every pending change-log record. After
    /// this returns, searches reflect all writes that happened-before
    /// the call.
    pub fn refresh(&self) {
        let _t = profile::scoped(Category::ChangeLogReplay);
        let mut inner = self.inner.write();
        // GUARD-OK: DecoupledIndex -> ChangeLog is the sanctioned drain
        // descent (lockorder ranks 3 -> 4); replay applies in-memory
        // records only and never enters the buffer pool.
        self.log.drain_with(|rec| inner.apply(rec));
    }

    /// Read-path freshness check: drain if the lag exceeds the bound.
    fn refresh_if_stale(&self) {
        let bound = match self.consistency {
            // Sync replays at write time; the log is never behind.
            Consistency::Sync => return,
            Consistency::Bounded(n) => n,
        };
        if self.log.lag() > bound {
            self.refresh();
            // Staleness invariant: whatever raced in, everything up to
            // the head we drained is applied, so lag only reflects
            // appends that happened after the barrier.
            #[cfg(feature = "strict-invariants")]
            assert!(
                self.log.applied() + bound >= self.log.head().saturating_sub(bound),
                "bounded staleness violated after refresh"
            );
        }
    }

    /// Top-k search under this index's consistency mode.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_knob(query, k, None)
    }

    /// Top-k with a per-query knob (`nprobe` for IVF kinds, `efs` for
    /// HNSW; ignored by flat).
    pub fn search_with_knob(&self, query: &[f32], k: usize, knob: Option<usize>) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        self.refresh_if_stale();
        let inner = self.inner.read();
        // Over-fetch by the tombstone count so k live rows survive the
        // translation (approximate for HNSW, like any dead-entry AM).
        let want = k.saturating_add(inner.dead).min(inner.native.len());
        let found = inner.native.search(query, want, knob);
        translate(&inner, found, k)
    }

    /// Batched top-k under this index's consistency mode: one staleness
    /// check and one snapshot read lock serve the whole admission batch,
    /// and the native structure sees the batch at once (query-batch ×
    /// block SGEMM for flat and IVF_FLAT kinds). Per-query results are
    /// bit-for-bit identical to [`search_with_knob`](Self::search_with_knob).
    pub fn search_batch_with_knob(
        &self,
        queries: &VectorSet,
        ks: &[usize],
        knob: Option<usize>,
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.dim(), self.dim, "dimension mismatch");
        assert_eq!(queries.len(), ks.len(), "queries/ks length mismatch");
        self.refresh_if_stale();
        let inner = self.inner.read();
        let wants: Vec<usize> = ks
            .iter()
            .map(|&k| k.saturating_add(inner.dead).min(inner.native.len()))
            .collect();
        let found = inner.native.search_batch(queries, &wants, knob);
        found
            .into_iter()
            .zip(ks)
            .map(|(f, &k)| translate(&inner, f, k))
            .collect()
    }

    /// Hybrid (filtered) top-k: only application ids set in `filter`
    /// may appear.
    ///
    /// Pre-filter translates the application-id bitmap to native ids
    /// (dead slots drop out here) and runs the native engine's
    /// bitmap-qualified scan; post-filter runs the shared adaptive
    /// k-expansion loop over [`search_with_knob`](Self::search_with_knob)
    /// directly in application-id space.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &SelectionBitmap,
        strategy: FilterStrategy,
        knob: Option<usize>,
    ) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || filter.is_empty() {
            return Vec::new();
        }
        match strategy {
            FilterStrategy::PreFilter => {
                self.refresh_if_stale();
                let inner = self.inner.read();
                let native_filter = {
                    let _t = profile::scoped(Category::TidLookup);
                    let mut b = SelectionBitmap::new();
                    for app_id in filter.iter() {
                        if let Some(&slot) = inner.by_id.get(&app_id) {
                            if inner.slots[slot as usize].live {
                                b.insert(u64::from(slot));
                            }
                        }
                    }
                    b
                };
                if native_filter.is_empty() {
                    return Vec::new();
                }
                let found = inner
                    .native
                    .search_filtered(query, k, &native_filter, strategy);
                translate(&inner, found, k)
            }
            FilterStrategy::PostFilter => vdb_filter::post_filter_search(
                k,
                self.len(),
                vdb_filter::PostFilterParams::default(),
                |id| filter.contains(id),
                |k_prime| self.search_with_knob(query, k_prime, knob),
            ),
        }
    }

    /// Live entries in the native index. Under [`Consistency::Bounded`]
    /// this may trail the heap by up to the staleness bound.
    pub fn len(&self) -> usize {
        let inner = self.inner.read();
        inner.slots.len() - inner.dead
    }

    /// Whether the index currently has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live `(application id, heap TID)` back-links, in native-id
    /// order. Reflects only applied records — call
    /// [`refresh`](Self::refresh) first for a heap-consistent view.
    pub fn backlinks(&self) -> Vec<(u64, Tid)> {
        let inner = self.inner.read();
        inner
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| (s.id, s.tid))
            .collect()
    }

    /// In-memory footprint: native structure + slot map + pending log.
    pub fn size_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner.native.size_bytes() + inner.slots.len() * std::mem::size_of::<Slot>()
    }

    /// One-line description for EXPLAIN: access method, consistency
    /// mode, current lag.
    pub fn describe(&self) -> String {
        format!(
            "{}, consistency={}, lag={}",
            self.params.am_name(),
            self.consistency.describe(),
            self.lag()
        )
    }

    /// Runtime audit (strict-invariants builds): the replay cursor
    /// never passes the log head, and every live slot's TID back-link
    /// resolves to a live heap tuple carrying the slot's application
    /// id. Drains the log first so pending heap deletes are tombstoned
    /// before their TIDs are checked.
    ///
    /// # Panics
    /// Panics on any violated invariant — that is its job.
    #[cfg(feature = "strict-invariants")]
    pub fn audit_against_heap(
        &self,
        bm: &vdb_storage::BufferManager,
        heap: &vdb_storage::HeapTable,
    ) {
        let applied = self.log.applied();
        let head = self.log.head();
        assert!(
            applied <= head,
            "change-log cursor {applied} beyond head {head}"
        );
        self.refresh();
        // backlinks() collects under the read lock and drops the guard
        // before we touch the heap: fetches enter the buffer pool, and
        // holding the index lock across a pool entry is the inversion
        // the tracker kills.
        for (id, tid) in self.backlinks() {
            let stored = heap.fetch_bytes(bm, tid, vdb_storage::tuple::decode_id);
            match stored {
                Ok(stored_id) => assert!(
                    stored_id as u64 == id,
                    "TID back-link {tid:?} resolves to row id {stored_id}, index says {id}"
                ),
                // PANIC-OK: this audit's contract is to panic on a
                // dangling back-link (deleted or never-valid TID).
                Err(e) => panic!("TID back-link {tid:?} for id {id} dangles: {e}"),
            }
        }
    }
}

/// Map native-id neighbors to application-id neighbors, skipping
/// tombstones, keeping at most `k`.
fn translate(inner: &Inner, found: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    let _t = profile::scoped(Category::TidLookup);
    let mut out = Vec::with_capacity(k.min(found.len()));
    for n in found {
        let slot = &inner.slots[n.id as usize];
        if slot.live {
            out.push(Neighbor::new(slot.id, n.distance));
            if out.len() == k {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_datagen::gaussian::generate;

    fn tid_of(i: usize) -> Tid {
        Tid::new((i / 100) as u32, (i % 100) as u16)
    }

    fn build_flat(n: usize, consistency: Consistency) -> (DecoupledIndex, VectorSet) {
        let data = generate(4, n, 4, 17);
        let ids: Vec<u64> = (0..n as u64).map(|i| i + 1000).collect();
        let tids: Vec<Tid> = (0..n).map(tid_of).collect();
        let ix = DecoupledIndex::build(
            SpecializedOptions::default(),
            NativeParams::Flat,
            consistency,
            &ids,
            &tids,
            &data,
        );
        (ix, data)
    }

    #[test]
    fn search_returns_application_ids() {
        let (ix, data) = build_flat(50, Consistency::Sync);
        let res = ix.search(data.row(7), 1);
        assert_eq!(res[0].id, 1007);
        assert_eq!(res[0].distance, 0.0);
    }

    #[test]
    fn sync_insert_is_immediately_visible() {
        let (ix, _) = build_flat(20, Consistency::Sync);
        ix.insert(9999, tid_of(20), &[100.0, 100.0, 100.0, 100.0]);
        assert_eq!(ix.lag(), 0);
        let res = ix.search(&[100.0, 100.0, 100.0, 100.0], 1);
        assert_eq!(res[0].id, 9999);
        assert_eq!(ix.len(), 21);
    }

    #[test]
    fn bounded_insert_becomes_visible_past_the_bound() {
        let (ix, _) = build_flat(20, Consistency::Bounded(2));
        let far = [100.0, 100.0, 100.0, 100.0];
        ix.insert(9001, tid_of(21), &far);
        ix.insert(9002, tid_of(22), &far);
        // Lag 2 == bound: a search may serve stale results.
        assert_eq!(ix.lag(), 2);
        ix.insert(9003, tid_of(23), &far);
        // Lag 3 > bound: the next search must drain first.
        let res = ix.search(&far, 3);
        assert_eq!(ix.lag(), 0);
        let mut got: Vec<u64> = res.iter().map(|n| n.id).collect();
        got.sort_unstable();
        assert_eq!(got, vec![9001, 9002, 9003]);
    }

    /// Batched serving through the native structures equals serial
    /// serving bit-for-bit for every batch size, for flat and IVF_FLAT
    /// kinds, with per-query `k` mixed and tombstones in play (the
    /// over-fetch compensation must match the serial path's).
    #[test]
    fn batched_search_matches_serial_bit_for_bit() {
        let data = generate(8, 400, 8, 23);
        let ids: Vec<u64> = (0..400u64).map(|i| i + 1000).collect();
        let tids: Vec<Tid> = (0..400).map(tid_of).collect();
        let kinds = [
            NativeParams::Flat,
            NativeParams::IvfFlat(vdb_vecmath::IvfParams {
                clusters: 8,
                sample_ratio: 1.0,
                nprobe: 3,
            }),
        ];
        for params in kinds {
            let ix = DecoupledIndex::build(
                SpecializedOptions::default(),
                params,
                Consistency::Sync,
                &ids,
                &tids,
                &data,
            );
            // Tombstone a few rows so translation and over-fetch are live.
            ix.delete(1005);
            ix.delete(1123);
            for knob in [None, Some(5)] {
                for batch in 1..=8usize {
                    let mut queries = VectorSet::empty(data.dim());
                    let mut ks = Vec::new();
                    for i in 0..batch {
                        queries.push(data.row(17 * i + 2));
                        ks.push([1usize, 10, 100][i % 3]);
                    }
                    let batched = ix.search_batch_with_knob(&queries, &ks, knob);
                    for (qi, q) in queries.iter().enumerate() {
                        let serial = ix.search_with_knob(q, ks[qi], knob);
                        assert_eq!(serial.len(), batched[qi].len());
                        for (s, b) in serial.iter().zip(&batched[qi]) {
                            assert_eq!(s.id, b.id, "knob={knob:?} batch={batch} q={qi}");
                            assert_eq!(
                                s.distance.to_bits(),
                                b.distance.to_bits(),
                                "knob={knob:?} batch={batch} q={qi}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn delete_tombstones_and_overfetch_compensates() {
        let (ix, data) = build_flat(30, Consistency::Sync);
        let res = ix.search(data.row(3), 2);
        assert_eq!(res[0].id, 1003);
        let runner_up = res[1].id;
        ix.delete(1003);
        assert_eq!(ix.len(), 29);
        let res = ix.search(data.row(3), 1);
        assert_eq!(res[0].id, runner_up, "tombstoned row must not surface");
    }

    /// Each delete of a duplicated id tombstones the id's newest live
    /// entry, as the SQL layer deletes the newest row: no live entry
    /// is left pointing at a deleted row.
    #[test]
    fn deletes_of_a_duplicated_id_go_newest_first() {
        let (ix, _) = build_flat(10, Consistency::Sync);
        let links = |ix: &DecoupledIndex| -> Vec<Tid> {
            let mut v: Vec<Tid> = ix
                .backlinks()
                .into_iter()
                .filter(|&(id, _)| id == 7777)
                .map(|(_, tid)| tid)
                .collect();
            v.sort_unstable();
            v
        };
        for i in 10..13 {
            ix.insert(7777, tid_of(i), &[i as f32; 4]);
        }
        ix.delete(7777);
        assert_eq!(links(&ix), vec![tid_of(10), tid_of(11)]);
        ix.insert(7777, tid_of(13), &[13.0; 4]);
        ix.delete(7777);
        ix.delete(7777);
        assert_eq!(links(&ix), vec![tid_of(10)]);
        ix.delete(7777);
        assert_eq!(links(&ix), Vec::<Tid>::new());
        assert_eq!(ix.len(), 10);
    }

    #[test]
    fn refresh_is_a_barrier() {
        let (ix, _) = build_flat(10, Consistency::Bounded(1_000_000));
        ix.insert(7777, tid_of(10), &[9.0, 9.0, 9.0, 9.0]);
        // Bound is huge: a search alone would serve stale data.
        assert!(ix.lag() > 0);
        ix.refresh();
        assert_eq!(ix.lag(), 0);
        let res = ix.search(&[9.0, 9.0, 9.0, 9.0], 1);
        assert_eq!(res[0].id, 7777);
    }

    #[test]
    fn filtered_search_respects_bitmap_in_both_strategies() {
        let (ix, data) = build_flat(40, Consistency::Sync);
        let mut filter = SelectionBitmap::new();
        for id in [1003u64, 1011, 1029] {
            filter.insert(id);
        }
        for strategy in [FilterStrategy::PreFilter, FilterStrategy::PostFilter] {
            let res = ix.search_filtered(data.row(11), 2, &filter, strategy, None);
            assert_eq!(res[0].id, 1011, "{strategy:?}");
            assert!(
                res.iter().all(|n| filter.contains(n.id)),
                "{strategy:?} leaked a non-passing id"
            );
        }
    }

    #[test]
    fn filtered_search_sees_tombstones_and_lagged_inserts() {
        let (ix, data) = build_flat(40, Consistency::Bounded(0));
        ix.delete(1005);
        let mut filter = SelectionBitmap::new();
        filter.insert(1005);
        filter.insert(1006);
        let res = ix.search_filtered(data.row(5), 2, &filter, FilterStrategy::PreFilter, None);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 1006);
    }

    #[test]
    fn ivf_and_hnsw_kinds_agree_with_flat_on_exact_hit() {
        let data = generate(8, 300, 6, 23);
        let ids: Vec<u64> = (0..300u64).collect();
        let tids: Vec<Tid> = (0..300).map(tid_of).collect();
        let kinds = [
            NativeParams::IvfFlat(IvfParams {
                clusters: 8,
                sample_ratio: 0.5,
                nprobe: 8,
            }),
            NativeParams::Hnsw(HnswParams {
                bnn: 8,
                efb: 32,
                efs: 64,
            }),
        ];
        for params in kinds {
            let ix = DecoupledIndex::build(
                SpecializedOptions::default(),
                params,
                Consistency::Sync,
                &ids,
                &tids,
                &data,
            );
            let res = ix.search(data.row(123), 1);
            assert_eq!(res[0].id, 123, "{}", params.am_name());
        }
    }

    #[test]
    fn describe_names_mode_and_lag() {
        let (ix, _) = build_flat(10, Consistency::Bounded(8));
        ix.insert(50, tid_of(10), &[0.0; 4]);
        assert_eq!(
            ix.describe(),
            "decoupled_flat, consistency=bounded(8), lag=1"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_query_panics() {
        let (ix, _) = build_flat(10, Consistency::Sync);
        ix.search(&[1.0], 1);
    }
}

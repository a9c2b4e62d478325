//! Runtime-dispatched SIMD distance kernels and batched one-vs-many
//! scan primitives.
//!
//! The paper's RC#1 credits a large share of the PASE↔Faiss gap to
//! distance calculation: Faiss runs explicitly vectorized `fvec_L2sqr`
//! kernels while PASE runs a dependent-chain scalar loop. The portable
//! [`crate::distance::l2_sqr_unrolled`] loop relies on the
//! autovectorizer, which at the default `x86-64` target baseline emits
//! 4-wide SSE — half the width the hardware offers. This module closes
//! that realism gap for the specialized engine:
//!
//! * explicit AVX2+FMA kernels (8 lanes, four independent accumulators,
//!   masked tail) on `x86_64`, NEON (4 lanes, four accumulators) on
//!   `aarch64`, with the unrolled loop as the portable fallback;
//! * one-time runtime selection via `is_x86_feature_detected!` into a
//!   cached function-pointer table — no per-call feature checks;
//! * `VDB_FORCE_SCALAR=1` pins the fallback, so CI can prove both
//!   dispatch arms return identical search results;
//! * batched one-vs-many primitives ([`l2_sqr_batch`],
//!   [`inner_product_batch`], [`scan_into`], [`distance_gather`]) that
//!   hoist the profiling `enabled()` branch and event counting to once
//!   per batch instead of once per vector.
//!
//! The generalized (PASE-side) engine never calls into this module with
//! its default configuration: its `DistanceKernel::Reference` arm keeps
//! the dependent-chain loop, so the measured specialized-vs-generalized
//! gap stays honest (see DESIGN.md, "Kernel layer").

use crate::distance::{dot_unrolled, l2_sqr_unrolled, DistanceKernel};
use crate::heap::TopKSink;
use crate::metric::Metric;
use crate::vectors::VectorSet;
use std::sync::OnceLock;
use vdb_profile::{self as profile, Category};

/// Which implementation the one-time dispatcher selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActiveKernel {
    /// Explicit 8-lane AVX2 kernels with FMA accumulation (`x86_64`).
    Avx2Fma,
    /// Explicit 4-lane NEON kernels with FMA accumulation (`aarch64`).
    Neon,
    /// The portable unrolled loop (autovectorizer-dependent).
    Scalar,
}

/// Function-pointer table filled once at first use.
struct Kernels {
    l2: fn(&[f32], &[f32]) -> f32,
    dot: fn(&[f32], &[f32]) -> f32,
    which: ActiveKernel,
}

static KERNELS: OnceLock<Kernels> = OnceLock::new();

#[inline]
fn kernels() -> &'static Kernels {
    KERNELS.get_or_init(select_kernels)
}

const SCALAR_KERNELS: Kernels = Kernels {
    l2: l2_sqr_unrolled,
    dot: dot_unrolled,
    which: ActiveKernel::Scalar,
};

fn select_kernels() -> Kernels {
    if force_scalar() {
        return SCALAR_KERNELS;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Kernels {
                l2: x86::l2_sqr_avx2_safe,
                dot: x86::dot_avx2_safe,
                which: ActiveKernel::Avx2Fma,
            };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Kernels {
                l2: arm::l2_sqr_neon_safe,
                dot: arm::dot_neon_safe,
                which: ActiveKernel::Neon,
            };
        }
    }
    SCALAR_KERNELS
}

/// Whether `VDB_FORCE_SCALAR=1` pins the portable fallback (read once,
/// at first kernel use).
pub fn force_scalar() -> bool {
    matches!(std::env::var("VDB_FORCE_SCALAR"), Ok(v) if v == "1")
}

/// The kernel implementation selected for this process.
pub fn active_kernel() -> ActiveKernel {
    kernels().which
}

/// Squared L2 distance via the dispatched kernel. No profiling — callers
/// ([`crate::distance::l2_sqr`], the batch primitives) attribute.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_sqr_auto(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    (kernels().l2)(x, y)
}

/// Inner product via the dispatched kernel. No profiling — see
/// [`l2_sqr_auto`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn inner_product_auto(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    (kernels().dot)(x, y)
}

/// Squared L2 from `query` to every row of a row-major flat buffer.
/// One `DistanceCalc` count for the whole batch.
///
/// # Panics
/// Panics if `flat.len() != out.len() * query.len()`.
pub fn l2_sqr_batch_flat(query: &[f32], flat: &[f32], out: &mut [f32]) {
    let d = query.len();
    assert_eq!(
        flat.len(),
        out.len() * d,
        "flat buffer / output length mismatch"
    );
    if profile::enabled() {
        profile::count(Category::DistanceCalc, out.len() as u64);
    }
    let l2 = kernels().l2;
    for (o, row) in out.iter_mut().zip(flat.chunks_exact(d)) {
        *o = l2(query, row);
    }
}

/// Squared L2 from `query` to every row of `rows` — the batched
/// one-vs-many scan primitive the specialized engines use.
///
/// # Panics
/// Panics if `query.len() != rows.dim()` or `out.len() != rows.len()`.
pub fn l2_sqr_batch(query: &[f32], rows: &VectorSet, out: &mut [f32]) {
    assert_eq!(query.len(), rows.dim(), "dimension mismatch");
    l2_sqr_batch_flat(query, rows.as_flat(), out);
}

/// Inner product from `query` to every row of `rows`. One
/// `DistanceCalc` count for the whole batch.
///
/// # Panics
/// Panics if `query.len() != rows.dim()` or `out.len() != rows.len()`.
pub fn inner_product_batch(query: &[f32], rows: &VectorSet, out: &mut [f32]) {
    assert_eq!(query.len(), rows.dim(), "dimension mismatch");
    let d = query.len();
    assert_eq!(rows.len(), out.len(), "row / output length mismatch");
    if profile::enabled() {
        profile::count(Category::DistanceCalc, out.len() as u64);
    }
    let dot = kernels().dot;
    for (o, row) in out.iter_mut().zip(rows.as_flat().chunks_exact(d)) {
        *o = dot(query, row);
    }
}

/// Fused one-vs-many scan into a top-k sink: batched distances under one
/// `DistanceCalc` scope, then threshold-pruned pushes under one `MinHeap`
/// scope — the per-vector profiling branch and the per-push heap call
/// for rejected candidates are both gone.
///
/// `ids` supplies the id of each row; `None` numbers rows `0..n` (the
/// flat-scan case). `scratch` is caller-owned so repeated bucket scans
/// reuse one allocation. Falls back to the per-row kernel-faithful path
/// for metrics/kernels without a batched implementation (in particular
/// `DistanceKernel::Reference` keeps its dependent-chain loop and
/// per-call counting).
///
/// # Panics
/// Panics if `query.len() != rows.dim()` or `ids` is provided with a
/// length other than `rows.len()`.
pub fn scan_into<S: TopKSink>(
    metric: Metric,
    kernel: DistanceKernel,
    query: &[f32],
    rows: &VectorSet,
    ids: Option<&[u64]>,
    sink: &mut S,
    scratch: &mut Vec<f32>,
) {
    if let Some(ids) = ids {
        assert_eq!(ids.len(), rows.len(), "id / row count mismatch");
    }
    {
        let _t = profile::scoped(Category::DistanceCalc);
        metric.distance_batch(kernel, query, rows, scratch);
    }
    offer_scanned(sink, scratch, ids);
}

/// Offer one scan's distances to `sink` under one `MinHeap` scope: row
/// `i` as `ids[i]` (or `i` without `ids`) at `distances[i]`.
///
/// Faiss-style inline threshold check: a rejected row costs one compare,
/// never a heap call. A row is skipped only when its distance exceeds
/// the threshold, the one case [`crate::KHeap::push`] is sure to reject.
/// A row that ties the k-th distance may still win on its id, and a NaN
/// distance is offered like any other row, so the sink sees exactly the
/// candidates it would keep from a push of every row.
// `!(dist > thr)` is the test, not `dist <= thr`: a NaN on either side
// must offer the row.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn offer_scanned<S: TopKSink>(sink: &mut S, distances: &[f32], ids: Option<&[u64]>) {
    let _h = profile::scoped(Category::MinHeap);
    profile::count(Category::MinHeap, distances.len() as u64);
    let mut thr = sink.threshold();
    for (i, &dist) in distances.iter().enumerate() {
        if !(dist > thr) {
            sink.push(ids.map_or(i as u64, |s| s[i]), dist);
            thr = sink.threshold();
        }
    }
}

/// Distances from `query` to the scattered rows `ids` of `data`, with
/// profiling hoisted to one count per call — the graph-traversal variant
/// of the batch primitives (HNSW evaluates a node's unvisited neighbors
/// together).
///
/// # Panics
/// Panics if `query.len() != data.dim()` or any id is out of range.
pub fn distance_gather(
    metric: Metric,
    kernel: DistanceKernel,
    query: &[f32],
    data: &VectorSet,
    ids: &[u32],
    out: &mut Vec<f32>,
) {
    out.clear();
    match (metric, kernel) {
        (Metric::L2, DistanceKernel::Optimized) => {
            if profile::enabled() {
                profile::count(Category::DistanceCalc, ids.len() as u64);
            }
            let l2 = kernels().l2;
            out.extend(ids.iter().map(|&i| l2(query, data.row(i as usize))));
        }
        (Metric::InnerProduct, DistanceKernel::Optimized) => {
            if profile::enabled() {
                profile::count(Category::DistanceCalc, ids.len() as u64);
            }
            let dot = kernels().dot;
            out.extend(ids.iter().map(|&i| -dot(query, data.row(i as usize))));
        }
        _ => out.extend(
            ids.iter()
                .map(|&i| metric.distance_with(kernel, query, data.row(i as usize))),
        ),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `-1` lanes load, `0` lanes are skipped: `&TAIL_MASK[8 - rem]`
    /// yields a mask whose first `rem` lanes are set.
    static TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    // SAFETY: caller must ensure `rem < 8` (debug-asserted)
    // and that AVX2 is available; the load then stays inside
    // TAIL_MASK: start index 8-rem plus 8 lanes ends at 16-rem <= 16.
    #[inline]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        debug_assert!(rem < 8);
        _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - rem) as *const __m256i)
    }

    // SAFETY: register-only AVX shuffles/adds, no memory
    // access; caller must ensure AVX is available.
    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    /// 8-lane squared L2 with four independent FMA accumulators (32
    /// floats per main-loop iteration) and a masked tail, the Rust
    /// analogue of Faiss's AVX `fvec_L2sqr`.
    // SAFETY: caller must verify AVX2+FMA at runtime and pass
    // `y.len() >= x.len()`; all unaligned loads stay inside the two
    // borrowed slices (indices bounded by x.len()).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn l2_sqr_avx2(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let px = x.as_ptr();
        let py = y.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(px.add(i + 8)),
                _mm256_loadu_ps(py.add(i + 8)),
            );
            let d2 = _mm256_sub_ps(
                _mm256_loadu_ps(px.add(i + 16)),
                _mm256_loadu_ps(py.add(i + 16)),
            );
            let d3 = _mm256_sub_ps(
                _mm256_loadu_ps(px.add(i + 24)),
                _mm256_loadu_ps(py.add(i + 24)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += 32;
        }
        while i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let d = _mm256_sub_ps(
                _mm256_maskload_ps(px.add(i), m),
                _mm256_maskload_ps(py.add(i), m),
            );
            acc1 = _mm256_fmadd_ps(d, d, acc1);
        }
        hsum256(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ))
    }

    /// 8-lane inner product, same accumulator structure as
    /// [`l2_sqr_avx2`].
    // SAFETY: same as `l2_sqr_avx2` — AVX2+FMA verified by the
    // caller, loads bounded by x.len() within both slices.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_avx2(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let px = x.as_ptr();
        let py = y.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(px.add(i + 8)),
                _mm256_loadu_ps(py.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(px.add(i + 16)),
                _mm256_loadu_ps(py.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(px.add(i + 24)),
                _mm256_loadu_ps(py.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)), acc0);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            acc1 = _mm256_fmadd_ps(
                _mm256_maskload_ps(px.add(i), m),
                _mm256_maskload_ps(py.add(i), m),
                acc1,
            );
        }
        hsum256(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ))
    }

    /// Safe wrapper: only installed in the dispatch table after
    /// `is_x86_feature_detected!` confirms AVX2+FMA.
    pub(super) fn l2_sqr_avx2_safe(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: dispatch installed this only after
        // is_x86_feature_detected!("avx2"/"fma"); kernels validate lengths.
        unsafe { l2_sqr_avx2(x, y) }
    }

    /// Safe wrapper: see [`l2_sqr_avx2_safe`].
    pub(super) fn dot_avx2_safe(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: as in `l2_sqr_avx2_safe` — features runtime-verified.
        unsafe { dot_avx2(x, y) }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::*;

    /// 4-lane squared L2 with four independent FMA accumulators (16
    /// floats per main-loop iteration) and a scalar tail.
    // SAFETY: caller must verify NEON at runtime and pass
    // `y.len() >= x.len()`; loads are bounded by x.len() in both slices.
    #[target_feature(enable = "neon")]
    unsafe fn l2_sqr_neon(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let px = x.as_ptr();
        let py = y.as_ptr();
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut acc2 = vdupq_n_f32(0.0);
        let mut acc3 = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 16 <= n {
            let d0 = vsubq_f32(vld1q_f32(px.add(i)), vld1q_f32(py.add(i)));
            let d1 = vsubq_f32(vld1q_f32(px.add(i + 4)), vld1q_f32(py.add(i + 4)));
            let d2 = vsubq_f32(vld1q_f32(px.add(i + 8)), vld1q_f32(py.add(i + 8)));
            let d3 = vsubq_f32(vld1q_f32(px.add(i + 12)), vld1q_f32(py.add(i + 12)));
            acc0 = vfmaq_f32(acc0, d0, d0);
            acc1 = vfmaq_f32(acc1, d1, d1);
            acc2 = vfmaq_f32(acc2, d2, d2);
            acc3 = vfmaq_f32(acc3, d3, d3);
            i += 16;
        }
        while i + 4 <= n {
            let d = vsubq_f32(vld1q_f32(px.add(i)), vld1q_f32(py.add(i)));
            acc0 = vfmaq_f32(acc0, d, d);
            i += 4;
        }
        let mut tail = 0.0f32;
        while i < n {
            let d = *px.add(i) - *py.add(i);
            tail += d * d;
            i += 1;
        }
        vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3))) + tail
    }

    /// 4-lane inner product, same structure as [`l2_sqr_neon`].
    // SAFETY: same as `l2_sqr_neon`.
    #[target_feature(enable = "neon")]
    unsafe fn dot_neon(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let px = x.as_ptr();
        let py = y.as_ptr();
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut acc2 = vdupq_n_f32(0.0);
        let mut acc3 = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 16 <= n {
            acc0 = vfmaq_f32(acc0, vld1q_f32(px.add(i)), vld1q_f32(py.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(px.add(i + 4)), vld1q_f32(py.add(i + 4)));
            acc2 = vfmaq_f32(acc2, vld1q_f32(px.add(i + 8)), vld1q_f32(py.add(i + 8)));
            acc3 = vfmaq_f32(acc3, vld1q_f32(px.add(i + 12)), vld1q_f32(py.add(i + 12)));
            i += 16;
        }
        while i + 4 <= n {
            acc0 = vfmaq_f32(acc0, vld1q_f32(px.add(i)), vld1q_f32(py.add(i)));
            i += 4;
        }
        let mut tail = 0.0f32;
        while i < n {
            tail += *px.add(i) * *py.add(i);
            i += 1;
        }
        vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3))) + tail
    }

    /// Safe wrapper: only installed after NEON detection.
    pub(super) fn l2_sqr_neon_safe(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: dispatch installed this only after NEON detection.
        unsafe { l2_sqr_neon(x, y) }
    }

    /// Safe wrapper: see [`l2_sqr_neon_safe`].
    pub(super) fn dot_neon_safe(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: as in `l2_sqr_neon_safe` — NEON runtime-verified.
        unsafe { dot_neon(x, y) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_sqr_ref;
    use crate::heap::KHeap;

    fn vecs(len: usize) -> (Vec<f32>, Vec<f32>) {
        let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let y: Vec<f32> = (0..len).map(|i| (i as f32 * 0.71).cos() * 2.0).collect();
        (x, y)
    }

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-3 * (1.0 + b.abs())
    }

    #[test]
    fn auto_matches_reference_across_lengths() {
        // Every main-loop/tail boundary: multiples of 32 and 8, plus
        // every tail length 1..=7.
        for len in [
            0usize, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 128, 960,
        ] {
            let (x, y) = vecs(len);
            assert!(
                close(l2_sqr_auto(&x, &y), l2_sqr_ref(&x, &y)),
                "l2 len={len}: {} vs {}",
                l2_sqr_auto(&x, &y),
                l2_sqr_ref(&x, &y)
            );
            let dot_ref: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!(
                close(inner_product_auto(&x, &y), dot_ref),
                "dot len={len}: {} vs {dot_ref}",
                inner_product_auto(&x, &y)
            );
        }
    }

    #[test]
    fn auto_handles_unaligned_subslices() {
        let (x, y) = vecs(130);
        for off in 1..5 {
            let a = &x[off..off + 96 + off];
            let b = &y[off..off + 96 + off];
            assert!(close(l2_sqr_auto(a, b), l2_sqr_ref(a, b)), "offset {off}");
        }
    }

    #[test]
    fn batch_matches_per_call() {
        let d = 24;
        let (q, _) = vecs(d);
        let mut rows = VectorSet::empty(d);
        for s in 0..37 {
            let v: Vec<f32> = (0..d).map(|i| ((i + s) as f32 * 0.13).sin()).collect();
            rows.push(&v);
        }
        let mut out = vec![0.0; rows.len()];
        l2_sqr_batch(&q, &rows, &mut out);
        for (i, &got) in out.iter().enumerate() {
            assert_eq!(got, l2_sqr_auto(&q, rows.row(i)), "row {i}");
        }
        inner_product_batch(&q, &rows, &mut out);
        for (i, &got) in out.iter().enumerate() {
            assert_eq!(got, inner_product_auto(&q, rows.row(i)), "row {i}");
        }
    }

    #[test]
    fn scan_into_matches_manual_pushes() {
        let d = 16;
        let (q, _) = vecs(d);
        let mut rows = VectorSet::empty(d);
        for s in 0..200 {
            let v: Vec<f32> = (0..d).map(|i| ((i * 7 + s) as f32 * 0.29).cos()).collect();
            rows.push(&v);
        }
        let mut ids: Vec<u64> = (0..rows.len() as u64).map(|i| i * 3 + 5).collect();
        // Tie-heavy tail: copies of the query's nearest rows under
        // descending ids, so a copy ties a kept distance with a smaller id.
        let nearest = {
            let mut heap = KHeap::new(4);
            for (i, v) in rows.iter().enumerate() {
                heap.push(i as u64, l2_sqr_auto(&q, v));
            }
            heap.into_sorted()
        };
        for copy in 0..3u64 {
            for n in &nearest {
                let v = rows.row(n.id as usize).to_vec();
                rows.push(&v);
                ids.push(4 - copy);
            }
        }

        for k in [1usize, 4, 10] {
            let mut fused = KHeap::new(k);
            let mut scratch = Vec::new();
            scan_into(
                Metric::L2,
                DistanceKernel::Optimized,
                &q,
                &rows,
                Some(&ids),
                &mut fused,
                &mut scratch,
            );

            let mut manual = KHeap::new(k);
            for (i, v) in rows.iter().enumerate() {
                manual.push(ids[i], l2_sqr_auto(&q, v));
            }
            assert_eq!(fused.into_sorted(), manual.into_sorted(), "k={k}");
        }
    }

    /// A NaN distance is offered while the heap has room, as a push of
    /// every row would.
    #[test]
    fn offer_scanned_keeps_nan_while_not_full() {
        let mut heap = KHeap::new(3);
        offer_scanned(&mut heap, &[1.0, f32::NAN, 2.0], None);
        let ids: Vec<u64> = heap.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 2, 1]);
    }

    #[test]
    fn scan_into_default_ids_are_row_indices() {
        let rows = VectorSet::from_flat(2, vec![0.0, 0.0, 5.0, 5.0, 1.0, 0.0]);
        let mut heap = KHeap::new(2);
        let mut scratch = Vec::new();
        scan_into(
            Metric::L2,
            DistanceKernel::Reference,
            &[0.0, 0.0],
            &rows,
            None,
            &mut heap,
            &mut scratch,
        );
        let out = heap.into_sorted();
        assert_eq!(out[0].id, 0);
        assert_eq!(out[1].id, 2);
    }

    #[test]
    fn gather_matches_metric() {
        let d = 20;
        let (q, _) = vecs(d);
        let mut data = VectorSet::empty(d);
        for s in 0..50 {
            let v: Vec<f32> = (0..d).map(|i| ((i + 3 * s) as f32 * 0.41).sin()).collect();
            data.push(&v);
        }
        let ids = [49u32, 0, 7, 7, 13];
        let mut out = Vec::new();
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            distance_gather(metric, DistanceKernel::Optimized, &q, &data, &ids, &mut out);
            assert_eq!(out.len(), ids.len());
            for (&i, &got) in ids.iter().zip(&out) {
                let want =
                    metric.distance_with(DistanceKernel::Optimized, &q, data.row(i as usize));
                assert_eq!(got, want, "metric {metric:?} id {i}");
            }
        }
    }

    #[test]
    fn active_kernel_is_stable() {
        assert_eq!(active_kernel(), active_kernel());
    }
}

//! Dispatched micro-kernels for the blocked GEMM.
//!
//! `vdb-vecmath` depends on this crate, so the one-vs-one kernels in
//! `vecmath::simd` cannot be reused here; this is the same
//! detect-once-into-a-function-pointer scheme (including the
//! `VDB_FORCE_SCALAR=1` override) scoped to the two primitives the
//! blocked kernel needs:
//!
//! * [`tile16`] — an `r×16` register tile accumulated over the whole
//!   shared dimension against a packed panel. Keeping the accumulator
//!   tile in vector registers for the entire depth loop is what turns
//!   the kernel from load-bound (one FMA per accumulator round trip)
//!   into compute-bound: each packed-panel load is reused `r` times.
//! * [`dot`] — a plain two-vector inner product, for the small-`m`
//!   serving shapes where panel packing costs more than it saves.
//!
//! Dispatch happens once per process; the indirect call is amortized
//! over a full depth loop (tile) or a full row (dot), not paid per
//! element.

use std::sync::OnceLock;

/// Columns per register tile (two 8-lane vectors).
pub(crate) const NR: usize = 16;

/// Rows per register tile. Six keeps the 12 accumulator vectors plus
/// two panel loads and one broadcast inside a 16-register vector file.
pub(crate) const MR: usize = 6;

type TileFn = fn(usize, usize, &[f32], usize, usize, usize, &[f32], usize, usize, &mut [f32]);
type DotFn = fn(&[f32], &[f32]) -> f32;

static TILE: OnceLock<TileFn> = OnceLock::new();
static DOT: OnceLock<DotFn> = OnceLock::new();

fn force_scalar() -> bool {
    matches!(std::env::var("VDB_FORCE_SCALAR"), Ok(v) if v == "1")
}

/// `out[row][j] = Σ_p a[(i0+row)·k + p0+p] · bp[p·ncp + jj+j]` for
/// `row < r`, `j < NR`, accumulated over `p < kc`.
///
/// `bp` is a packed panel in `[p][j]` order with row stride `ncp`; the
/// caller guarantees `jj + NR <= ncp` (panels are padded to a multiple
/// of [`NR`]) and that `a` covers rows `i0..i0+r` up to depth
/// `p0 + kc`. Results land in `out[row*NR..][..NR]`; lanes past the
/// caller's real column count hold pad products and must be discarded
/// by the caller.
///
/// # Panics
/// Panics (in the scalar path, via slice indexing) if the bounds above
/// are violated; `r` must be in `1..=MR` and `out` at least `MR*NR`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile16(
    r: usize,
    kc: usize,
    a: &[f32],
    k: usize,
    i0: usize,
    p0: usize,
    bp: &[f32],
    ncp: usize,
    jj: usize,
    out: &mut [f32],
) {
    debug_assert!((1..=MR).contains(&r) && out.len() >= MR * NR);
    debug_assert!(jj + NR <= ncp && kc * ncp <= bp.len());
    debug_assert!((i0 + r - 1) * k + p0 + kc <= a.len());
    (TILE.get_or_init(select_tile))(r, kc, a, k, i0, p0, bp, ncp, jj, out)
}

/// Inner product via the best kernel the host supports.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    (DOT.get_or_init(select_dot))(a, b)
}

fn select_tile() -> TileFn {
    if force_scalar() {
        return tile16_scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return tile16_avx2_safe;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return tile16_neon_safe;
        }
    }
    tile16_scalar
}

fn select_dot() -> DotFn {
    if force_scalar() {
        return dot_scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return dot_avx2_safe;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return dot_neon_safe;
        }
    }
    dot_scalar
}

/// Portable tile fallback: fixed-width accumulator arrays the compiler
/// can keep in whatever vectors the baseline target offers.
#[allow(clippy::too_many_arguments)]
fn tile16_scalar(
    r: usize,
    kc: usize,
    a: &[f32],
    k: usize,
    i0: usize,
    p0: usize,
    bp: &[f32],
    ncp: usize,
    jj: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let brow = &bp[p * ncp + jj..p * ncp + jj + NR];
        for (row, accr) in acc.iter_mut().enumerate().take(r) {
            let av = a[(i0 + row) * k + p0 + p];
            for (dst, &bv) in accr.iter_mut().zip(brow) {
                *dst += av * bv;
            }
        }
    }
    for (row, accr) in acc.iter().enumerate().take(r) {
        out[row * NR..row * NR + NR].copy_from_slice(accr);
    }
}

/// Portable dot fallback with eight-lane accumulation (the same
/// reassociation every SIMD arm performs, so scalar-forced runs keep
/// comparable rounding).
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for (lane, (&x, &y)) in acc.iter_mut().zip(xa.iter().zip(xb)) {
            *lane += x * y;
        }
    }
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| x * y)
        .sum();
    acc.iter().sum::<f32>() + tail
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn tile16_avx2_safe(
    r: usize,
    kc: usize,
    a: &[f32],
    k: usize,
    i0: usize,
    p0: usize,
    bp: &[f32],
    ncp: usize,
    jj: usize,
    out: &mut [f32],
) {
    // SAFETY: installed by `select_tile` only after AVX2+FMA detection;
    // bounds are the documented `tile16` contract, debug-asserted there.
    unsafe {
        match r {
            1 => tile16_avx2::<1>(kc, a, k, i0, p0, bp, ncp, jj, out),
            2 => tile16_avx2::<2>(kc, a, k, i0, p0, bp, ncp, jj, out),
            3 => tile16_avx2::<3>(kc, a, k, i0, p0, bp, ncp, jj, out),
            4 => tile16_avx2::<4>(kc, a, k, i0, p0, bp, ncp, jj, out),
            5 => tile16_avx2::<5>(kc, a, k, i0, p0, bp, ncp, jj, out),
            _ => tile16_avx2::<6>(kc, a, k, i0, p0, bp, ncp, jj, out),
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: caller must verify AVX2+FMA at runtime and uphold the
// `tile16` bounds contract; all pointer arithmetic below stays inside
// the borrowed slices under that contract.
unsafe fn tile16_avx2<const R: usize>(
    kc: usize,
    a: &[f32],
    k: usize,
    i0: usize,
    p0: usize,
    bp: &[f32],
    ncp: usize,
    jj: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let pa = a.as_ptr();
    let pb = bp.as_ptr();
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(p * ncp + jj));
        let b1 = _mm256_loadu_ps(pb.add(p * ncp + jj + 8));
        for (row, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*pa.add((i0 + row) * k + p0 + p));
            accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
        }
    }
    let po = out.as_mut_ptr();
    for (row, accr) in acc.iter().enumerate() {
        _mm256_storeu_ps(po.add(row * NR), accr[0]);
        _mm256_storeu_ps(po.add(row * NR + 8), accr[1]);
    }
}

#[cfg(target_arch = "x86_64")]
fn dot_avx2_safe(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed by `select_dot` only after AVX2+FMA detection;
    // `dot` asserts equal lengths.
    unsafe { dot_avx2(a, b) }
}

#[cfg(target_arch = "x86_64")]
// SAFETY: caller must verify AVX2+FMA at runtime and pass equal-length
// slices; accesses are bounded by a.len().
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut s0 = _mm256_setzero_ps();
    let mut s1 = _mm256_setzero_ps();
    let mut j = 0usize;
    while j + 16 <= n {
        s0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pb.add(j)), s0);
        s1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(j + 8)),
            _mm256_loadu_ps(pb.add(j + 8)),
            s1,
        );
        j += 16;
    }
    if j + 8 <= n {
        s0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pb.add(j)), s0);
        j += 8;
    }
    let s = _mm256_add_ps(s0, s1);
    let hi = _mm256_extractf128_ps(s, 1);
    let lo = _mm256_castps256_ps128(s);
    let q = _mm_add_ps(lo, hi);
    let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 0b01));
    let mut acc = _mm_cvtss_f32(q);
    while j < n {
        acc += *pa.add(j) * *pb.add(j);
        j += 1;
    }
    acc
}

#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
fn tile16_neon_safe(
    r: usize,
    kc: usize,
    a: &[f32],
    k: usize,
    i0: usize,
    p0: usize,
    bp: &[f32],
    ncp: usize,
    jj: usize,
    out: &mut [f32],
) {
    // SAFETY: installed by `select_tile` only after NEON detection;
    // bounds are the documented `tile16` contract.
    unsafe {
        match r {
            1 => tile16_neon::<1>(kc, a, k, i0, p0, bp, ncp, jj, out),
            2 => tile16_neon::<2>(kc, a, k, i0, p0, bp, ncp, jj, out),
            3 => tile16_neon::<3>(kc, a, k, i0, p0, bp, ncp, jj, out),
            4 => tile16_neon::<4>(kc, a, k, i0, p0, bp, ncp, jj, out),
            5 => tile16_neon::<5>(kc, a, k, i0, p0, bp, ncp, jj, out),
            _ => tile16_neon::<6>(kc, a, k, i0, p0, bp, ncp, jj, out),
        }
    }
}

#[cfg(target_arch = "aarch64")]
// SAFETY: caller must verify NEON at runtime and uphold the `tile16`
// bounds contract.
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile16_neon<const R: usize>(
    kc: usize,
    a: &[f32],
    k: usize,
    i0: usize,
    p0: usize,
    bp: &[f32],
    ncp: usize,
    jj: usize,
    out: &mut [f32],
) {
    use std::arch::aarch64::*;
    let pa = a.as_ptr();
    let pb = bp.as_ptr();
    let mut acc = [[vdupq_n_f32(0.0); 4]; R];
    for p in 0..kc {
        let b = [
            vld1q_f32(pb.add(p * ncp + jj)),
            vld1q_f32(pb.add(p * ncp + jj + 4)),
            vld1q_f32(pb.add(p * ncp + jj + 8)),
            vld1q_f32(pb.add(p * ncp + jj + 12)),
        ];
        for (row, accr) in acc.iter_mut().enumerate() {
            let av = vdupq_n_f32(*pa.add((i0 + row) * k + p0 + p));
            for (dst, &bv) in accr.iter_mut().zip(&b) {
                *dst = vfmaq_f32(*dst, av, bv);
            }
        }
    }
    let po = out.as_mut_ptr();
    for (row, accr) in acc.iter().enumerate() {
        for (q, &v) in accr.iter().enumerate() {
            vst1q_f32(po.add(row * NR + q * 4), v);
        }
    }
}

#[cfg(target_arch = "aarch64")]
fn dot_neon_safe(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed by `select_dot` only after NEON detection;
    // `dot` asserts equal lengths.
    unsafe { dot_neon(a, b) }
}

#[cfg(target_arch = "aarch64")]
// SAFETY: caller must verify NEON at runtime and pass equal-length
// slices; accesses are bounded by a.len().
#[target_feature(enable = "neon")]
unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut s0 = vdupq_n_f32(0.0);
    let mut s1 = vdupq_n_f32(0.0);
    let mut j = 0usize;
    while j + 8 <= n {
        s0 = vfmaq_f32(s0, vld1q_f32(pa.add(j)), vld1q_f32(pb.add(j)));
        s1 = vfmaq_f32(s1, vld1q_f32(pa.add(j + 4)), vld1q_f32(pb.add(j + 4)));
        j += 8;
    }
    if j + 4 <= n {
        s0 = vfmaq_f32(s0, vld1q_f32(pa.add(j)), vld1q_f32(pb.add(j)));
        j += 4;
    }
    let mut acc = vaddvq_f32(vaddq_f32(s0, s1));
    while j < n {
        acc += *pa.add(j) * *pb.add(j);
        j += 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, mul: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * mul).sin()).collect()
    }

    #[test]
    fn dot_matches_scalar() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 128] {
            let a = series(n, 0.3);
            let b = series(n, 0.7);
            let fast = dot(&a, &b);
            let slow = dot_scalar(&a, &b);
            assert!(
                (fast - slow).abs() <= 1e-4 * (1.0 + slow.abs()),
                "n={n}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn tile_matches_scalar_for_every_row_count() {
        let k = 37;
        let kc = k;
        let ncp = NR; // one strip, no padding
        let a = series(MR * k, 0.11);
        let bp = series(kc * ncp, 0.23);
        for r in 1..=MR {
            let mut fast = [0.0f32; MR * NR];
            let mut slow = [0.0f32; MR * NR];
            tile16(r, kc, &a, k, 0, 0, &bp, ncp, 0, &mut fast);
            tile16_scalar(r, kc, &a, k, 0, 0, &bp, ncp, 0, &mut slow);
            for (i, (x, y)) in fast.iter().zip(&slow).enumerate().take(r * NR) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "r={r} lane {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn tile_respects_row_and_panel_offsets() {
        // Non-zero i0/p0/jj must address the same values the scalar
        // path sees.
        let k = 24;
        let (kc, p0, i0, jj) = (16, 8, 2, 16);
        let ncp = 2 * NR;
        let a = series((i0 + MR) * k, 0.31);
        let bp = series(kc * ncp, 0.17);
        let mut fast = [0.0f32; MR * NR];
        let mut slow = [0.0f32; MR * NR];
        tile16(3, kc, &a, k, i0, p0, &bp, ncp, jj, &mut fast);
        tile16_scalar(3, kc, &a, k, i0, p0, &bp, ncp, jj, &mut slow);
        for (i, (x, y)) in fast.iter().zip(&slow).enumerate().take(3 * NR) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                "lane {i}: {x} vs {y}"
            );
        }
    }
}

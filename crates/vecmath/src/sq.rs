//! Scalar quantization (the SQ8 in IVF_SQ8).
//!
//! The paper's index survey (§II-B) lists IVF_SQ8 alongside IVF_FLAT
//! and IVF_PQ as a quantization-based index implemented by the major
//! systems; the evaluation focuses on the other three, so this is the
//! repository's "extension" index. Each dimension is linearly mapped to
//! one byte using per-dimension `[min, max]` ranges learned at training
//! time — 4× smaller than raw floats, far gentler on recall than PQ.

use crate::vectors::VectorSet;

/// A trained per-dimension 8-bit scalar quantizer.
#[derive(Clone, Debug)]
pub struct ScalarQuantizer {
    mins: Vec<f32>,
    /// Per-dimension step `(max - min) / 255`; zero-width dimensions
    /// store 0 and always decode to `min`.
    steps: Vec<f32>,
}

impl ScalarQuantizer {
    /// Learn per-dimension ranges from training vectors.
    ///
    /// # Panics
    /// Panics if `training` is empty.
    pub fn train(training: &VectorSet) -> ScalarQuantizer {
        assert!(!training.is_empty(), "cannot train SQ8 on an empty set");
        let d = training.dim();
        let mut mins = vec![f32::INFINITY; d];
        let mut maxs = vec![f32::NEG_INFINITY; d];
        for v in training.iter() {
            for (j, &x) in v.iter().enumerate() {
                mins[j] = mins[j].min(x);
                maxs[j] = maxs[j].max(x);
            }
        }
        let steps = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        ScalarQuantizer { mins, steps }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Encode a vector to one byte per dimension.
    ///
    /// # Panics
    /// Panics if `v.len() != dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim(), "dimension mismatch");
        v.iter()
            .enumerate()
            .map(|(j, &x)| {
                if self.steps[j] == 0.0 {
                    0
                } else {
                    (((x - self.mins[j]) / self.steps[j]).round()).clamp(0.0, 255.0) as u8
                }
            })
            .collect()
    }

    /// Reconstruct the vector a code represents (bin centers).
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.dim(), "code length mismatch");
        code.iter()
            .enumerate()
            .map(|(j, &c)| self.mins[j] + c as f32 * self.steps[j])
            .collect()
    }

    /// Asymmetric squared L2 between a float query and a code, without
    /// materializing the decoded vector.
    pub fn asym_l2_sqr(&self, query: &[f32], code: &[u8]) -> f32 {
        debug_assert_eq!(query.len(), self.dim());
        debug_assert_eq!(code.len(), self.dim());
        let mut acc = 0.0f32;
        for j in 0..query.len() {
            let decoded = self.mins[j] + code[j] as f32 * self.steps[j];
            let diff = query[j] - decoded;
            acc += diff * diff;
        }
        acc
    }

    /// [`ScalarQuantizer::asym_l2_sqr`] with four independent
    /// accumulators instead of a dependent chain. The IVF scans run it
    /// over a whole bucket of packed codes (the `Optimized` kernel) and
    /// attribute the whole bucket.
    #[inline]
    pub fn asym_l2_sqr_unrolled(&self, query: &[f32], code: &[u8]) -> f32 {
        let n = query.len();
        let mut acc = [0.0f32; 4];
        let mut j = 0usize;
        while j + 4 <= n {
            for (lane, a) in acc.iter_mut().enumerate() {
                let i = j + lane;
                let decoded = self.mins[i] + code[i] as f32 * self.steps[i];
                let diff = query[i] - decoded;
                *a += diff * diff;
            }
            j += 4;
        }
        let mut tail = 0.0f32;
        while j < n {
            let decoded = self.mins[j] + code[j] as f32 * self.steps[j];
            let diff = query[j] - decoded;
            tail += diff * diff;
            j += 1;
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// Worst-case per-dimension quantization error (half a step).
    pub fn max_per_dim_error(&self) -> f32 {
        self.steps.iter().fold(0.0f32, |m, &s| m.max(s / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_sqr_ref;
    use crate::rng::cases;

    fn training() -> VectorSet {
        let mut vs = VectorSet::empty(4);
        let mut state = 7u64;
        for _ in 0..200 {
            let v: Vec<f32> = (0..4)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as f32 / (1u64 << 31) as f32 * 10.0 - 5.0
                })
                .collect();
            vs.push(&v);
        }
        vs
    }

    #[test]
    fn encode_decode_error_bounded_by_half_step() {
        let data = training();
        let sq = ScalarQuantizer::train(&data);
        let tol = sq.max_per_dim_error() * 1.001;
        for v in data.iter() {
            let back = sq.decode(&sq.encode(v));
            for (a, b) in v.iter().zip(&back) {
                assert!((a - b).abs() <= tol, "{a} vs {b}, tol {tol}");
            }
        }
    }

    #[test]
    fn asym_distance_matches_decoded_distance() {
        let data = training();
        let sq = ScalarQuantizer::train(&data);
        let q = data.row(0);
        let code = sq.encode(data.row(1));
        let direct = l2_sqr_ref(q, &sq.decode(&code));
        let asym = sq.asym_l2_sqr(q, &code);
        assert!((direct - asym).abs() < 1e-3 * (1.0 + direct));
    }

    #[test]
    fn constant_dimension_is_stable() {
        let mut vs = VectorSet::empty(2);
        for i in 0..10 {
            vs.push(&[42.0, i as f32]);
        }
        let sq = ScalarQuantizer::train(&vs);
        let code = sq.encode(&[42.0, 5.0]);
        let back = sq.decode(&code);
        assert_eq!(back[0], 42.0);
    }

    #[test]
    fn asym_batch_matches_per_code() {
        let data = training();
        let sq = ScalarQuantizer::train(&data);
        let q = data.row(0);
        let mut packed = Vec::new();
        for i in 1..50 {
            packed.extend_from_slice(&sq.encode(data.row(i)));
        }
        for (i, code) in packed.chunks_exact(sq.dim()).enumerate() {
            let got = sq.asym_l2_sqr_unrolled(q, code);
            let want = sq.asym_l2_sqr(q, code);
            assert!(
                (got - want).abs() <= 1e-3 * (1.0 + want),
                "code {i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let data = training();
        let sq = ScalarQuantizer::train(&data);
        // Far beyond the trained range: must clamp, not wrap.
        let code = sq.encode(&[1e6, -1e6, 0.0, 0.0]);
        assert_eq!(code[0], 255);
        assert_eq!(code[1], 0);
    }

    /// The error bound holds for any *in-range* vector: blend two
    /// training rows (the trained ranges are per-dimension convex).
    #[test]
    fn prop_round_trip_error_bounded() {
        let data = training();
        let sq = ScalarQuantizer::train(&data);
        let tol = sq.max_per_dim_error() * 1.001;
        cases("prop_round_trip_error_bounded", 256, |rng| {
            let i = rng.range_usize(0..200);
            let j = rng.range_usize(0..200);
            let alpha = rng.range_f32(0.0..1.0);
            let v: Vec<f32> = data
                .row(i)
                .iter()
                .zip(data.row(j))
                .map(|(a, b)| a * alpha + b * (1.0 - alpha))
                .collect();
            let back = sq.decode(&sq.encode(&v));
            for (a, b) in v.iter().zip(&back) {
                assert!((a - b).abs() <= tol, "{a} vs {b}, tol {tol}");
            }
        });
    }
}

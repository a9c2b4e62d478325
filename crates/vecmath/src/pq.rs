//! Product quantization (the PQ in IVF_PQ) — RC#7.
//!
//! A vector is split into `m` sub-vectors; each subspace gets its own
//! `cpq`-entry codebook (k-means over the sub-vectors), so a vector is
//! encoded in `m` bytes (with `cpq ≤ 256`). Asymmetric distance
//! computation (ADC) answers queries against codes via a per-query
//! *precomputed table* of query-sub-vector ↔ codeword distances.
//!
//! §VII-B of the paper: Faiss builds that table by decomposing
//! `‖q − c‖² = ‖q‖² + ‖c‖² − 2·q·c` with codeword norms `‖c‖²` computed
//! once at *training* time, while PASE recomputes full subtract-square
//! distances per query. Both paths are implemented as [`PqTableMode`]s.

use crate::distance::l2_sqr_ref;
use crate::kmeans::{Kmeans, KmeansFlavor, KmeansParams};
use crate::vectors::VectorSet;
use vdb_gemm::GemmKernel;
use vdb_profile::{self as profile, Category};

/// How the per-query ADC table is computed (RC#7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PqTableMode {
    /// Norms-plus-inner-product decomposition with codeword norms
    /// precomputed at training time (Faiss).
    #[default]
    Optimized,
    /// Full subtract-square distance per table entry, recomputed every
    /// query (PASE).
    Straightforward,
}

/// A trained product quantizer.
#[derive(Clone, Debug)]
pub struct ProductQuantizer {
    d: usize,
    m: usize,
    sub_d: usize,
    cpq: usize,
    /// Codebooks, `m * cpq * sub_d` floats: subspace-major, then codeword.
    codebooks: Vec<f32>,
    /// `‖c‖²` for every codeword (`m * cpq`), filled at training time.
    codeword_norms: Vec<f32>,
}

impl ProductQuantizer {
    /// Train codebooks over `training`.
    ///
    /// `m` is the number of sub-vectors (paper Table II), `cpq` the number
    /// of PQ-refined clusters per subspace (≤ 256 so codes fit in a byte).
    ///
    /// # Panics
    /// Panics if `d % m != 0`, `cpq` is 0 or > 256, or `training` is empty.
    pub fn train(
        training: &VectorSet,
        m: usize,
        cpq: usize,
        flavor: KmeansFlavor,
        params: &KmeansParams,
    ) -> ProductQuantizer {
        let d = training.dim();
        assert!(
            m > 0 && d.is_multiple_of(m),
            "d ({d}) must be divisible by m ({m})"
        );
        assert!(cpq > 0 && cpq <= 256, "cpq must be in 1..=256");
        assert!(!training.is_empty(), "cannot train PQ on an empty set");
        let sub_d = d / m;

        let mut codebooks = Vec::with_capacity(m * cpq * sub_d);
        for sub in 0..m {
            // Gather this subspace's slice of every training vector.
            let mut sub_vecs = VectorSet::empty(sub_d);
            for v in training.iter() {
                sub_vecs.push(&v[sub * sub_d..(sub + 1) * sub_d]);
            }
            let km = Kmeans::train(
                flavor,
                &sub_vecs,
                &KmeansParams {
                    k: cpq,
                    iters: params.iters,
                    seed: params.seed.wrapping_add(sub as u64),
                    gemm: params.gemm,
                },
            );
            codebooks.extend_from_slice(km.centroids().as_flat());
            // If k was clamped (fewer training rows than cpq), repeat the
            // last centroid so the table layout stays rectangular.
            let trained = km.k();
            for _ in trained..cpq {
                let last = codebooks[codebooks.len() - sub_d..].to_vec();
                codebooks.extend_from_slice(&last);
            }
        }

        let codeword_norms = codebooks
            .chunks_exact(sub_d)
            .map(|c| c.iter().map(|x| x * x).sum())
            .collect();

        ProductQuantizer {
            d,
            m,
            sub_d,
            cpq,
            codebooks,
            codeword_norms,
        }
    }

    /// Full vector dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of sub-vector partitions.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codewords per subspace.
    pub fn cpq(&self) -> usize {
        self.cpq
    }

    /// Bytes per encoded vector.
    pub fn code_len(&self) -> usize {
        self.m
    }

    /// Codeword `j` of subspace `sub`.
    #[inline]
    pub fn codeword(&self, sub: usize, j: usize) -> &[f32] {
        let base = (sub * self.cpq + j) * self.sub_d;
        &self.codebooks[base..base + self.sub_d]
    }

    /// Encode a vector to `m` bytes.
    ///
    /// # Panics
    /// Panics if `v.len() != dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.d, "dimension mismatch");
        let mut code = Vec::with_capacity(self.m);
        for sub in 0..self.m {
            let q = &v[sub * self.sub_d..(sub + 1) * self.sub_d];
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for j in 0..self.cpq {
                let dist = crate::simd::l2_sqr_auto(q, self.codeword(sub, j));
                if dist < best_d {
                    best_d = dist;
                    best = j;
                }
            }
            code.push(best as u8);
        }
        code
    }

    /// Reconstruct the vector a code represents (centroid concatenation).
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "code length mismatch");
        let mut v = Vec::with_capacity(self.d);
        for (sub, &j) in code.iter().enumerate() {
            v.extend_from_slice(self.codeword(sub, j as usize));
        }
        v
    }

    /// Build the per-query ADC table: `m * cpq` entries, entry
    /// `[sub * cpq + j]` is the squared distance between the query's
    /// `sub`-th slice and codeword `j`.
    pub fn adc_table(&self, mode: PqTableMode, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.d, "dimension mismatch");
        let _t = profile::scoped(Category::PqTable);
        let mut table = vec![0.0f32; self.m * self.cpq];
        match mode {
            PqTableMode::Straightforward => {
                // PASE: recompute a full subtract-square distance per entry.
                for sub in 0..self.m {
                    let q = &query[sub * self.sub_d..(sub + 1) * self.sub_d];
                    for j in 0..self.cpq {
                        table[sub * self.cpq + j] = l2_sqr_ref(q, self.codeword(sub, j));
                    }
                }
            }
            PqTableMode::Optimized => {
                // Faiss: ‖q‖² + ‖c‖² − 2 q·c with ‖c‖² from training time
                // and the dot computed by the dispatched SIMD kernel.
                for sub in 0..self.m {
                    let q = &query[sub * self.sub_d..(sub + 1) * self.sub_d];
                    let qn = crate::simd::inner_product_auto(q, q);
                    let row = &mut table[sub * self.cpq..(sub + 1) * self.cpq];
                    for (j, out) in row.iter_mut().enumerate() {
                        let dot = crate::simd::inner_product_auto(q, self.codeword(sub, j));
                        *out = (qn + self.codeword_norms[sub * self.cpq + j] - 2.0 * dot).max(0.0);
                    }
                }
            }
        }
        table
    }

    /// Approximate squared distance between the query behind `table` and
    /// an encoded vector: `Σ_sub table[sub][code[sub]]`.
    #[inline]
    pub fn adc_distance(&self, table: &[f32], code: &[u8]) -> f32 {
        debug_assert_eq!(table.len(), self.m * self.cpq);
        debug_assert_eq!(code.len(), self.m);
        let mut acc = 0.0f32;
        for (sub, &j) in code.iter().enumerate() {
            acc += table[sub * self.cpq + j as usize];
        }
        acc
    }

    /// [`ProductQuantizer::adc_distance`] with four independent
    /// accumulators walking four subspaces per iteration, breaking the
    /// dependent chain of table lookups; no per-code profiling. The IVF
    /// scans run it over a whole bucket of packed codes (the `Optimized`
    /// kernel) and attribute the whole bucket.
    #[inline]
    pub fn adc_distance_unrolled(&self, table: &[f32], code: &[u8]) -> f32 {
        let cpq = self.cpq;
        let mut acc = [0.0f32; 4];
        let mut chunks = code.chunks_exact(4);
        let mut base = 0usize;
        for ch in chunks.by_ref() {
            acc[0] += table[base + ch[0] as usize];
            acc[1] += table[base + cpq + ch[1] as usize];
            acc[2] += table[base + 2 * cpq + ch[2] as usize];
            acc[3] += table[base + 3 * cpq + ch[3] as usize];
            base += 4 * cpq;
        }
        let mut tail = 0.0f32;
        for (i, &j) in chunks.remainder().iter().enumerate() {
            tail += table[base + i * cpq + j as usize];
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// In-memory size of the codebooks in bytes (for the index-size
    /// experiments, Figure 12).
    pub fn codebook_bytes(&self) -> usize {
        self.codebooks.len() * std::mem::size_of::<f32>()
    }
}

/// Train a PQ with default clustering parameters (used by both engines;
/// they differ via `flavor` and `gemm`).
pub fn train_default(
    training: &VectorSet,
    m: usize,
    cpq: usize,
    flavor: KmeansFlavor,
    seed: u64,
    gemm: GemmKernel,
) -> ProductQuantizer {
    ProductQuantizer::train(
        training,
        m,
        cpq,
        flavor,
        &KmeansParams {
            k: cpq,
            iters: 8,
            seed,
            gemm,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(n: usize, d: usize) -> VectorSet {
        let mut vs = VectorSet::empty(d);
        let mut state = 99u64;
        for _ in 0..n {
            let v: Vec<f32> = (0..d)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as f32 / (1u64 << 31) as f32
                })
                .collect();
            vs.push(&v);
        }
        vs
    }

    fn small_pq() -> (ProductQuantizer, VectorSet) {
        let data = sample_data(300, 8);
        let pq = train_default(&data, 4, 16, KmeansFlavor::FaissStyle, 42, GemmKernel::Blas);
        (pq, data)
    }

    #[test]
    fn encode_decode_reduces_error_vs_random_codeword() {
        let (pq, data) = small_pq();
        let v = data.row(0);
        let decoded = pq.decode(&pq.encode(v));
        let err = l2_sqr_ref(v, &decoded);
        // The nearest-codeword reconstruction must beat an arbitrary one.
        let arbitrary = pq.decode(&vec![7u8; pq.code_len()]);
        let arbitrary_err = l2_sqr_ref(v, &arbitrary);
        assert!(err <= arbitrary_err);
    }

    #[test]
    fn code_length_is_m() {
        let (pq, data) = small_pq();
        assert_eq!(pq.encode(data.row(3)).len(), 4);
    }

    #[test]
    fn table_modes_agree() {
        let (pq, data) = small_pq();
        let q = data.row(5);
        let fast = pq.adc_table(PqTableMode::Optimized, q);
        let slow = pq.adc_table(PqTableMode::Straightforward, q);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn adc_distance_matches_decoded_distance() {
        let (pq, data) = small_pq();
        let q = data.row(1);
        let x = data.row(2);
        let code = pq.encode(x);
        let table = pq.adc_table(PqTableMode::Optimized, q);
        let adc = pq.adc_distance(&table, &code);
        let direct = l2_sqr_ref(q, &pq.decode(&code));
        assert!(
            (adc - direct).abs() < 1e-3 * (1.0 + direct),
            "{adc} vs {direct}"
        );
    }

    #[test]
    fn self_distance_via_adc_is_small() {
        let (pq, data) = small_pq();
        let v = data.row(7);
        let table = pq.adc_table(PqTableMode::Optimized, v);
        let adc = pq.adc_distance(&table, &pq.encode(v));
        // ADC distance to own code equals quantization error, which is
        // bounded by distance to any codeword combination.
        let decoded = pq.decode(&pq.encode(v));
        let qerr = l2_sqr_ref(v, &decoded);
        assert!((adc - qerr).abs() < 1e-3 * (1.0 + qerr));
    }

    #[test]
    #[should_panic(expected = "divisible by m")]
    fn indivisible_m_panics() {
        let data = sample_data(10, 7);
        ProductQuantizer::train(
            &data,
            2,
            4,
            KmeansFlavor::FaissStyle,
            &KmeansParams::default(),
        );
    }

    #[test]
    fn handles_fewer_training_rows_than_cpq() {
        let data = sample_data(5, 4);
        let pq = train_default(&data, 2, 16, KmeansFlavor::FaissStyle, 0, GemmKernel::Blas);
        assert_eq!(pq.cpq(), 16);
        // Every codeword must be finite even though only 5 were trained.
        let q = data.row(0);
        let table = pq.adc_table(PqTableMode::Optimized, q);
        assert!(table.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn adc_batch_matches_per_code() {
        let (pq, data) = small_pq();
        let table = pq.adc_table(PqTableMode::Optimized, data.row(9));
        let mut packed = Vec::new();
        for i in 10..40 {
            packed.extend_from_slice(&pq.encode(data.row(i)));
        }
        for (i, code) in packed.chunks_exact(pq.code_len()).enumerate() {
            let got = pq.adc_distance_unrolled(&table, code);
            assert_eq!(got, pq.adc_distance(&table, code), "code {i}");
        }
    }

    #[test]
    fn codebook_bytes_accounts_all_codewords() {
        let (pq, _) = small_pq();
        assert_eq!(pq.codebook_bytes(), 4 * 16 * 2 * 4); // m*cpq*sub_d*sizeof(f32)
    }
}

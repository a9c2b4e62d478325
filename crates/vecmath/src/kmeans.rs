//! K-means clustering — two deliberately different implementations (RC#5).
//!
//! §VII-A of the paper traces part of the IVF_FLAT search gap to PASE and
//! Faiss *training different centroids*: both run Lloyd's algorithm, but
//! initialization and empty-cluster handling differ, so the resulting
//! clusters (and therefore per-query scan volume) differ. The paper's
//! Faiss* experiment (Figure 15) transplants PASE's centroids into Faiss
//! and watches the gap shrink.
//!
//! * [`KmeansFlavor::FaissStyle`] — random-permutation init, batched
//!   GEMM-based assignment (RC#1), empty clusters split from the largest
//!   cluster with an ε perturbation;
//! * [`KmeansFlavor::PaseStyle`] — strided init, one-at-a-time reference
//!   distance loop, empty clusters reseeded from a random training point.
//!
//! Training time is attributed to [`Category::KmeansTrain`].

use crate::distance::{l2_sqr, l2_sqr_ref, DistanceKernel};
use crate::metric::Metric;
use crate::rng::Rng;
use crate::vectors::VectorSet;
use vdb_gemm::{l2_distance_table, GemmKernel};
use vdb_profile::{self as profile, Category};

/// Which k-means implementation to run (RC#5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KmeansFlavor {
    /// Faiss-like: random init, GEMM assignment, split-largest on empty.
    #[default]
    FaissStyle,
    /// PASE-like: strided init, scalar assignment, reseed on empty.
    PaseStyle,
}

/// Training parameters.
#[derive(Clone, Copy, Debug)]
pub struct KmeansParams {
    /// Number of clusters (paper parameter `c`).
    pub k: usize,
    /// Lloyd iterations (Faiss's `niter`; 10 here, matching its default
    /// order of magnitude).
    pub iters: usize,
    /// RNG seed; training is fully deterministic given the seed.
    pub seed: u64,
    /// GEMM kernel used for batched assignment in the Faiss-style flavor.
    /// `Naive` models the paper's "SGEMM disabled" ablation.
    pub gemm: GemmKernel,
}

impl Default for KmeansParams {
    fn default() -> Self {
        KmeansParams {
            k: 16,
            iters: 10,
            seed: 0,
            gemm: GemmKernel::Blas,
        }
    }
}

/// A trained codebook: `k` centroids of dimension `d`.
#[derive(Clone, Debug)]
pub struct Kmeans {
    flavor: KmeansFlavor,
    centroids: VectorSet,
}

/// Rows assigned per training batch when building the GEMM distance table;
/// bounds the table's memory to `CHUNK * k` floats.
const ASSIGN_CHUNK: usize = 256;

impl Kmeans {
    /// Run Lloyd's algorithm over `training` with the given flavor.
    ///
    /// # Panics
    /// Panics if `training` is empty or `params.k == 0`.
    pub fn train(flavor: KmeansFlavor, training: &VectorSet, params: &KmeansParams) -> Kmeans {
        let _t = profile::scoped(Category::KmeansTrain);
        assert!(params.k > 0, "k must be positive");
        assert!(!training.is_empty(), "cannot train k-means on an empty set");
        let k = params.k.min(training.len());

        let mut rng = Rng::seed_from_u64(params.seed);

        let mut centroids = match flavor {
            KmeansFlavor::FaissStyle => init_random(training, k, &mut rng),
            KmeansFlavor::PaseStyle => init_strided(training, k),
        };

        let n = training.len();
        let mut assignment = vec![0u32; n];
        for _iter in 0..params.iters {
            match flavor {
                KmeansFlavor::FaissStyle => {
                    assign_batched(
                        training.dim(),
                        training.as_flat(),
                        &centroids,
                        params.gemm,
                        &mut assignment,
                    );
                }
                KmeansFlavor::PaseStyle => {
                    assign_scalar(training, &centroids, &mut assignment);
                }
            }
            update_centroids(training, &assignment, k, &mut centroids);
            fix_empty_clusters(flavor, training, &assignment, &mut centroids, &mut rng);
        }

        Kmeans { flavor, centroids }
    }

    /// Wrap pre-existing centroids (the Faiss* transplant of Figure 15).
    pub fn from_centroids(flavor: KmeansFlavor, centroids: VectorSet) -> Kmeans {
        assert!(!centroids.is_empty(), "centroid set cannot be empty");
        Kmeans { flavor, centroids }
    }

    /// The trained centroids.
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.centroids.dim()
    }

    /// Flavor this codebook was trained with.
    pub fn flavor(&self) -> KmeansFlavor {
        self.flavor
    }

    /// Index and distance of the nearest centroid to `v`.
    ///
    /// The optimized kernel walks the centroids with the dispatched SIMD
    /// distance and one profiling count for the whole sweep; the
    /// reference kernel keeps the per-call path.
    pub fn nearest(&self, kernel: DistanceKernel, v: &[f32]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        match kernel {
            DistanceKernel::Optimized => {
                if profile::enabled() {
                    profile::count(Category::DistanceCalc, self.centroids.len() as u64);
                }
                for (j, c) in self.centroids.iter().enumerate() {
                    let dist = crate::simd::l2_sqr_auto(v, c);
                    if dist < best.1 {
                        best = (j, dist);
                    }
                }
            }
            DistanceKernel::Reference => {
                for (j, c) in self.centroids.iter().enumerate() {
                    let dist = l2_sqr(kernel, v, c);
                    if dist < best.1 {
                        best = (j, dist);
                    }
                }
            }
        }
        best
    }

    /// Indices (and distances) of the `nprobe` nearest centroids to `v`,
    /// closest first. Batched for the optimized kernel (see
    /// [`Kmeans::nearest`]).
    pub fn nearest_n(&self, kernel: DistanceKernel, v: &[f32], nprobe: usize) -> Vec<(usize, f32)> {
        let mut all: Vec<(usize, f32)> = match kernel {
            DistanceKernel::Optimized => {
                let mut dists = vec![0.0f32; self.centroids.len()];
                crate::simd::l2_sqr_batch(v, &self.centroids, &mut dists);
                dists.iter().enumerate().map(|(j, &d)| (j, d)).collect()
            }
            DistanceKernel::Reference => self
                .centroids
                .iter()
                .enumerate()
                .map(|(j, c)| (j, l2_sqr(kernel, v, c)))
                .collect(),
        };
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(nprobe.max(1));
        all
    }

    /// [`nearest_n`](Self::nearest_n) under `metric`: the `nprobe`
    /// centroids with the smallest `metric` distance to `v`, closest
    /// first, ties to the lower index. L2 keeps the batched kernel.
    pub fn nearest_n_by(
        &self,
        metric: Metric,
        kernel: DistanceKernel,
        v: &[f32],
        nprobe: usize,
    ) -> Vec<(usize, f32)> {
        if metric == Metric::L2 {
            return self.nearest_n(kernel, v, nprobe);
        }
        let mut all: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(j, c)| (j, metric.distance_with(kernel, v, c)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(nprobe.max(1));
        all
    }

    /// Assign every row of `xs` to its nearest centroid using batched GEMM
    /// distance tables (the Faiss adding phase, RC#1).
    pub fn assign_batch(&self, gemm: GemmKernel, xs: &VectorSet) -> Vec<u32> {
        self.assign_batch_flat(gemm, xs.dim(), xs.as_flat())
    }

    /// [`Kmeans::assign_batch`] over a borrowed row-major slice
    /// (`flat.len()` must be a multiple of `dim`). Lets callers that
    /// shard a `VectorSet` across threads assign each range in place
    /// instead of copying it into a fresh set per chunk.
    pub fn assign_batch_flat(&self, gemm: GemmKernel, dim: usize, flat: &[f32]) -> Vec<u32> {
        debug_assert_eq!(flat.len() % dim.max(1), 0, "ragged flat slice");
        let mut out = vec![0u32; flat.len() / dim.max(1)];
        assign_batched(dim, flat, &self.centroids, gemm, &mut out);
        out
    }

    /// Mean within-cluster squared distance over `xs` (clustering quality).
    pub fn mean_sq_error(&self, xs: &VectorSet) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let total: f64 = xs
            .iter()
            .map(|v| self.nearest(DistanceKernel::Optimized, v).1 as f64)
            .sum();
        total / xs.len() as f64
    }
}

fn init_random(training: &VectorSet, k: usize, rng: &mut Rng) -> VectorSet {
    let mut idx: Vec<usize> = (0..training.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(k);
    training.gather(&idx)
}

fn init_strided(training: &VectorSet, k: usize) -> VectorSet {
    let n = training.len();
    let idx: Vec<usize> = (0..k).map(|j| j * n / k).collect();
    training.gather(&idx)
}

fn assign_batched(
    d: usize,
    flat: &[f32],
    centroids: &VectorSet,
    gemm: GemmKernel,
    out: &mut [u32],
) {
    let n = out.len();
    let k = centroids.len();
    let mut row = 0usize;
    while row < n {
        let end = (row + ASSIGN_CHUNK).min(n);
        let chunk = &flat[row * d..end * d];
        let table = l2_distance_table(gemm, chunk, centroids.as_flat(), d);
        for (i, dists) in table.chunks_exact(k).enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (j, &dist) in dists.iter().enumerate() {
                if dist < best_d {
                    best_d = dist;
                    best = j;
                }
            }
            out[row + i] = best as u32;
        }
        row = end;
    }
}

fn assign_scalar(xs: &VectorSet, centroids: &VectorSet, out: &mut [u32]) {
    for (i, v) in xs.iter().enumerate() {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (j, c) in centroids.iter().enumerate() {
            let dist = l2_sqr_ref(v, c);
            if dist < best_d {
                best_d = dist;
                best = j;
            }
        }
        out[i] = best as u32;
    }
}

fn update_centroids(xs: &VectorSet, assignment: &[u32], k: usize, centroids: &mut VectorSet) {
    let d = xs.dim();
    let mut sums = vec![0.0f64; k * d];
    let mut counts = vec![0u64; k];
    for (i, v) in xs.iter().enumerate() {
        let c = assignment[i] as usize;
        counts[c] += 1;
        let sum = &mut sums[c * d..(c + 1) * d];
        for (s, &x) in sum.iter_mut().zip(v) {
            *s += x as f64;
        }
    }
    for j in 0..k {
        if counts[j] == 0 {
            continue; // handled by fix_empty_clusters
        }
        let inv = 1.0 / counts[j] as f64;
        let dst = centroids.row_mut(j);
        let src = &sums[j * d..(j + 1) * d];
        for (dvx, &s) in dst.iter_mut().zip(src) {
            *dvx = (s * inv) as f32;
        }
    }
}

fn fix_empty_clusters(
    flavor: KmeansFlavor,
    training: &VectorSet,
    assignment: &[u32],
    centroids: &mut VectorSet,
    rng: &mut Rng,
) {
    let k = centroids.len();
    let mut counts = vec![0usize; k];
    for &a in assignment {
        counts[a as usize] += 1;
    }
    for j in 0..k {
        if counts[j] > 0 {
            continue;
        }
        match flavor {
            KmeansFlavor::FaissStyle => {
                // Split the largest cluster: copy its centroid and nudge
                // both copies apart, as Faiss's clustering does.
                let largest = (0..k).max_by_key(|&c| counts[c]).unwrap_or(0);
                let eps = 1.0 / 1024.0;
                let src: Vec<f32> = centroids.row(largest).to_vec();
                let dst = centroids.row_mut(j);
                for (out, &v) in dst.iter_mut().zip(&src) {
                    *out = v * (1.0 + eps);
                }
                let back = centroids.row_mut(largest);
                for v in back.iter_mut() {
                    *v *= 1.0 - eps;
                }
                counts[j] = counts[largest] / 2;
                counts[largest] -= counts[j];
            }
            KmeansFlavor::PaseStyle => {
                // Reseed from a random training vector.
                let pick = rng.range_usize(0..training.len());
                let src: Vec<f32> = training.row(pick).to_vec();
                centroids.row_mut(j).copy_from_slice(&src);
                counts[j] = 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2D.
    fn blobs() -> VectorSet {
        let mut vs = VectorSet::empty(2);
        let centers = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut state = 12345u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 0.5
        };
        for _ in 0..60 {
            for c in &centers {
                vs.push(&[c[0] + noise(), c[1] + noise()]);
            }
        }
        vs
    }

    #[test]
    fn recovers_separated_clusters() {
        let data = blobs();
        for flavor in [KmeansFlavor::FaissStyle, KmeansFlavor::PaseStyle] {
            let km = Kmeans::train(
                flavor,
                &data,
                &KmeansParams {
                    k: 3,
                    iters: 15,
                    seed: 7,
                    gemm: GemmKernel::Blas,
                },
            );
            assert_eq!(km.k(), 3);
            // Mean squared error should be tiny compared to blob spacing.
            assert!(km.mean_sq_error(&data) < 1.0, "flavor {flavor:?}");
        }
    }

    #[test]
    fn flavors_produce_different_centroids() {
        let data = blobs();
        let p = KmeansParams {
            k: 5,
            iters: 5,
            seed: 3,
            gemm: GemmKernel::Blas,
        };
        let a = Kmeans::train(KmeansFlavor::FaissStyle, &data, &p);
        let b = Kmeans::train(KmeansFlavor::PaseStyle, &data, &p);
        assert_ne!(a.centroids().as_flat(), b.centroids().as_flat());
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs();
        let p = KmeansParams {
            k: 4,
            iters: 8,
            seed: 11,
            gemm: GemmKernel::Blas,
        };
        let a = Kmeans::train(KmeansFlavor::FaissStyle, &data, &p);
        let b = Kmeans::train(KmeansFlavor::FaissStyle, &data, &p);
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn gemm_and_scalar_assignment_agree() {
        let data = blobs();
        let km = Kmeans::train(
            KmeansFlavor::FaissStyle,
            &data,
            &KmeansParams {
                k: 3,
                iters: 10,
                seed: 1,
                gemm: GemmKernel::Blas,
            },
        );
        let fast = km.assign_batch(GemmKernel::Blas, &data);
        let slow = km.assign_batch(GemmKernel::Naive, &data);
        // With well-separated blobs the argmin is unambiguous.
        assert_eq!(fast, slow);
        let mut scalar = vec![0u32; data.len()];
        assign_scalar(&data, km.centroids(), &mut scalar);
        assert_eq!(fast, scalar);
    }

    #[test]
    fn k_clamped_to_n() {
        let data = VectorSet::from_flat(2, vec![1.0, 1.0, 2.0, 2.0]);
        let km = Kmeans::train(
            KmeansFlavor::FaissStyle,
            &data,
            &KmeansParams {
                k: 10,
                iters: 3,
                seed: 0,
                gemm: GemmKernel::Blas,
            },
        );
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn nearest_n_sorted_ascending() {
        let data = blobs();
        let km = Kmeans::train(
            KmeansFlavor::FaissStyle,
            &data,
            &KmeansParams {
                k: 3,
                iters: 10,
                seed: 5,
                gemm: GemmKernel::Blas,
            },
        );
        let probes = km.nearest_n(DistanceKernel::Optimized, &[0.0, 0.0], 3);
        assert_eq!(probes.len(), 3);
        assert!(probes[0].1 <= probes[1].1 && probes[1].1 <= probes[2].1);
        let (best, d0) = km.nearest(DistanceKernel::Optimized, &[0.0, 0.0]);
        assert_eq!(probes[0].0, best);
        assert_eq!(probes[0].1, d0);
    }

    #[test]
    fn no_cluster_left_empty_on_degenerate_data() {
        // All identical points: every fix-up strategy must still fill k
        // centroids.
        let data = VectorSet::from_flat(2, vec![1.0; 40]);
        for flavor in [KmeansFlavor::FaissStyle, KmeansFlavor::PaseStyle] {
            let km = Kmeans::train(
                flavor,
                &data,
                &KmeansParams {
                    k: 4,
                    iters: 5,
                    seed: 0,
                    gemm: GemmKernel::Blas,
                },
            );
            assert_eq!(km.k(), 4);
            assert!(km
                .centroids()
                .iter()
                .all(|c| c.iter().all(|x| x.is_finite())));
        }
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_training_panics() {
        Kmeans::train(
            KmeansFlavor::FaissStyle,
            &VectorSet::empty(4),
            &KmeansParams::default(),
        );
    }
}

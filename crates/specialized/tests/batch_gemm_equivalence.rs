//! Batched serving must be indistinguishable from serial serving.
//!
//! `search_batch_gemm` routes distance evaluation through the
//! `vdb-serve` GEMM-prune + exact-re-rank block scan; these tests pin
//! the bit-for-bit contract against the per-query serial paths for
//! every batch size up to the scheduler's default window, including
//! batches that mix different `k`.

use vdb_specialized::{FlatIndex, IvfFlatIndex, IvfParams, SpecializedOptions, VectorIndex};
use vdb_vecmath::{Neighbor, VectorSet};

const DIM: usize = 24;
const N: usize = 600;
const N_QUERIES: usize = 16;

fn dataset() -> (VectorSet, VectorSet) {
    vdb_datagen::gaussian::generate_with_queries(DIM, N, N_QUERIES, 8, 0x5e21)
}

fn assert_identical(batched: &[Vec<Neighbor>], serial: &[Vec<Neighbor>], label: &str) {
    assert_eq!(batched.len(), serial.len(), "{label}: result arity");
    for (qi, (b, s)) in batched.iter().zip(serial).enumerate() {
        assert_eq!(b.len(), s.len(), "{label}: query {qi} result length");
        for (rank, (bn, sn)) in b.iter().zip(s).enumerate() {
            assert_eq!(bn.id, sn.id, "{label}: query {qi} rank {rank} id");
            assert_eq!(
                bn.distance.to_bits(),
                sn.distance.to_bits(),
                "{label}: query {qi} rank {rank} distance bits"
            );
        }
    }
}

/// Every batch size 1..=8 (the default admission window) against the
/// flat index, k fixed.
#[test]
fn flat_batched_matches_serial_for_all_batch_sizes() {
    let (base, queries) = dataset();
    let idx = FlatIndex::new(SpecializedOptions::default(), base);
    for batch in 1..=8usize {
        let mut qs = VectorSet::empty(DIM);
        for i in 0..batch {
            qs.push(queries.row(i));
        }
        let ks = vec![10usize; batch];
        let batched = idx.search_batch_gemm(&qs, &ks);
        let serial: Vec<Vec<Neighbor>> = qs.iter().map(|q| idx.search(q, 10)).collect();
        assert_identical(&batched, &serial, &format!("flat batch={batch}"));
    }
}

/// Queries with different `k` sharing one batch still get exactly
/// their own serial answer (the satellite-3 mixed-k stress shape).
#[test]
fn flat_mixed_k_batch_matches_serial() {
    let (base, queries) = dataset();
    let idx = FlatIndex::new(SpecializedOptions::default(), base);
    let ks: Vec<usize> = (0..N_QUERIES).map(|i| [1, 10, 100][i % 3]).collect();
    let batched = idx.search_batch_gemm(&queries, &ks);
    let serial: Vec<Vec<Neighbor>> = queries
        .iter()
        .zip(&ks)
        .map(|(q, &k)| idx.search(q, k))
        .collect();
    assert_identical(&batched, &serial, "flat mixed-k");
}

/// IVF_FLAT: the batched nprobe cluster scan visits exactly the
/// buckets the serial path probes, so results match bit-for-bit for
/// every batch size and a mix of nprobe values.
#[test]
fn ivf_batched_matches_serial_for_all_batch_sizes() {
    let (base, queries) = dataset();
    let params = IvfParams {
        clusters: 16,
        ..IvfParams::default()
    };
    let (idx, _) = IvfFlatIndex::build(SpecializedOptions::default(), params, &base);
    for nprobe in [1usize, 4, 16] {
        for batch in 1..=8usize {
            let mut qs = VectorSet::empty(DIM);
            for i in 0..batch {
                qs.push(queries.row(i));
            }
            let ks = vec![10usize; batch];
            let batched = idx.search_batch_gemm(&qs, &ks, nprobe);
            let serial: Vec<Vec<Neighbor>> = qs
                .iter()
                .map(|q| idx.search_with_nprobe(q, 10, nprobe))
                .collect();
            assert_identical(
                &batched,
                &serial,
                &format!("ivf nprobe={nprobe} batch={batch}"),
            );
        }
    }
}

/// IVF_FLAT with per-query `k` mixed across the batch.
#[test]
fn ivf_mixed_k_batch_matches_serial() {
    let (base, queries) = dataset();
    let params = IvfParams {
        clusters: 16,
        ..IvfParams::default()
    };
    let (idx, _) = IvfFlatIndex::build(SpecializedOptions::default(), params, &base);
    let ks: Vec<usize> = (0..N_QUERIES).map(|i| [1, 10, 100][i % 3]).collect();
    let batched = idx.search_batch_gemm(&queries, &ks, 4);
    let serial: Vec<Vec<Neighbor>> = queries
        .iter()
        .zip(&ks)
        .map(|(q, &k)| idx.search_with_nprobe(q, k, 4))
        .collect();
    assert_identical(&batched, &serial, "ivf mixed-k");
}

//! `ServeMode::Batched` must be observationally identical to
//! `ServeMode::Serial`: same ids, same distances, bit for bit, for
//! every batch size up to the admission window, on both the
//! generalized (PASE) engine and the decoupled engine, including
//! batches that mix different `k`.
//!
//! The batched path replaces per-query bucket scans with one
//! query-batch × block SGEMM distance table per bucket; the table only
//! *prunes* — every surviving candidate is re-ranked with the engine's
//! own scalar kernel — which is what makes exact equality a testable
//! contract rather than a tolerance assertion.
//!
//! Kernel coverage: CI runs this whole suite a second time under
//! `VDB_FORCE_SCALAR=1` (the kernel registry is process-global, so the
//! scalar variant is a separate job rather than a per-test toggle);
//! that run pins the same equality with the scalar kernels.

use std::sync::Barrier;
use vdb_sql::{BatchConfig, Database, ServeMode, Value};
use vdb_vecmath::rng::cases;
use vdb_vecmath::VectorSet;

const DIM: usize = 8;
const N: usize = 400;

fn query_sql(data: &VectorSet, qi: usize, k: usize, knob: Option<usize>) -> String {
    let v: Vec<String> = data.row(qi % N).iter().map(|x| x.to_string()).collect();
    let lit = match knob {
        Some(nprobe) => format!("'{}:{nprobe}'", v.join(",")),
        None => format!("'{}'", v.join(",")),
    };
    format!("SELECT id, distance FROM items ORDER BY vec <-> {lit} LIMIT {k}")
}

fn db_with_index(index_sql: &str) -> (Database, VectorSet) {
    let mut db = Database::in_memory();
    db.execute(&format!("CREATE TABLE items (id int, vec float[{DIM}])"))
        .unwrap();
    let data = vdb_datagen::gaussian::generate(DIM, N, 8, 0xba7c);
    let ids: Vec<i64> = (0..N as i64).collect();
    db.bulk_load("items", &ids, &data).unwrap();
    db.execute(index_sql).unwrap();
    (db, data)
}

/// Run `queries` concurrently (one thread per query, released together
/// so they land inside one batching window) and return per-query rows.
fn run_concurrent(db: &Database, queries: &[String]) -> Vec<Vec<Vec<Value>>> {
    let barrier = Barrier::new(queries.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|sql| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    db.query(sql).unwrap().rows
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn assert_batched_equals_serial(index_sql: &str, knob: Option<usize>, label: &str) {
    let (mut db, data) = db_with_index(index_sql);
    for batch in 1..=8usize {
        let ks: Vec<usize> = (0..batch).map(|i| [1, 10, 100][i % 3]).collect();
        let queries: Vec<String> = (0..batch)
            .map(|i| query_sql(&data, 13 * i + 5, ks[i], knob))
            .collect();

        db.set_serve_mode(ServeMode::Serial);
        let serial: Vec<Vec<Vec<Value>>> = queries
            .iter()
            .map(|sql| db.query(sql).unwrap().rows)
            .collect();

        db.set_serve_mode(ServeMode::Batched(BatchConfig {
            max_batch: 8,
            max_wait_us: 20_000,
        }));
        let batched = run_concurrent(&db, &queries);
        // Value wraps distance as f64-from-f32, so == here is exact.
        assert_eq!(batched, serial, "{label}: batch={batch}");
    }
}

#[test]
fn generalized_ivfflat_batched_equals_serial() {
    assert_batched_equals_serial(
        "CREATE INDEX gx ON items USING ivfflat(vec) \
         WITH (clusters = 8, sample_ratio = 500, nprobe = 3)",
        Some(3),
        "generalized",
    );
}

#[test]
fn generalized_ivfflat_default_knob_batched_equals_serial() {
    assert_batched_equals_serial(
        "CREATE INDEX gx ON items USING ivfflat(vec) \
         WITH (clusters = 8, sample_ratio = 500, nprobe = 2)",
        None,
        "generalized-default-knob",
    );
}

#[test]
fn decoupled_ivfflat_batched_equals_serial() {
    assert_batched_equals_serial(
        "CREATE INDEX dx ON items USING decoupled_ivfflat(vec) \
         WITH (clusters = 8, sample_ratio = 500, nprobe = 3)",
        Some(3),
        "decoupled",
    );
}

#[test]
fn decoupled_flat_batched_equals_serial() {
    assert_batched_equals_serial(
        "CREATE INDEX dfx ON items USING decoupled_flat(vec)",
        None,
        "decoupled-flat",
    );
}

/// Stress shape: a full window of concurrent clients where every query
/// carries a different `k` (1/10/100 mix) against one shared batched
/// database — results must match what each client would have seen
/// serially, and the scheduler must actually have formed batches.
#[test]
fn mixed_k_stress_shares_batches_without_cross_talk() {
    let (mut db, data) = db_with_index(
        "CREATE INDEX gx ON items USING ivfflat(vec) \
         WITH (clusters = 8, sample_ratio = 500, nprobe = 4)",
    );
    let clients = 8usize;
    let rounds = 5usize;
    let queries: Vec<String> = (0..clients * rounds)
        .map(|i| query_sql(&data, 7 * i + 1, [1, 10, 100][i % 3], Some(4)))
        .collect();

    db.set_serve_mode(ServeMode::Serial);
    let serial: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .map(|sql| db.query(sql).unwrap().rows)
        .collect();

    db.set_serve_mode(ServeMode::Batched(BatchConfig {
        max_batch: 8,
        max_wait_us: 50_000,
    }));
    // Each client runs its own round-robin slice concurrently.
    let barrier = Barrier::new(clients);
    let batched: Vec<Vec<Vec<Vec<Value>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                let db = &db;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (0..rounds)
                        .map(|r| db.query(&queries[r * clients + c]).unwrap().rows)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (c, per_client) in batched.iter().enumerate() {
        for (r, rows) in per_client.iter().enumerate() {
            assert_eq!(rows, &serial[r * clients + c], "client {c} round {r}");
        }
    }
}

/// Randomized batch shapes: any mix of query vectors and ks served
/// batched equals the same mix served serially, on the generalized
/// engine.
#[test]
fn random_batches_equal_serial() {
    cases("random_batches_equal_serial", 6, |rng| {
        let picks = rng.vec(1..9, |r| (r.range_usize(0..N), r.pick(&[1usize, 10, 100])));
        let (mut db, data) = db_with_index(
            "CREATE INDEX gx ON items USING ivfflat(vec) \
             WITH (clusters = 8, sample_ratio = 500, nprobe = 3)",
        );
        let queries: Vec<String> = picks
            .iter()
            .map(|&(qi, k)| query_sql(&data, qi, k, Some(3)))
            .collect();
        db.set_serve_mode(ServeMode::Serial);
        let serial: Vec<Vec<Vec<Value>>> = queries
            .iter()
            .map(|sql| db.query(sql).unwrap().rows)
            .collect();
        db.set_serve_mode(ServeMode::Batched(BatchConfig {
            max_batch: 8,
            max_wait_us: 10_000,
        }));
        let batched = run_concurrent(&db, &queries);
        assert_eq!(batched, serial);
    });
}

/// `DROP TABLE` discards the admission schedulers of the indexes it
/// cascades to: a same-named index re-created at another dimension is
/// served by a fresh scheduler, not one that rejects its queries.
#[test]
fn drop_table_discards_its_indexes_schedulers() {
    let mut db = Database::in_memory();
    db.set_serve_mode(ServeMode::Batched(BatchConfig::default()));
    for dim in [3, 5] {
        db.execute(&format!("CREATE TABLE t (id int, vec float[{dim}])"))
            .unwrap();
        let rows: Vec<String> = (0..20)
            .map(|i| format!("({i}, '{{{}}}')", vec![i.to_string(); dim].join(",")))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        db.execute("CREATE INDEX ix ON t USING ivfflat(vec) WITH (clusters = 2, nprobe = 2)")
            .unwrap();
        let q = vec!["1"; dim].join(",");
        let res = db
            .query(&format!("SELECT id FROM t ORDER BY vec <-> '{q}' LIMIT 1"))
            .unwrap_or_else(|e| panic!("dim {dim}: {e}"));
        assert_eq!(res.ids(), vec![1], "dim {dim}");
        db.execute("DROP TABLE t").unwrap();
    }
}

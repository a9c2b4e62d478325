//! The table's id B-tree against a plain row-list model of the heap-scan
//! semantics it replaced.
//!
//! Random INSERT / DELETE / `SELECT * … WHERE id = n [LIMIT l]` /
//! `SELECT * … ORDER BY vec <-> q LIMIT k` sequences, with duplicate, negative and
//! re-inserted ids, run on an `ivfflat` and a `decoupled_ivfflat` table
//! through a 16-page buffer pool and are compared with a model that
//! holds:
//!
//! * rows live in heap order, which is insertion order;
//! * DELETE removes the newest row with the id and errs without one;
//! * `WHERE id = n` returns every live row with the id, oldest first,
//!   and under `LIMIT l` the first `l` of them;
//! * a top-k scan over-fetches by the ids deleted since the index was
//!   built, drops those ids, and projects each hit onto the newest row
//!   with its id. The page-based index keeps the entries of deleted
//!   rows; the decoupled one tombstones the id's newest live entry.
//!
//! Vectors have small integer coordinates, so every L2 distance is
//! exact in `f32` and the model ranks candidates as the engines do:
//! by distance, then by id (page-based) or by entry order (decoupled).
//! Full probe (`nprobe` = `clusters`) makes both scans exact.

use std::collections::BTreeSet;
use vdb_sql::{Database, Value};
use vdb_storage::PageSize;
use vdb_vecmath::rng::{cases, Rng};
use vdb_vecmath::VectorSet;

const DIM: usize = 4;
const POOL_PAGES: usize = 16;

#[derive(Clone, Debug, PartialEq)]
struct Row {
    id: i64,
    price: f64,
    vec: Vec<f32>,
}

impl Row {
    fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::Float(self.price),
            Value::Vector(self.vec.clone()),
        ]
    }
}

/// One index entry: its row id, vector and (decoupled only) liveness.
struct Entry {
    id: i64,
    vec: Vec<f32>,
    live: bool,
}

struct Model {
    decoupled: bool,
    /// Live rows in heap order.
    rows: Vec<Row>,
    /// Ids deleted since the index was built (the executor's visibility
    /// set; an INSERT of the id clears it).
    deleted: BTreeSet<i64>,
    entries: Vec<Entry>,
}

impl Model {
    fn newest_row(&self, id: i64) -> Option<&Row> {
        self.rows.iter().rev().find(|r| r.id == id)
    }

    fn index_rows(&mut self) {
        for r in &self.rows {
            self.entries.push(Entry {
                id: r.id,
                vec: r.vec.clone(),
                live: true,
            });
        }
    }

    fn insert(&mut self, row: Row) {
        self.deleted.remove(&row.id);
        self.entries.push(Entry {
            id: row.id,
            vec: row.vec.clone(),
            live: true,
        });
        self.rows.push(row);
    }

    fn delete(&mut self, id: i64) -> bool {
        let Some(at) = self.rows.iter().rposition(|r| r.id == id) else {
            return false;
        };
        self.rows.remove(at);
        self.deleted.insert(id);
        if self.decoupled {
            if let Some(e) = self.entries.iter_mut().rev().find(|e| e.id == id && e.live) {
                e.live = false;
            }
        }
        true
    }

    fn lookup(&self, id: i64) -> Vec<Vec<Value>> {
        self.rows
            .iter()
            .filter(|r| r.id == id)
            .map(Row::values)
            .collect()
    }

    fn top_k(&self, q: &[f32], k: usize) -> Vec<Vec<Value>> {
        let l2 = |v: &[f32]| -> f32 { v.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum() };
        let want = k + self.deleted.len();
        let mut ranked: Vec<(f32, u64, usize)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let tie = if self.decoupled {
                    i as u64
                } else {
                    e.id as u64
                };
                (l2(&e.vec), tie, i)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let found: Vec<i64> = if self.decoupled {
            let dead = self.entries.iter().filter(|e| !e.live).count();
            ranked
                .iter()
                .take((want + dead).min(self.entries.len()))
                .filter(|c| self.entries[c.2].live)
                .take(want)
                .map(|c| self.entries[c.2].id)
                .collect()
        } else {
            ranked
                .iter()
                .take(want)
                .map(|c| self.entries[c.2].id)
                .collect()
        };
        found
            .into_iter()
            .filter(|id| !self.deleted.contains(id))
            .take(k)
            .map(|id| {
                self.newest_row(id)
                    .expect("a hit's id has a live row")
                    .values()
            })
            .collect()
    }
}

fn random_vec(rng: &mut Rng) -> Vec<f32> {
    (0..DIM)
        .map(|_| rng.range_usize(0..13) as f32 - 6.0)
        .collect()
}

fn literal(v: &[f32]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Ids cluster in a low window, so inserts pile into one leaf and split
/// it; a few are negative.
fn random_id(rng: &mut Rng, model: &Model, fresh: &mut i64) -> i64 {
    match rng.range_usize(0..10) {
        0..=4 => rng.range_usize(0..250) as i64 - 50,
        5 | 6 => match model.rows.len() {
            0 => 0,
            n => model.rows[rng.range_usize(0..n)].id,
        },
        7 => match model.deleted.len() {
            0 => 3,
            n => *model
                .deleted
                .iter()
                .nth(rng.range_usize(0..n))
                .unwrap_or(&3),
        },
        _ => {
            *fresh += 1;
            *fresh
        }
    }
}

fn run_case(rng: &mut Rng, using: &str) {
    let decoupled = using.starts_with("decoupled");
    let mut db = Database::new(PageSize::Size8K, POOL_PAGES);
    db.execute(&format!(
        "CREATE TABLE t (id int, price float, vec float[{DIM}])"
    ))
    .unwrap();
    let mut model = Model {
        decoupled,
        rows: Vec::new(),
        deleted: BTreeSet::new(),
        entries: Vec::new(),
    };
    // Bulk load across several leaves (457 entries per built leaf),
    // with duplicate ids.
    let n0 = rng.range_usize(900..1400);
    let mut fresh = n0 as i64;
    let mut ids = Vec::with_capacity(n0);
    let mut attrs = Vec::with_capacity(n0);
    let mut vectors = VectorSet::empty(DIM);
    for i in 0..n0 {
        let id = if rng.range_usize(0..20) == 0 {
            rng.range_usize(0..n0) as i64
        } else {
            i as i64
        };
        let row = Row {
            id,
            price: rng.range_usize(0..1000) as f64,
            vec: random_vec(rng),
        };
        ids.push(row.id);
        attrs.push(vec![row.price]);
        vectors.push(&row.vec);
        model.rows.push(row);
    }
    db.bulk_load_with_attrs("t", &ids, &attrs, &vectors)
        .unwrap();
    db.execute(&format!(
        "CREATE INDEX ix ON t USING {using}(vec) WITH (clusters = 4, nprobe = 4)"
    ))
    .unwrap();
    model.index_rows();

    for step in 0..rng.range_usize(250..400) {
        let why = format!("{using} step {step}");
        match rng.range_usize(0..20) {
            0..=6 => {
                let rows: Vec<Row> = (0..rng.range_usize(1..4))
                    .map(|_| Row {
                        id: random_id(rng, &model, &mut fresh),
                        price: rng.range_usize(0..1000) as f64,
                        vec: random_vec(rng),
                    })
                    .collect();
                let values: Vec<String> = rows
                    .iter()
                    .map(|r| format!("({}, {}, '{{{}}}')", r.id, r.price, literal(&r.vec)))
                    .collect();
                db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                    .unwrap_or_else(|e| panic!("{why}: {e}"));
                for r in rows {
                    model.insert(r);
                }
            }
            7..=11 => {
                let id = random_id(rng, &model, &mut fresh);
                let res = db.execute(&format!("DELETE FROM t WHERE id = {id}"));
                assert_eq!(res.is_ok(), model.delete(id), "{why}: DELETE {id}: {res:?}");
            }
            12..=15 => {
                let id = random_id(rng, &model, &mut fresh);
                // Half the lookups take a LIMIT: the first rows, oldest first.
                let (limit, clause) = match rng.bool() {
                    true => {
                        let l = rng.range_usize(1..4);
                        (l, format!(" LIMIT {l}"))
                    }
                    false => (usize::MAX, String::new()),
                };
                let res = db
                    .query(&format!("SELECT * FROM t WHERE id = {id}{clause}"))
                    .unwrap_or_else(|e| panic!("{why}: {e}"));
                let mut want = model.lookup(id);
                want.truncate(limit);
                assert_eq!(res.rows, want, "{why}: WHERE id = {id}{clause}");
            }
            _ => {
                let q = random_vec(rng);
                let k = rng.range_usize(1..16);
                let res = db
                    .query(&format!(
                        "SELECT * FROM t ORDER BY vec <-> '{}' LIMIT {k}",
                        literal(&q)
                    ))
                    .unwrap_or_else(|e| panic!("{why}: {e}"));
                assert_eq!(res.rows, model.top_k(&q, k), "{why}: top-{k} of {q:?}");
            }
        }
    }
    // Sweep: every id the case touched, and the heap itself.
    let mut touched: Vec<i64> = model.entries.iter().map(|e| e.id).collect();
    touched.sort_unstable();
    touched.dedup();
    for id in touched {
        let res = db
            .query(&format!("SELECT * FROM t WHERE id = {id}"))
            .unwrap();
        assert_eq!(res.rows, model.lookup(id), "{using} sweep: WHERE id = {id}");
    }
    let all = db.query("SELECT * FROM t").unwrap();
    let want: Vec<Vec<Value>> = model.rows.iter().map(Row::values).collect();
    assert_eq!(all.rows, want, "{using} sweep: heap order");
}

#[test]
fn ivfflat_table_matches_row_model() {
    cases("ivfflat_table_matches_row_model", 6, |rng| {
        run_case(rng, "ivfflat")
    });
}

#[test]
fn decoupled_ivfflat_table_matches_row_model() {
    cases("decoupled_ivfflat_table_matches_row_model", 6, |rng| {
        run_case(rng, "decoupled_ivfflat")
    });
}

//! Integration tests for the SQL extensions: EXPLAIN and DELETE with
//! index visibility checks.

use vdb_core::datagen::gaussian;
use vdb_core::sql::{Database, SqlError, Value};

fn loaded_db() -> Database {
    let mut db = Database::in_memory();
    db.execute("CREATE TABLE t (id int, vec float[8])").unwrap();
    let data = gaussian::generate(8, 400, 4, 77);
    let ids: Vec<i64> = (0..400).collect();
    db.bulk_load("t", &ids, &data).unwrap();
    db
}

#[test]
fn explain_shows_seq_scan_without_index() {
    let mut db = loaded_db();
    let res = db
        .execute("EXPLAIN SELECT id FROM t ORDER BY vec <-> '1,1,1,1,1,1,1,1' LIMIT 5")
        .unwrap();
    assert_eq!(res.columns, vec!["plan"]);
    let Value::Text(plan) = &res.rows[0][0] else {
        panic!("plan not text")
    };
    assert!(plan.contains("Seq Scan"), "{plan}");
}

#[test]
fn explain_switches_to_index_scan_after_create_index() {
    let mut db = loaded_db();
    db.execute("CREATE INDEX i ON t USING ivfflat(vec) WITH (clusters = 8, sample_ratio = 500)")
        .unwrap();
    let res = db
        .execute("EXPLAIN SELECT id FROM t ORDER BY vec <-> '1,1,1,1,1,1,1,1' LIMIT 5")
        .unwrap();
    let Value::Text(plan) = &res.rows[0][0] else {
        panic!("plan not text")
    };
    assert!(plan.contains("Index Scan using i (ivfflat)"), "{plan}");
    // A mismatched operator still plans a seq scan.
    let res = db
        .execute("EXPLAIN SELECT id FROM t ORDER BY vec <=> '1,1,1,1,1,1,1,1' LIMIT 5")
        .unwrap();
    let Value::Text(plan) = &res.rows[0][0] else {
        panic!("plan not text")
    };
    assert!(plan.contains("Seq Scan"), "{plan}");
}

#[test]
fn explain_point_lookup() {
    let mut db = loaded_db();
    let res = db.execute("EXPLAIN SELECT id FROM t WHERE id = 7").unwrap();
    let Value::Text(plan) = &res.rows[0][0] else {
        panic!("plan not text")
    };
    assert!(
        plan.starts_with("Index Scan using btree (id) on t"),
        "{plan}"
    );
    assert!(plan.contains("id = 7"), "{plan}");
}

#[test]
fn delete_removes_row_from_seq_scan() {
    let mut db = loaded_db();
    db.execute("DELETE FROM t WHERE id = 42").unwrap();
    let res = db.execute("SELECT id FROM t WHERE id = 42").unwrap();
    assert!(res.rows.is_empty());
    // Deleting again errors.
    let err = db.execute("DELETE FROM t WHERE id = 42").unwrap_err();
    assert!(matches!(err, SqlError::Semantic(_)));
}

#[test]
fn delete_is_invisible_through_index_scans() {
    let mut db = loaded_db();
    db.execute("CREATE INDEX i ON t USING ivfflat(vec) WITH (clusters = 8, sample_ratio = 500)")
        .unwrap();
    // Find the current nearest to some query, then delete it.
    let res = db
        .execute("SELECT id FROM t ORDER BY vec <-> '0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5:8' LIMIT 1")
        .unwrap();
    let nearest = res.ids()[0];
    db.execute(&format!("DELETE FROM t WHERE id = {nearest}"))
        .unwrap();
    // The visibility check must keep the dead row out of results even
    // though the index still holds its entry.
    let res = db
        .execute("SELECT id FROM t ORDER BY vec <-> '0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5:8' LIMIT 5")
        .unwrap();
    assert!(
        !res.ids().contains(&nearest),
        "deleted id {nearest} leaked: {:?}",
        res.ids()
    );
}

#[test]
fn delete_then_reinsert_same_id_is_visible_again() {
    let mut db = loaded_db();
    db.execute("CREATE INDEX i ON t USING ivfflat(vec) WITH (clusters = 8, sample_ratio = 500)")
        .unwrap();
    db.execute("DELETE FROM t WHERE id = 10").unwrap();
    db.execute("INSERT INTO t VALUES (10, '{9,9,9,9,9,9,9,9}')")
        .unwrap();
    let res = db
        .execute("SELECT id FROM t ORDER BY vec <-> '9,9,9,9,9,9,9,9:8' LIMIT 1")
        .unwrap();
    assert_eq!(res.ids(), vec![10]);
}

#[test]
fn explain_rejects_non_select() {
    let mut db = loaded_db();
    assert!(db.execute("EXPLAIN DROP TABLE t").is_err());
}

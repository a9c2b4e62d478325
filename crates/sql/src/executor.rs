//! Plan execution.

use crate::database::{Database, QueryResult, Value};
use crate::planner::Plan;
use crate::{Result, SqlError};
use std::ops::ControlFlow;
use vdb_filter::{AttrSchema, BoundPredicate, FilterStrategy, Predicate, SelectionBitmap};
use vdb_profile::{self as profile, Category};
use vdb_storage::btree::key_from_i64;
use vdb_storage::tuple::{decode_attrs, decode_id, vector_slice};
use vdb_storage::Tid;
use vdb_vecmath::{DistanceKernel, Metric, NHeap, Neighbor};

/// A materialized result row before projection: id, scalar attribute
/// values (table declaration order), vector, optional distance.
type Row = (i64, Vec<f64>, Vec<f32>, Option<f32>);

/// Execute a planned `SELECT` against `db`.
pub fn execute_select(
    db: &Database,
    table: &str,
    projection: &[String],
    plan: Plan,
) -> Result<QueryResult> {
    match plan {
        Plan::IndexScan {
            index, query, k, ..
        } => {
            let ix = db.index(&index)?;
            if query.vector.len() != ix.index.dim() {
                return Err(SqlError::Semantic(format!(
                    "query dimension {} does not match index dimension {}",
                    query.vector.len(),
                    ix.index.dim()
                )));
            }
            // Visibility check: indexes keep entries for deleted rows
            // until rebuilt (as PostgreSQL does until VACUUM); over-fetch
            // by the dead-set size so k live rows survive the filter.
            let deleted = &db.table(table)?.deleted;
            let mut found =
                db.serve_scan(&index, ix, &query.vector, k + deleted.len(), query.knob)?;
            if !deleted.is_empty() {
                found.retain(|n| !deleted.contains(&(n.id as i64)));
            }
            found.truncate(k);
            project_neighbors(db, table, projection, &found)
        }
        Plan::SeqScanTopK { query, k, metric } => {
            let found = seq_scan_topk(
                db,
                table,
                None,
                &query.vector,
                k,
                metric,
                DistanceKernel::Optimized,
            )?;
            project_neighbors(db, table, projection, &found)
        }
        Plan::FilteredIndexScan {
            index,
            pred,
            query,
            k,
            metric,
            strategy,
        } => {
            let ix = db.index(&index)?;
            if query.vector.len() != ix.index.dim() {
                return Err(SqlError::Semantic(format!(
                    "query dimension {} does not match index dimension {}",
                    query.vector.len(),
                    ix.index.dim()
                )));
            }
            let bound = bind_for_table(db, table, &pred)?;
            // Both strategies read the heap exactly once. Pre-filter's
            // pass *is* the search: the exact filtered scan, with the
            // generalized engine's distance kernel, touching no index
            // page. Post-filter's pass evaluates the predicate into a
            // selection bitmap for one filtered walk of the probed lists.
            let exact = || {
                seq_scan_topk(
                    db,
                    table,
                    Some(&bound),
                    &query.vector,
                    k,
                    metric,
                    db.options.distance,
                )
            };
            let found = match strategy {
                FilterStrategy::PreFilter => exact()?,
                FilterStrategy::PostFilter => match predicate_bitmap(db, table, &bound)? {
                    Some(bitmap) => ix.index.scan_filtered(
                        db.bm(),
                        &query.vector,
                        k,
                        &bitmap,
                        strategy,
                        query.knob,
                    )?,
                    // The bitmap is keyed by unsigned row id; a negative
                    // id would wrap to an astronomical key. Fall back to
                    // the exact scan, which is correct at any selectivity.
                    None => exact()?,
                },
            };
            project_neighbors(db, table, projection, &found)
        }
        Plan::FilteredSeqScanTopK {
            pred,
            query,
            k,
            metric,
        } => {
            let bound = bind_for_table(db, table, &pred)?;
            let found = seq_scan_topk(
                db,
                table,
                Some(&bound),
                &query.vector,
                k,
                metric,
                DistanceKernel::Optimized,
            )?;
            project_neighbors(db, table, projection, &found)
        }
        Plan::PointLookup { id } => {
            let state = db.table(table)?;
            let key = key_from_i64(id);
            let mut tids = Vec::new();
            state.ids.range(db.bm(), key, key, |hit| {
                tids.push(hit.tid);
                ControlFlow::Continue(())
            })?;
            let rows = tids
                .into_iter()
                .map(|tid| fetch_row(db, table, tid, None))
                .collect::<Result<Vec<Row>>>()?;
            project_rows(db, table, projection, &rows)
        }
        Plan::FilteredScan { pred, limit } => {
            let bound = bind_for_table(db, table, &pred)?;
            let state = db.table(table)?;
            let nattrs = state.attrs.len();
            let mut rows: Vec<Row> = Vec::new();
            let mut eval_row: Vec<f64> = Vec::with_capacity(nattrs + 1);
            state.heap.scan_until(db.bm(), |_, bytes| {
                if limit.is_some_and(|l| rows.len() >= l) {
                    return ControlFlow::Break(());
                }
                let id = decode_id(bytes);
                let attrs = decode_attrs(bytes, nattrs);
                eval_row.clear();
                eval_row.push(id as f64);
                eval_row.extend_from_slice(&attrs);
                let passes = {
                    let _t = profile::scoped(Category::FilterEval);
                    bound.eval(&eval_row)
                };
                if passes {
                    rows.push((id, attrs, vector_slice(bytes, nattrs).to_vec(), None));
                }
                ControlFlow::Continue(())
            })?;
            project_rows(db, table, projection, &rows)
        }
        Plan::FullScan { limit } => {
            let state = db.table(table)?;
            let nattrs = state.attrs.len();
            let mut rows: Vec<Row> = Vec::new();
            state.heap.scan_until(db.bm(), |_, bytes| {
                if limit.is_some_and(|l| rows.len() >= l) {
                    return ControlFlow::Break(());
                }
                rows.push((
                    decode_id(bytes),
                    decode_attrs(bytes, nattrs),
                    vector_slice(bytes, nattrs).to_vec(),
                    None,
                ));
                ControlFlow::Continue(())
            })?;
            project_rows(db, table, projection, &rows)
        }
    }
}

/// Bind a predicate against a table's scalar columns (`id` + attrs).
pub(crate) fn bind_for_table(
    db: &Database,
    table: &str,
    pred: &Predicate,
) -> Result<BoundPredicate> {
    let state = db.table(table)?;
    pred.bind(&table_schema(&state.attrs))
        .map_err(SqlError::Semantic)
}

/// One heap pass evaluating `pred` into a selection bitmap of passing
/// row ids. Deleted rows are gone from the heap, so the bitmap doubles
/// as the visibility check. `None` if a passing row has a negative id,
/// which the unsigned bitmap cannot key.
fn predicate_bitmap(
    db: &Database,
    table: &str,
    pred: &BoundPredicate,
) -> Result<Option<SelectionBitmap>> {
    let state = db.table(table)?;
    let nattrs = state.attrs.len();
    let mut bitmap = SelectionBitmap::new();
    let mut eval_row: Vec<f64> = Vec::with_capacity(nattrs + 1);
    let mut negative_id_passed = false;
    state.heap.scan(db.bm(), |_, bytes| {
        let id = decode_id(bytes);
        eval_row.clear();
        eval_row.push(id as f64);
        for i in 0..nattrs {
            eval_row.push(vdb_storage::tuple::decode_attr(bytes, i));
        }
        let passes = {
            let _t = profile::scoped(Category::FilterEval);
            pred.eval(&eval_row)
        };
        if passes {
            if id < 0 {
                negative_id_passed = true;
            } else {
                bitmap.insert(id as u64);
            }
        }
    })?;
    Ok((!negative_id_passed).then_some(bitmap))
}

/// The predicate-visible schema of a table: `id` then the attribute
/// columns in declaration order (matching the evaluation-row layout).
pub(crate) fn table_schema(attrs: &[String]) -> AttrSchema {
    let mut names = Vec::with_capacity(attrs.len() + 1);
    names.push("id".to_string());
    names.extend(attrs.iter().cloned());
    AttrSchema::new(names)
}

/// No usable index: scan every tuple (optionally those passing `pred`)
/// and keep the top k. This mirrors the PostgreSQL fallback — and uses
/// the size-n heap, since that *is* the executor behaviour RC#6
/// describes. With a predicate this is brute-force-under-filter: the
/// exact answer every filtered strategy must agree with, and the plan a
/// pre-filter runs.
fn seq_scan_topk(
    db: &Database,
    table: &str,
    pred: Option<&BoundPredicate>,
    query: &[f32],
    k: usize,
    metric: Metric,
    kernel: DistanceKernel,
) -> Result<Vec<Neighbor>> {
    let state = db.table(table)?;
    let nattrs = state.attrs.len();
    let dim = state
        .dim
        .ok_or_else(|| SqlError::Semantic("table has no rows to search".into()))?;
    if query.len() != dim {
        return Err(SqlError::Semantic(format!(
            "query dimension {} does not match table dimension {dim}",
            query.len()
        )));
    }
    let mut heap = NHeap::new(k);
    let mut eval_row: Vec<f64> = Vec::with_capacity(nattrs + 1);
    state.heap.scan(db.bm(), |_, bytes| {
        let id = decode_id(bytes);
        if let Some(p) = pred {
            eval_row.clear();
            eval_row.push(id as f64);
            for i in 0..nattrs {
                eval_row.push(vdb_storage::tuple::decode_attr(bytes, i));
            }
            let passes = {
                let _t = profile::scoped(Category::FilterEval);
                p.eval(&eval_row)
            };
            if !passes {
                return;
            }
        }
        let v = vector_slice(bytes, nattrs);
        heap.push(id as u64, metric.distance_with(kernel, query, v));
    })?;
    Ok(heap.into_sorted())
}

/// Resolve neighbors into projected rows (fetching vectors and
/// attribute values from the table when the projection needs them).
fn project_neighbors(
    db: &Database,
    table: &str,
    projection: &[String],
    found: &[Neighbor],
) -> Result<QueryResult> {
    let state = db.table(table)?;
    // id and distance come straight from the neighbor list; anything
    // else (vec, attrs, *) needs the row.
    let needs_fetch = projection.iter().any(|c| c != "id" && c != "distance");
    let mut rows: Vec<Row> = Vec::with_capacity(found.len());
    if needs_fetch {
        // Each id's newest row, through the id tree.
        for n in found {
            let id = n.id as i64;
            let hit = state
                .ids
                .last(db.bm(), key_from_i64(id))?
                .ok_or_else(|| SqlError::Semantic(format!("index returned unknown id {id}")))?;
            rows.push(fetch_row(db, table, hit.tid, Some(n.distance))?);
        }
    } else {
        for n in found {
            rows.push((n.id as i64, Vec::new(), Vec::new(), Some(n.distance)));
        }
    }
    project_rows(db, table, projection, &rows)
}

/// The row at `tid`, with `distance` attached.
fn fetch_row(db: &Database, table: &str, tid: Tid, distance: Option<f32>) -> Result<Row> {
    let state = db.table(table)?;
    let nattrs = state.attrs.len();
    Ok(state.heap.fetch_bytes(db.bm(), tid, |bytes| {
        (
            decode_id(bytes),
            decode_attrs(bytes, nattrs),
            vector_slice(bytes, nattrs).to_vec(),
            distance,
        )
    })?)
}

/// Apply the projection list to materialized rows.
fn project_rows(
    db: &Database,
    table: &str,
    projection: &[String],
    rows: &[Row],
) -> Result<QueryResult> {
    let attr_names = &db.table(table)?.attrs;
    let cols: Vec<String> = if projection.iter().any(|c| c == "*") {
        let mut all = vec!["id".to_string()];
        all.extend(attr_names.iter().cloned());
        all.push("vec".into());
        all
    } else {
        projection.to_vec()
    };
    let mut out = QueryResult {
        columns: cols.clone(),
        rows: Vec::with_capacity(rows.len()),
    };
    for (id, attrs, vec, dist) in rows {
        let mut row = Vec::with_capacity(cols.len());
        for c in &cols {
            match c.as_str() {
                "id" => row.push(Value::Int(*id)),
                "vec" => row.push(Value::Vector(vec.clone())),
                "distance" => {
                    let d = dist.ok_or_else(|| {
                        SqlError::Semantic("distance is only available in vector searches".into())
                    })?;
                    row.push(Value::Float(d as f64));
                }
                other => match attr_names.iter().position(|a| a == other) {
                    Some(i) => row.push(Value::Float(attrs[i])),
                    None => return Err(SqlError::Semantic(format!("unknown column {other:?}"))),
                },
            }
        }
        out.rows.push(row);
    }
    Ok(out)
}

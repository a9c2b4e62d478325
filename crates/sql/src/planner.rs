//! Query planning.
//!
//! Paper §II-E: one of the challenges of a generalized vector database
//! is making "the newly-built index recognizable by the SQL query
//! optimizer". The rule implemented here is PostgreSQL's: a `SELECT ...
//! ORDER BY vec <op> literal LIMIT k` qualifies for an index scan when
//! an index exists on that table+column whose operator family matches;
//! otherwise the executor falls back to a sequential scan feeding a
//! top-k sort.
//!
//! Hybrid (filtered) vector queries — `WHERE pred ... ORDER BY vec <op>
//! lit LIMIT k` — additionally pick a *filter strategy*: evaluate the
//! predicate first and search only the passing rows (pre-filter, run as
//! the exact filtered heap scan), or search the index and drop
//! non-passing results (post-filter). The choice is driven by the
//! estimated predicate selectivity via [`vdb_filter::choose_strategy`].

use crate::ast::{Statement, VectorOrderBy};
use crate::pase_literal::PaseLiteral;
use crate::{Result, SqlError};
use vdb_filter::{choose_strategy, FilterStrategy, Predicate};
use vdb_vecmath::Metric;

/// An executable plan for a `SELECT`.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Top-k via a vector index.
    IndexScan {
        /// Which index to scan.
        index: String,
        /// Parsed query literal.
        query: PaseLiteral,
        /// Result count.
        k: usize,
        /// Metric implied by the operator (must match the index's).
        metric: Metric,
    },
    /// Top-k via sequential scan + sort (no usable index).
    SeqScanTopK {
        /// Parsed query literal.
        query: PaseLiteral,
        /// Result count.
        k: usize,
        /// Metric implied by the operator.
        metric: Metric,
    },
    /// Filtered top-k on a table with a matching vector index. The
    /// executor runs a pre-filter plan as the exact filtered heap scan
    /// (no index page read) and a post-filter plan as a selection-bitmap
    /// heap pass plus one filtered index search.
    FilteredIndexScan {
        /// Which index to scan.
        index: String,
        /// The scalar predicate.
        pred: Predicate,
        /// Parsed query literal.
        query: PaseLiteral,
        /// Result count.
        k: usize,
        /// Metric implied by the operator.
        metric: Metric,
        /// Pre- vs post-filter, chosen from estimated selectivity.
        strategy: FilterStrategy,
    },
    /// Filtered top-k via sequential scan: evaluate the predicate on
    /// every tuple and sort the survivors by distance.
    FilteredSeqScanTopK {
        /// The scalar predicate.
        pred: Predicate,
        /// Parsed query literal.
        query: PaseLiteral,
        /// Result count.
        k: usize,
        /// Metric implied by the operator.
        metric: Metric,
    },
    /// `WHERE id = n` point lookup through the table's id B-tree.
    PointLookup {
        /// The id searched for.
        id: i64,
    },
    /// Predicate-only scan, no vector ordering.
    FilteredScan {
        /// The scalar predicate.
        pred: Predicate,
        /// Optional row limit.
        limit: Option<usize>,
    },
    /// Unfiltered scan (optionally limited).
    FullScan {
        /// Optional row limit.
        limit: Option<usize>,
    },
}

/// Information the planner needs about one candidate index.
#[derive(Clone, Debug)]
pub struct IndexCandidate {
    /// Index name.
    pub name: String,
    /// Indexed column.
    pub column: String,
    /// Metric the index was built with.
    pub metric: Metric,
}

/// Table statistics driving the filter-strategy choice — the moral
/// equivalent of `pg_statistic` for this planner.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableStats {
    /// Number of live rows.
    pub nrows: usize,
    /// Estimated fraction of rows passing the WHERE predicate (from a
    /// sample), when a predicate is present and estimable.
    pub selectivity: Option<f64>,
}

/// Plan a parsed `SELECT` given the table's candidate indexes and
/// statistics.
pub fn plan_select(
    stmt: &Statement,
    candidates: &[IndexCandidate],
    stats: &TableStats,
) -> Result<Plan> {
    let Statement::Select {
        where_clause,
        order_by,
        limit,
        ..
    } = stmt
    else {
        return Err(SqlError::Semantic("plan_select requires a SELECT".into()));
    };

    let Some(ob) = order_by else {
        return Ok(match where_clause {
            // The classic point lookup keeps its dedicated plan.
            Some(pred) => match pred.as_id_equality() {
                Some(id) => Plan::PointLookup { id },
                None => Plan::FilteredScan {
                    pred: pred.clone(),
                    limit: *limit,
                },
            },
            None => Plan::FullScan { limit: *limit },
        });
    };

    let k = limit.ok_or_else(|| {
        SqlError::Semantic("vector ORDER BY requires a LIMIT (top-k) clause".into())
    })?;
    let query = PaseLiteral::parse(&ob.literal)?;
    let metric = ob.metric();

    let index = pick_index(ob, metric, candidates);
    match (where_clause, index) {
        (None, Some(index)) => Ok(Plan::IndexScan {
            index,
            query,
            k,
            metric,
        }),
        (None, None) => Ok(Plan::SeqScanTopK { query, k, metric }),
        (Some(pred), Some(index)) => {
            let strategy = choose_strategy(stats.selectivity.unwrap_or(1.0), k, stats.nrows);
            Ok(Plan::FilteredIndexScan {
                index,
                pred: pred.clone(),
                query,
                k,
                metric,
                strategy,
            })
        }
        (Some(pred), None) => Ok(Plan::FilteredSeqScanTopK {
            pred: pred.clone(),
            query,
            k,
            metric,
        }),
    }
}

fn pick_index(ob: &VectorOrderBy, metric: Metric, candidates: &[IndexCandidate]) -> Option<String> {
    candidates
        .iter()
        .find(|c| c.column == ob.column && c.metric == metric)
        .map(|c| c.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cands() -> Vec<IndexCandidate> {
        vec![IndexCandidate {
            name: "idx".into(),
            column: "vec".into(),
            metric: Metric::L2,
        }]
    }

    fn stats(nrows: usize, sel: Option<f64>) -> TableStats {
        TableStats {
            nrows,
            selectivity: sel,
        }
    }

    #[test]
    fn order_by_with_matching_index_uses_index_scan() {
        let stmt = parse("SELECT id FROM t ORDER BY vec <-> '1,2' LIMIT 5").unwrap();
        let plan = plan_select(&stmt, &cands(), &stats(0, None)).unwrap();
        match plan {
            Plan::IndexScan {
                index, k, metric, ..
            } => {
                assert_eq!(index, "idx");
                assert_eq!(k, 5);
                assert_eq!(metric, Metric::L2);
            }
            other => panic!("expected index scan, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_metric_falls_back_to_seq_scan() {
        let stmt = parse("SELECT id FROM t ORDER BY vec <#> '1,2' LIMIT 5").unwrap();
        let plan = plan_select(&stmt, &cands(), &stats(0, None)).unwrap();
        assert!(matches!(plan, Plan::SeqScanTopK { .. }));
    }

    #[test]
    fn mismatched_column_falls_back() {
        let stmt = parse("SELECT id FROM t ORDER BY other <-> '1,2' LIMIT 5").unwrap();
        assert!(matches!(
            plan_select(&stmt, &cands(), &stats(0, None)).unwrap(),
            Plan::SeqScanTopK { .. }
        ));
    }

    #[test]
    fn vector_order_without_limit_is_rejected() {
        let stmt = parse("SELECT id FROM t ORDER BY vec <-> '1,2'").unwrap();
        assert!(plan_select(&stmt, &cands(), &stats(0, None)).is_err());
    }

    #[test]
    fn where_id_plans_point_lookup() {
        let stmt = parse("SELECT id FROM t WHERE id = 3").unwrap();
        assert_eq!(
            plan_select(&stmt, &cands(), &stats(0, None)).unwrap(),
            Plan::PointLookup { id: 3 }
        );
    }

    #[test]
    fn bare_select_plans_full_scan() {
        let stmt = parse("SELECT id FROM t LIMIT 3").unwrap();
        assert_eq!(
            plan_select(&stmt, &cands(), &stats(0, None)).unwrap(),
            Plan::FullScan { limit: Some(3) }
        );
    }

    #[test]
    fn where_without_order_by_plans_filtered_scan() {
        let stmt = parse("SELECT id FROM t WHERE price < 10 LIMIT 3").unwrap();
        match plan_select(&stmt, &cands(), &stats(100, None)).unwrap() {
            Plan::FilteredScan { pred, limit } => {
                assert_eq!(pred.columns(), vec!["price"]);
                assert_eq!(limit, Some(3));
            }
            other => panic!("expected filtered scan, got {other:?}"),
        }
    }

    /// Regression: `WHERE id = n` combined with vector ORDER BY used to
    /// be a hard "not supported" error. It now plans as a filtered
    /// vector search like any other predicate.
    #[test]
    fn where_id_with_order_by_is_supported() {
        let stmt = parse("SELECT id FROM t WHERE id = 3 ORDER BY vec <-> '1,2' LIMIT 5").unwrap();
        let plan = plan_select(&stmt, &cands(), &stats(1000, Some(0.001))).unwrap();
        assert!(
            matches!(plan, Plan::FilteredIndexScan { .. }),
            "got {plan:?}"
        );
    }

    #[test]
    fn selective_predicate_picks_pre_filter() {
        let stmt = parse("SELECT id FROM t WHERE a < 1 ORDER BY vec <-> '1,2' LIMIT 10").unwrap();
        let plan = plan_select(&stmt, &cands(), &stats(100_000, Some(0.01))).unwrap();
        match plan {
            Plan::FilteredIndexScan { strategy, .. } => {
                assert_eq!(strategy, FilterStrategy::PreFilter);
            }
            other => panic!("expected filtered index scan, got {other:?}"),
        }
    }

    #[test]
    fn permissive_predicate_picks_post_filter() {
        let stmt = parse("SELECT id FROM t WHERE a < 1 ORDER BY vec <-> '1,2' LIMIT 10").unwrap();
        let plan = plan_select(&stmt, &cands(), &stats(100_000, Some(0.9))).unwrap();
        match plan {
            Plan::FilteredIndexScan { strategy, .. } => {
                assert_eq!(strategy, FilterStrategy::PostFilter);
            }
            other => panic!("expected filtered index scan, got {other:?}"),
        }
    }

    #[test]
    fn filtered_query_without_index_plans_filtered_seq_scan() {
        let stmt = parse("SELECT id FROM t WHERE a < 1 ORDER BY vec <#> '1,2' LIMIT 10").unwrap();
        let plan = plan_select(&stmt, &cands(), &stats(100, Some(0.5))).unwrap();
        assert!(
            matches!(plan, Plan::FilteredSeqScanTopK { .. }),
            "got {plan:?}"
        );
    }
}

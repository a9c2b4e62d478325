//! Typed predicate expression trees over scalar attribute columns.
//!
//! A [`Predicate`] references columns by name; binding it against an
//! [`AttrSchema`] resolves the names to dense column indexes once, so
//! per-tuple evaluation is a cheap index walk with no string hashing —
//! the evaluation sits on the scan hot path and is attributed to
//! `Category::FilterEval` by callers.

use std::fmt;

/// A comparison operator in a predicate leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to `lhs <op> rhs`.
    #[inline]
    pub fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A boolean predicate over named scalar columns.
///
/// Scalar attribute values are uniformly `f64` (integers included — the
/// SQL layer stores attribute columns as 8-byte floats, wide enough for
/// exact integer comparison up to 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `col <op> literal`
    Cmp {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: f64,
    },
    /// `col IN (v1, v2, ...)`
    In {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<f64>,
    },
    /// `col BETWEEN lo AND hi` (inclusive both ends, SQL semantics).
    Between {
        /// Column name.
        column: String,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Every distinct column name the predicate references, in first-use
    /// order.
    pub fn columns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.walk_columns(&mut out);
        out
    }

    fn walk_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Cmp { column, .. }
            | Predicate::In { column, .. }
            | Predicate::Between { column, .. } => {
                if !out.contains(&column.as_str()) {
                    out.push(column);
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.walk_columns(out);
                b.walk_columns(out);
            }
            Predicate::Not(p) => p.walk_columns(out),
        }
    }

    /// If the predicate is exactly `id = <integer>`, the integer — the
    /// planner's point-lookup fast path.
    pub fn as_id_equality(&self) -> Option<i64> {
        match self {
            Predicate::Cmp {
                column,
                op: CmpOp::Eq,
                value,
            } if column == "id" && value.fract() == 0.0 => Some(*value as i64),
            _ => None,
        }
    }

    /// Bind column names to indexes in `schema`, failing with the first
    /// unknown column name.
    pub fn bind(&self, schema: &AttrSchema) -> Result<BoundPredicate, String> {
        Ok(BoundPredicate {
            node: self.bind_node(schema)?,
        })
    }

    fn bind_node(&self, schema: &AttrSchema) -> Result<BoundNode, String> {
        Ok(match self {
            Predicate::Cmp { column, op, value } => BoundNode::Cmp {
                col: schema.index_of(column)?,
                op: *op,
                value: *value,
            },
            Predicate::In { column, values } => BoundNode::In {
                col: schema.index_of(column)?,
                values: values.clone(),
            },
            Predicate::Between { column, lo, hi } => BoundNode::Between {
                col: schema.index_of(column)?,
                lo: *lo,
                hi: *hi,
            },
            Predicate::And(a, b) => BoundNode::And(
                Box::new(a.bind_node(schema)?),
                Box::new(b.bind_node(schema)?),
            ),
            Predicate::Or(a, b) => BoundNode::Or(
                Box::new(a.bind_node(schema)?),
                Box::new(b.bind_node(schema)?),
            ),
            Predicate::Not(p) => BoundNode::Not(Box::new(p.bind_node(schema)?)),
        })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { column, op, value } => {
                write!(f, "{column} {} {value}", op.symbol())
            }
            Predicate::In { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

/// The scalar-column layout a predicate binds against: ordered column
/// names, position = index into the evaluation row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttrSchema {
    names: Vec<String>,
}

impl AttrSchema {
    /// A schema with the given column names (order = row layout).
    pub fn new(names: Vec<String>) -> AttrSchema {
        AttrSchema { names }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Column names in layout order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a named column.
    pub fn index_of(&self, name: &str) -> Result<usize, String> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| format!("unknown column {name:?} in predicate"))
    }
}

/// A predicate with column names resolved to row indexes; evaluate with
/// [`BoundPredicate::eval`] against one row of attribute values.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundPredicate {
    node: BoundNode,
}

#[derive(Clone, Debug, PartialEq)]
enum BoundNode {
    Cmp { col: usize, op: CmpOp, value: f64 },
    In { col: usize, values: Vec<f64> },
    Between { col: usize, lo: f64, hi: f64 },
    And(Box<BoundNode>, Box<BoundNode>),
    Or(Box<BoundNode>, Box<BoundNode>),
    Not(Box<BoundNode>),
}

impl BoundPredicate {
    /// Evaluate against one attribute row (layout per the bound schema).
    ///
    /// # Panics
    /// Panics if `row` is shorter than the schema the predicate was
    /// bound against.
    #[inline]
    pub fn eval(&self, row: &[f64]) -> bool {
        eval_node(&self.node, row)
    }
}

fn eval_node(node: &BoundNode, row: &[f64]) -> bool {
    match node {
        BoundNode::Cmp { col, op, value } => op.apply(row[*col], *value),
        BoundNode::In { col, values } => values.iter().any(|v| *v == row[*col]),
        BoundNode::Between { col, lo, hi } => {
            let x = row[*col];
            *lo <= x && x <= *hi
        }
        BoundNode::And(a, b) => eval_node(a, row) && eval_node(b, row),
        BoundNode::Or(a, b) => eval_node(a, row) || eval_node(b, row),
        BoundNode::Not(p) => !eval_node(p, row),
    }
}

/// Estimate a bound predicate's selectivity (pass fraction) over a
/// sample of attribute rows. Returns 1.0 for an empty sample —
/// "everything passes" is the conservative guess that steers the
/// planner toward post-filtering, which degrades gracefully, instead of
/// a pre-filter scan justified by no evidence.
pub fn estimate_selectivity<'a>(
    pred: &BoundPredicate,
    sample: impl Iterator<Item = &'a [f64]>,
) -> f64 {
    let mut total = 0usize;
    let mut pass = 0usize;
    for row in sample {
        total += 1;
        if pred.eval(row) {
            pass += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        pass as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> AttrSchema {
        AttrSchema::new(vec!["a".into(), "b".into()])
    }

    fn cmp(column: &str, op: CmpOp, value: f64) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op,
            value,
        }
    }

    #[test]
    fn comparison_operators_apply() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(CmpOp::Le.apply(2.0, 2.0));
        assert!(CmpOp::Gt.apply(3.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Eq.apply(2.0, 2.0));
        assert!(CmpOp::Ne.apply(1.0, 2.0));
        assert!(!CmpOp::Lt.apply(2.0, 2.0));
    }

    #[test]
    fn bound_eval_and_or_not() {
        let p = Predicate::And(
            Box::new(cmp("a", CmpOp::Lt, 10.0)),
            Box::new(Predicate::Or(
                Box::new(cmp("b", CmpOp::Ge, 5.0)),
                Box::new(Predicate::Not(Box::new(cmp("b", CmpOp::Gt, 0.0)))),
            )),
        );
        let b = p.bind(&schema()).unwrap();
        assert!(b.eval(&[1.0, 7.0])); // a<10 && b>=5
        assert!(b.eval(&[1.0, 0.0])); // a<10 && !(b>0)
        assert!(!b.eval(&[1.0, 3.0])); // a<10 but b in (0,5)
        assert!(!b.eval(&[20.0, 7.0])); // a>=10
    }

    #[test]
    fn in_and_between() {
        let p = Predicate::And(
            Box::new(Predicate::In {
                column: "a".into(),
                values: vec![1.0, 3.0],
            }),
            Box::new(Predicate::Between {
                column: "b".into(),
                lo: 2.0,
                hi: 4.0,
            }),
        );
        let b = p.bind(&schema()).unwrap();
        assert!(b.eval(&[3.0, 2.0]));
        assert!(b.eval(&[1.0, 4.0]));
        assert!(!b.eval(&[2.0, 3.0]));
        assert!(!b.eval(&[1.0, 5.0]));
    }

    #[test]
    fn unknown_column_fails_bind() {
        let p = cmp("nope", CmpOp::Eq, 1.0);
        assert!(p.bind(&schema()).is_err());
    }

    #[test]
    fn columns_lists_each_once() {
        let p = Predicate::And(
            Box::new(cmp("a", CmpOp::Lt, 1.0)),
            Box::new(Predicate::Or(
                Box::new(cmp("b", CmpOp::Gt, 2.0)),
                Box::new(cmp("a", CmpOp::Gt, 0.0)),
            )),
        );
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn id_equality_detection() {
        assert_eq!(cmp("id", CmpOp::Eq, 7.0).as_id_equality(), Some(7));
        assert_eq!(cmp("id", CmpOp::Eq, 7.5).as_id_equality(), None);
        assert_eq!(cmp("id", CmpOp::Lt, 7.0).as_id_equality(), None);
        assert_eq!(cmp("a", CmpOp::Eq, 7.0).as_id_equality(), None);
    }

    #[test]
    fn selectivity_estimation_counts_pass_fraction() {
        let p = cmp("a", CmpOp::Lt, 5.0).bind(&schema()).unwrap();
        let rows: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 0.0]).collect();
        let est = estimate_selectivity(&p, rows.iter().map(|r| &r[..]));
        assert!((est - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_estimates_full_selectivity() {
        let p = cmp("a", CmpOp::Lt, 5.0).bind(&schema()).unwrap();
        assert_eq!(estimate_selectivity(&p, std::iter::empty()), 1.0);
    }

    #[test]
    fn display_round_trips_shape() {
        let p = Predicate::And(
            Box::new(cmp("a", CmpOp::Le, 3.0)),
            Box::new(Predicate::In {
                column: "b".into(),
                values: vec![1.0, 2.0],
            }),
        );
        assert_eq!(p.to_string(), "(a <= 3 AND b IN (1, 2))");
    }
}

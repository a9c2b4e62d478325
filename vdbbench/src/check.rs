//! Result checking: every reply of the measured phase is examined, and
//! recall is taken against a brute-force oracle over the rows that were
//! live when the query ran.

use crate::inputs::{Inputs, Mix, OpKind, K};
use crate::layers::{self, Rows};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::time::Instant;

/// One executed operation.
pub struct Sample {
    pub index: u64,
    pub kind: OpKind,
    /// Nanoseconds from the phase's origin to the call.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub reply: Result<Rows, String>,
}

impl Sample {
    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read { .. })
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the record.
    pub examples: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, index: u64, why: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(format!("op {index}: {why}"));
        }
    }
}

/// Examine `samples`, which must be in execution order when the mix
/// writes. A read fails if it returned `Err`, a row count other than
/// `min(k, qualifying rows)`, decreasing distances, an id twice, a
/// deleted id, or an id its predicate rejects; a write fails on `Err`.
pub fn check(samples: &[Sample], inputs: &Inputs) -> Verdict {
    let rows = inputs.scale.rows;
    let qualifying: Vec<usize> = (0..4u8)
        .map(|c| (0..rows as u64).filter(|&id| inputs.passes(c, id)).count())
        .collect();
    let mut verdict = Verdict::default();
    let mut dead: HashSet<i64> = HashSet::new();
    let mut live = rows;
    for s in samples {
        verdict.attempted += 1;
        let reply = match &s.reply {
            Ok(r) => r,
            Err(e) => {
                verdict.fail(s.index, format!("error: {e}"));
                continue;
            }
        };
        match s.kind {
            OpKind::Insert { .. } => live += 1,
            OpKind::Delete { id } => {
                dead.insert(id);
                live -= 1;
            }
            OpKind::Read { class, .. } => {
                let expected = K.min(class.map_or(live, |c| qualifying[c as usize]));
                if let Some(why) = read_defect(reply, expected, &dead, |id| {
                    class.is_none_or(|c| id >= 0 && inputs.passes(c, id as u64))
                }) {
                    verdict.fail(s.index, why);
                }
            }
        }
    }
    verdict
}

fn read_defect(
    reply: &Rows,
    expected: usize,
    dead: &HashSet<i64>,
    passes: impl Fn(i64) -> bool,
) -> Option<String> {
    if reply.len() != expected {
        return Some(format!("{} rows, expected {expected}", reply.len()));
    }
    // A NaN distance compares as neither, and so is out of order.
    let in_order =
        |a: f64, b: f64| matches!(a.partial_cmp(&b), Some(Ordering::Less | Ordering::Equal));
    if reply.windows(2).any(|w| !in_order(w[0].1, w[1].1)) {
        return Some("distances not in non-decreasing order".into());
    }
    let mut seen = HashSet::with_capacity(reply.len());
    for &(id, _) in reply {
        if !seen.insert(id) {
            return Some(format!("id {id} returned twice"));
        }
        if dead.contains(&id) {
            return Some(format!("deleted id {id} returned"));
        }
        if !passes(id) {
            return Some(format!("id {id} does not pass the predicate"));
        }
    }
    None
}

/// Recall of the workload's reads against the oracle.
pub struct Recall {
    /// Mean over the reads compared.
    pub mean: f64,
    /// Mean per selectivity class (filtered mix; 0 where none compared).
    pub per_class: [f64; 4],
    pub compared: usize,
    pub oracle_s: f64,
}

/// In the churn mix every `CHURN_STRIDE`-th read of the prefix gets an
/// oracle of its own, computed over the rows live at that moment.
const CHURN_STRIDE: usize = 4;

/// Recall@k over the reads among the first `prefix` samples (execution
/// order). A fixed prefix makes the number repeat exactly for a seed
/// however many operations the time-boxed phase went on to run.
pub fn recall(samples: &[Sample], prefix: usize, inputs: &Inputs, mix: Mix) -> Recall {
    let t0 = Instant::now();
    let prefix = &samples[..prefix.min(samples.len())];
    let mut hits_total = 0.0;
    let mut compared = 0usize;
    let mut class_sum = [0.0f64; 4];
    let mut class_n = [0usize; 4];
    let base = &inputs.data.base;
    let mut score = |truth: &[u64], reply: &Rows, class: Option<u8>| {
        let r = if truth.is_empty() {
            1.0
        } else {
            let got: HashSet<i64> = reply.iter().take(truth.len()).map(|&(id, _)| id).collect();
            truth
                .iter()
                .filter(|&&id| got.contains(&(id as i64)))
                .count() as f64
                / truth.len() as f64
        };
        hits_total += r;
        compared += 1;
        if let Some(c) = class {
            class_sum[c as usize] += r;
            class_n[c as usize] += 1;
        }
    };
    if mix == Mix::Churn {
        let mut live = vec![false; base.len()];
        live[..inputs.scale.rows].fill(true);
        let mut reads = 0usize;
        for s in prefix {
            let Ok(reply) = &s.reply else { continue };
            match s.kind {
                OpKind::Insert { id } => live[id as usize] = true,
                OpKind::Delete { id } => live[id as usize] = false,
                OpKind::Read { query, .. } => {
                    reads += 1;
                    if !reads.is_multiple_of(CHURN_STRIDE) {
                        continue;
                    }
                    let q = layers::vector_set(
                        base.dim(),
                        inputs.data.queries.row(query as usize).to_vec(),
                    );
                    let truth =
                        layers::brute_force_topk_filtered(base, &q, K, 1, &|id| live[id as usize]);
                    score(&truth[0], reply, None);
                }
            }
        }
    } else {
        // Static data: one oracle call per class over its distinct queries.
        for class in [None, Some(0u8), Some(1), Some(2), Some(3)] {
            let mut queries: Vec<u32> = prefix
                .iter()
                .filter_map(|s| match s.kind {
                    OpKind::Read { query, class: c } if c == class && s.reply.is_ok() => {
                        Some(query)
                    }
                    _ => None,
                })
                .collect();
            queries.sort_unstable();
            queries.dedup();
            if queries.is_empty() {
                continue;
            }
            let mut flat = Vec::with_capacity(queries.len() * base.dim());
            for &q in &queries {
                flat.extend_from_slice(inputs.data.queries.row(q as usize));
            }
            let rows = inputs.scale.rows as u64;
            let truth = layers::brute_force_topk_filtered(
                base,
                &layers::vector_set(base.dim(), flat),
                K,
                2,
                &|id| class.map_or(id < rows, |c| inputs.passes(c, id)),
            );
            for s in prefix {
                if let (OpKind::Read { query, class: c }, Ok(reply)) = (&s.kind, &s.reply) {
                    if *c == class {
                        let slot = queries.binary_search(query).expect("query collected above");
                        score(&truth[slot], reply, class);
                    }
                }
            }
        }
    }
    let mut per_class = [0.0; 4];
    for c in 0..4 {
        if class_n[c] > 0 {
            per_class[c] = class_sum[c] / class_n[c] as f64;
        }
    }
    Recall {
        mean: if compared == 0 {
            0.0
        } else {
            hits_total / compared as f64
        },
        per_class,
        compared,
        oracle_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defect(reply: &[(i64, f64)], expected: usize, dead: &[i64]) -> Option<String> {
        let dead: HashSet<i64> = dead.iter().copied().collect();
        read_defect(&reply.to_vec(), expected, &dead, |id| id != 99)
    }

    #[test]
    fn each_rule_trips_on_its_own() {
        let good = [(1, 0.1), (2, 0.1), (3, 0.4)];
        assert_eq!(defect(&good, 3, &[]), None);
        assert!(defect(&good, 10, &[])
            .unwrap()
            .contains("3 rows, expected 10"));
        assert!(defect(&[(1, 0.5), (2, 0.1)], 2, &[])
            .unwrap()
            .contains("order"));
        assert!(defect(&[(1, 0.1), (1, 0.2)], 2, &[])
            .unwrap()
            .contains("twice"));
        assert!(defect(&good, 3, &[2]).unwrap().contains("deleted id 2"));
        assert!(defect(&[(99, 0.1)], 1, &[]).unwrap().contains("predicate"));
        // NaN distances cannot be called ordered.
        assert!(defect(&[(1, f64::NAN), (2, 0.1)], 2, &[]).is_some());
        assert_eq!(defect(&[], 0, &[]), None);
    }
}

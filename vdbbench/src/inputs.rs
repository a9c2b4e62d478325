//! Everything the engines are fed: the dataset, the SQL text and the
//! order of operations, all made from `--seed`. The engines receive only
//! these generated inputs, never the seed.

use crate::layers::{self, Dataset, IvfSetup};

pub const DIM: usize = 128;
pub const K: usize = 10;
/// Frozen so that `recall_at_10` of the unfiltered workloads sits near
/// 0.95 at the commit that added the benchmark: low enough that a loss
/// of quality shows, where `nprobe = 20` would read 1.000.
pub const NPROBE: usize = 12;
/// Selectivities of the filtered workload's `price < t` classes.
pub const SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.1, 0.5];
/// Order in which the filtered workload visits the classes. One class is
/// visited twice so that the median latency lies inside a class's own
/// mass whichever way the four classes order by cost; with four equal
/// shares it would sit on the boundary between two classes and jump
/// from one to the other between runs.
pub const FILTER_CYCLE: [u8; 5] = [0, 1, 2, 2, 3];

/// Sizes of one run. `full()` is what every reported number uses.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub rows: usize,
    pub n_queries: usize,
    /// Gaussian mixture components of the generator. One per ten rows:
    /// with fewer, larger blobs k-means leaves bucket sizes that differ
    /// several-fold from seed to seed and latency follows them.
    pub mixture: usize,
    pub ivf: IvfSetup,
    /// Rows generated beyond `rows`, inserted by the churn workload.
    pub insert_pool: usize,
    /// Pool that keeps every page resident (512 MB of 8 KB frames at
    /// full size, as `Database::in_memory`).
    pub resident_pool_pages: usize,
    /// Pool of the larger-than-cache workload: a quarter of the heap and
    /// index pages (15 rows fit a page in either).
    pub cold_pool_pages: usize,
}

impl Scale {
    pub fn full() -> Scale {
        // 316 clusters: √n, the paper's rule.
        Scale::sized(100_000, 500, 316, 4_000, 65_536)
    }

    /// The `--smoke` size: drives every path in seconds, measures
    /// nothing. Few clusters, so that two probed buckets always hold k
    /// qualifying rows, as they do at full size.
    pub fn smoke() -> Scale {
        Scale::sized(2_000, 40, 8, 200, 1_024)
    }

    fn sized(
        rows: usize,
        n_queries: usize,
        clusters: usize,
        insert_pool: usize,
        resident_pool_pages: usize,
    ) -> Scale {
        Scale {
            rows,
            n_queries,
            mixture: rows / 10,
            ivf: IvfSetup {
                clusters,
                // 5 % of the rows: ≈ 16 training points per centroid, the
                // least at which bucket sizes stay alike across seeds.
                sample_ratio_thousandths: 50,
            },
            insert_pool,
            resident_pool_pages,
            cold_pool_pages: (2 * rows / 15 / 4).max(64),
        }
    }
}

/// What a workload asks of the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `ORDER BY vec <-> q LIMIT k`.
    TopK,
    /// The same with `WHERE price < t`, `t` cycling over the classes.
    Filtered,
    /// 80 % top-k SELECT, 10 % single-row INSERT, 10 % DELETE by id.
    Churn,
}

#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    Read {
        query: u32,
        /// Selectivity class of a filtered read.
        class: Option<u8>,
    },
    Insert {
        id: i64,
    },
    Delete {
        id: i64,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Position in the workload's global sequence; the request id of
    /// its spans.
    pub index: u64,
    pub kind: OpKind,
    pub sql: String,
}

pub struct Inputs {
    pub scale: Scale,
    pub data: Dataset,
    /// `price < thresholds[class]` passes `SELECTIVITIES[class]` of the rows.
    pub thresholds: [f64; 4],
    pub generate_s: f64,
    query_text: Vec<String>,
    pool_text: Vec<String>,
    query_order: Vec<u32>,
    victim_order: Vec<u32>,
    seed: u64,
}

impl Inputs {
    pub fn generate(scale: Scale, seed: u64) -> Inputs {
        let t0 = std::time::Instant::now();
        let data = layers::generate_dataset(
            DIM,
            scale.rows,
            scale.insert_pool,
            scale.n_queries,
            scale.mixture,
            seed,
        );
        let generate_s = t0.elapsed().as_secs_f64();
        let loaded_attrs = &data.attrs[..scale.rows];
        let thresholds = SELECTIVITIES.map(|s| layers::threshold_for_selectivity(loaded_attrs, s));
        let mut rng = Rng::new(seed ^ 0x0BDE_5EED);
        Inputs {
            query_text: (0..scale.n_queries)
                .map(|q| vector_text(data.queries.row(q)))
                .collect(),
            pool_text: (0..scale.insert_pool)
                .map(|j| vector_text(data.base.row(scale.rows + j)))
                .collect(),
            query_order: rng.permutation(scale.n_queries),
            victim_order: rng.permutation(scale.rows),
            thresholds,
            scale,
            data,
            generate_s,
            seed,
        }
    }

    /// Rows of the loaded table passing class `class`'s predicate.
    pub fn passes(&self, class: u8, id: u64) -> bool {
        (id as usize) < self.scale.rows
            && self.data.attrs[id as usize] < self.thresholds[class as usize]
    }

    pub fn select_sql(&self, query: u32, class: Option<u8>) -> String {
        let filter = match class {
            Some(c) => format!(" WHERE price < {}", self.thresholds[c as usize]),
            None => String::new(),
        };
        format!(
            "SELECT id, distance FROM t{filter} ORDER BY vec <-> '{}:{NPROBE}'::PASE LIMIT {K}",
            self.query_text[query as usize]
        )
    }

    /// The vector an `Insert { id }` op carries.
    pub fn inserted_vector(&self, id: i64) -> &[f32] {
        self.data.base.row(id as usize)
    }

    /// The op stream of client `client` of `clients`: the ops at global
    /// positions `client, client + clients, ...`.
    pub fn ops(&self, mix: Mix, client: usize, clients: usize) -> OpStream<'_> {
        // The churn sequence carries state from op to op; it cannot be dealt out.
        assert!(
            mix != Mix::Churn || clients == 1,
            "the churn mix has one client"
        );
        OpStream {
            inputs: self,
            mix,
            next_index: client as u64,
            stride: clients as u64,
            rng: Rng::new(self.seed ^ 0xC4_0A11),
            reads: 0,
            inserts: 0,
            deletes: 0,
        }
    }
}

/// An endless, deterministic sequence of operations.
pub struct OpStream<'a> {
    inputs: &'a Inputs,
    mix: Mix,
    next_index: u64,
    stride: u64,
    rng: Rng,
    reads: usize,
    inserts: usize,
    deletes: usize,
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let inp = self.inputs;
        let index = self.next_index;
        self.next_index += self.stride;
        let nq = inp.scale.n_queries as u64;
        let kind = match self.mix {
            Mix::TopK => OpKind::Read {
                query: inp.query_order[(index % nq) as usize],
                class: None,
            },
            Mix::Filtered => {
                // Each query meets every class before the next query starts.
                let cycle = FILTER_CYCLE.len() as u64;
                OpKind::Read {
                    query: inp.query_order[((index / cycle) % nq) as usize],
                    class: Some(FILTER_CYCLE[(index % cycle) as usize]),
                }
            }
            Mix::Churn => match self.rng.next_u64() % 10 {
                // Ids past the loaded rows are the insert pool's; when it
                // or the victim list runs out the op becomes a read, so
                // the stream never yields a statement that must fail.
                0 if self.inserts < inp.scale.insert_pool => {
                    self.inserts += 1;
                    OpKind::Insert {
                        id: (inp.scale.rows + self.inserts - 1) as i64,
                    }
                }
                1 if self.deletes < inp.victim_order.len() => {
                    self.deletes += 1;
                    OpKind::Delete {
                        id: i64::from(inp.victim_order[self.deletes - 1]),
                    }
                }
                _ => {
                    self.reads += 1;
                    OpKind::Read {
                        query: inp.query_order[(self.reads - 1) % nq as usize],
                        class: None,
                    }
                }
            },
        };
        let sql = match &kind {
            OpKind::Read { query, class } => inp.select_sql(*query, *class),
            OpKind::Insert { id } => format!(
                "INSERT INTO t VALUES ({id}, {}, '{{{}}}')",
                inp.data.attrs[*id as usize],
                inp.pool_text[*id as usize - inp.scale.rows]
            ),
            OpKind::Delete { id } => format!("DELETE FROM t WHERE id = {id}"),
        };
        Some(Op { index, kind, sql })
    }
}

fn vector_text(v: &[f32]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    parts.join(",")
}

/// splitmix64: the benchmark's own generator, so that op order does not
/// depend on which `rand` the engine crates were built against.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates over `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut out: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Inputs {
        Inputs::generate(Scale::sized(300, 12, 4, 40, 256), seed)
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let (a, b, c) = (tiny(5), tiny(5), tiny(6));
        for mix in [Mix::TopK, Mix::Filtered, Mix::Churn] {
            let ops = |inp: &Inputs| -> Vec<Op> { inp.ops(mix, 0, 1).take(300).collect() };
            assert_eq!(ops(&a), ops(&b), "{mix:?}");
            assert_ne!(ops(&a), ops(&c), "{mix:?}");
        }
    }

    #[test]
    fn clients_split_one_sequence() {
        let inp = tiny(9);
        let whole: Vec<Op> = inp.ops(Mix::TopK, 0, 1).take(20).collect();
        let even: Vec<Op> = inp.ops(Mix::TopK, 0, 2).take(10).collect();
        let odd: Vec<Op> = inp.ops(Mix::TopK, 1, 2).take(10).collect();
        for i in 0..10 {
            assert_eq!(even[i], whole[2 * i]);
            assert_eq!(odd[i], whole[2 * i + 1]);
        }
    }

    #[test]
    fn churn_mix_and_ids_are_as_stated() {
        let inp = tiny(3);
        let ops: Vec<Op> = inp.ops(Mix::Churn, 0, 1).take(2000).collect();
        let inserted: Vec<i64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Insert { id } => Some(id),
                _ => None,
            })
            .collect();
        let deleted: Vec<i64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Delete { id } => Some(id),
                _ => None,
            })
            .collect();
        // The pool bounds the inserts; ids continue the loaded range.
        assert_eq!(inserted, (300..340).collect::<Vec<i64>>());
        // About a tenth of the ops delete, each a distinct loaded row.
        assert!((150..250).contains(&deleted.len()), "{}", deleted.len());
        let mut distinct = deleted.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), deleted.len());
        assert!(deleted.iter().all(|&id| (0..300).contains(&id)));
        assert!(
            ops[0].sql.starts_with("SELECT")
                || ops[0].sql.starts_with("INSERT")
                || ops[0].sql.starts_with("DELETE")
        );
    }

    #[test]
    fn filtered_cycle_covers_every_class_per_query() {
        let inp = tiny(4);
        let ops: Vec<Op> = inp.ops(Mix::Filtered, 0, 1).take(10).collect();
        let classes: Vec<u8> = ops
            .iter()
            .map(|o| match o.kind {
                OpKind::Read { class: Some(c), .. } => c,
                _ => panic!("filtered stream yields filtered reads"),
            })
            .collect();
        assert_eq!(classes, [0, 1, 2, 2, 3, 0, 1, 2, 2, 3]);
        assert!(ops[0].sql.contains("WHERE price < "));
    }

    #[test]
    fn permutation_is_one() {
        let mut p = Rng::new(1).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }
}

//! Seeded workload generation.

use fundb_query::{parse, translate, Transaction};
use fundb_relational::{Database, Repr, Tuple};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters for a generated workload (defaults reproduce the paper's
/// Section 4 setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of transactions (paper: 50).
    pub transactions: usize,
    /// Number of relations (paper: 1, 3 or 5).
    pub relations: usize,
    /// Total tuples across all relations initially (paper: 50).
    pub initial_tuples: usize,
    /// How many of the transactions are single-tuple inserts; the rest are
    /// single-tuple finds.
    pub inserts: usize,
    /// Relation representation (paper: linked lists).
    pub repr: Repr,
    /// RNG seed; equal specs generate equal workloads.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            transactions: 50,
            relations: 1,
            initial_tuples: 50,
            inserts: 0,
            repr: Repr::List,
            seed: 0x5eed,
        }
    }
}

impl WorkloadSpec {
    /// The paper's configuration for a (relations, insert-count) cell.
    pub fn paper(relations: usize, inserts: usize) -> Self {
        WorkloadSpec {
            relations,
            inserts,
            ..WorkloadSpec::default()
        }
    }

    /// Generates the initial database and transaction batch.
    ///
    /// # Panics
    ///
    /// Panics if `relations` is zero or `inserts > transactions`.
    pub fn generate(&self) -> Workload {
        assert!(self.relations > 0, "need at least one relation");
        assert!(
            self.inserts <= self.transactions,
            "more inserts than transactions"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Initial database: tuples dealt round-robin across relations, keys
        // even so odd keys are fresh insert targets.
        let mut db = Database::empty();
        let names: Vec<String> = (0..self.relations).map(|r| format!("R{r}")).collect();
        for n in &names {
            db = db
                .create_relation(n.as_str(), self.repr)
                .expect("generated names are unique");
        }
        let mut per_relation = vec![0usize; self.relations];
        for i in 0..self.initial_tuples {
            let r = i % self.relations;
            let key = (per_relation[r] * 2) as i64;
            per_relation[r] += 1;
            let (d2, _) = db
                .insert(&names[r].as_str().into(), Tuple::of_key(key))
                .expect("relation exists");
            db = d2;
        }

        // Insert positions: spread deterministically via a seeded shuffle.
        let mut is_insert = vec![false; self.transactions];
        let mut positions: Vec<usize> = (0..self.transactions).collect();
        positions.shuffle(&mut rng);
        for &p in positions.iter().take(self.inserts) {
            is_insert[p] = true;
        }

        let mut queries = Vec::with_capacity(self.transactions);
        for insert in is_insert {
            let r = rng.gen_range(0..self.relations);
            let name = &names[r];
            if insert {
                // Fresh odd key somewhere inside the relation's key range.
                let span = (per_relation[r].max(1) * 2) as i64;
                let key = rng.gen_range(0..span) | 1;
                queries.push(format!("insert {key} into {name}"));
            } else {
                // Find an (almost always existing) even key.
                let span = (per_relation[r].max(1) * 2) as i64;
                let key = rng.gen_range(0..span) & !1;
                queries.push(format!("find {key} in {name}"));
            }
        }
        let txns = queries
            .iter()
            .map(|q| translate(parse(q).expect("generated queries parse")))
            .collect();
        Workload {
            spec: *self,
            initial: db,
            queries,
            txns,
        }
    }
}

/// A generated workload: initial database plus the transaction batch (both
/// symbolic and translated forms).
#[derive(Debug, Clone)]
pub struct Workload {
    /// The generating spec.
    pub spec: WorkloadSpec,
    /// The initial database.
    pub initial: Database,
    /// The symbolic queries, in merged (serialization) order.
    pub queries: Vec<String>,
    /// The translated transactions, aligned with `queries`.
    pub txns: Vec<Transaction>,
}

impl Workload {
    /// Actual insert fraction of the batch.
    pub fn insert_fraction(&self) -> f64 {
        if self.txns.is_empty() {
            0.0
        } else {
            self.spec.inserts as f64 / self.txns.len() as f64
        }
    }

    /// Splits the batch round-robin across `clients` submitters, preserving
    /// per-client relative order — the multi-terminal view of the same
    /// workload, ready for the merge-based serializer.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn split_clients(&self, clients: usize) -> Vec<(fundb_core::ClientId, Vec<Transaction>)> {
        assert!(clients > 0, "need at least one client");
        let mut out: Vec<(fundb_core::ClientId, Vec<Transaction>)> = (0..clients)
            .map(|c| (fundb_core::ClientId(c as u32), Vec::new()))
            .collect();
        for (i, tx) in self.txns.iter().enumerate() {
            out[i % clients].1.push(tx.clone());
        }
        out
    }
}

/// One phase of a [`PhasedSpec`] workload: a run of ops at a fixed write
/// percentage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Transactions per client in this phase.
    pub ops_per_client: usize,
    /// Percentage (0–100) of this phase's transactions that are writes.
    pub write_pct: u32,
}

/// Parameters for a *phased* multi-client workload over a fixed working set
/// (writes alternate insert/delete, so relation sizes stay flat): each
/// client's stream moves through several [`Phase`]s with different
/// read/write mixes.
///
/// This is the adaptive-batching torture test: an engine that picks a
/// batching regime from observed traffic (see `DESIGN.md` §9.5) must stay
/// serializable — and fast — while the traffic shape shifts under it. The
/// canonical [`PhasedSpec::regime_shifts`] shape walks read-dominated →
/// write-burst → evenly mixed, crossing every regime boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasedSpec {
    /// Concurrent submitting clients.
    pub clients: usize,
    /// Number of relations, named `R0..`.
    pub relations: usize,
    /// Keys per relation; also the initial tuple count of each.
    pub key_space: u64,
    /// The phases, applied in order by every client.
    pub phases: Vec<Phase>,
    /// RNG seed; equal specs generate equal workloads.
    pub seed: u64,
}

impl PhasedSpec {
    /// The canonical regime-boundary walk: a read-dominated phase (5%
    /// writes), a write burst (95%), then an even mix (50%), each of
    /// `ops_per_phase` transactions per client.
    pub fn regime_shifts(clients: usize, ops_per_phase: usize, seed: u64) -> Self {
        PhasedSpec {
            clients,
            relations: 2,
            key_space: 64,
            phases: vec![
                Phase {
                    ops_per_client: ops_per_phase,
                    write_pct: 5,
                },
                Phase {
                    ops_per_client: ops_per_phase,
                    write_pct: 95,
                },
                Phase {
                    ops_per_client: ops_per_phase,
                    write_pct: 50,
                },
            ],
            seed,
        }
    }

    /// The pre-seeded database: `relations` relations of representation
    /// `repr` with keys `0..key_space` each.
    ///
    /// # Panics
    ///
    /// Panics if `relations` is zero.
    pub fn initial(&self, repr: Repr) -> Database {
        assert!(self.relations > 0, "need at least one relation");
        let mut db = Database::empty();
        for r in 0..self.relations {
            db = db
                .create_relation(format!("R{r}").as_str(), repr)
                .expect("generated names are unique");
        }
        for r in 0..self.relations {
            let name = format!("R{r}").as_str().into();
            for k in 0..self.key_space {
                let (d2, _) = db
                    .insert(&name, Tuple::of_key(k as i64))
                    .expect("relation exists");
                db = d2;
            }
        }
        db
    }

    /// One client's deterministic transaction stream, all phases
    /// concatenated in order.
    pub fn client_ops(&self, client: usize) -> Vec<Transaction> {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut out = Vec::with_capacity(self.phases.iter().map(|p| p.ops_per_client).sum());
        for phase in &self.phases {
            for i in 0..phase.ops_per_client {
                let rel = format!("R{}", rng.gen_range(0..self.relations));
                let key = rng.gen_range(0..self.key_space);
                let q = if rng.gen_range(0u32..100) < phase.write_pct {
                    if i % 2 == 0 {
                        format!("insert {key} into {rel}")
                    } else {
                        format!("delete {key} from {rel}")
                    }
                } else if rng.gen_range(0..5) == 0 {
                    format!("count {rel}")
                } else {
                    format!("find {key} in {rel}")
                };
                out.push(translate(parse(&q).expect("generated queries parse")));
            }
        }
        out
    }

    /// Every client's stream, indexed by client.
    pub fn all_clients(&self) -> Vec<Vec<Transaction>> {
        (0..self.clients).map(|c| self.client_ops(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let w = WorkloadSpec::default().generate();
        assert_eq!(w.txns.len(), 50);
        assert_eq!(w.initial.relation_count(), 1);
        assert_eq!(w.initial.tuple_count(), 50);
        assert!(w.queries.iter().all(|q| q.starts_with("find")));
    }

    #[test]
    fn tuples_distributed_across_relations() {
        let w = WorkloadSpec::paper(3, 0).generate();
        assert_eq!(w.initial.relation_count(), 3);
        assert_eq!(w.initial.tuple_count(), 50);
        for n in ["R0", "R1", "R2"] {
            let rel = w.initial.relation(&n.into()).unwrap();
            assert!(rel.len() >= 16, "{n} has {}", rel.len());
        }
    }

    #[test]
    fn insert_count_is_exact() {
        for inserts in [0, 2, 7, 19, 50] {
            let w = WorkloadSpec::paper(5, inserts).generate();
            let got = w.queries.iter().filter(|q| q.starts_with("insert")).count();
            assert_eq!(got, inserts);
            assert!((w.insert_fraction() - inserts as f64 / 50.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WorkloadSpec::paper(3, 7).generate();
        let b = WorkloadSpec::paper(3, 7).generate();
        assert_eq!(a.queries, b.queries);
        let c = WorkloadSpec {
            seed: 99,
            ..WorkloadSpec::paper(3, 7)
        }
        .generate();
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn generated_batch_executes_cleanly() {
        let w = WorkloadSpec::paper(3, 12).generate();
        let mut db = w.initial.clone();
        for tx in &w.txns {
            let (resp, d2) = tx.apply(&db);
            assert!(!resp.is_error(), "{resp}");
            db = d2;
        }
        assert_eq!(db.tuple_count(), 50 + 12);
    }

    #[test]
    fn split_clients_partitions_in_order() {
        let w = WorkloadSpec::paper(1, 0).generate();
        let clients = w.split_clients(3);
        assert_eq!(clients.len(), 3);
        let total: usize = clients.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total, 50);
        // Round-robin: client 0 holds transactions 0, 3, 6, ...
        assert_eq!(
            clients[0].1[1].query().to_string(),
            w.txns[3].query().to_string()
        );
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn zero_relations_rejected() {
        let _ = WorkloadSpec {
            relations: 0,
            ..WorkloadSpec::default()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "more inserts than transactions")]
    fn too_many_inserts_rejected() {
        let _ = WorkloadSpec {
            inserts: 99,
            ..WorkloadSpec::default()
        }
        .generate();
    }

    #[test]
    fn phased_streams_are_deterministic_and_shift_mix() {
        let spec = PhasedSpec::regime_shifts(2, 40, 9);
        let a: Vec<String> = spec
            .client_ops(0)
            .iter()
            .map(|t| t.query().to_string())
            .collect();
        let b: Vec<String> = spec
            .client_ops(0)
            .iter()
            .map(|t| t.query().to_string())
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
        let writes = |slice: &[String]| {
            slice
                .iter()
                .filter(|q| q.starts_with("insert") || q.starts_with("delete"))
                .count()
        };
        // The mix actually shifts phase to phase: few writes, then mostly
        // writes, then roughly half.
        assert!(writes(&a[..40]) < 10, "read phase: {}", writes(&a[..40]));
        assert!(
            writes(&a[40..80]) > 30,
            "burst phase: {}",
            writes(&a[40..80])
        );
        let mixed = writes(&a[80..]);
        assert!((10..=30).contains(&mixed), "mixed phase: {mixed}");
    }

    #[test]
    fn phased_streams_execute_cleanly() {
        let spec = PhasedSpec::regime_shifts(2, 30, 3);
        let mut db = spec.initial(Repr::List);
        for ops in spec.all_clients() {
            for tx in ops {
                let (resp, d2) = tx.apply(&db);
                assert!(!resp.is_error(), "{resp}");
                db = d2;
            }
        }
    }
}

//! The layer probe pass of the traced run.
//!
//! After the windows, one thread calls each layer's public entry points on
//! the same generated statement stream and the same set-up state, and
//! times them. These figures cost each layer in isolation; the spans of
//! the windows say how much of a request they explain.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use fundb_durable::{encode_records, set_modeled_flush_latency, Wal, WalRecord};
use fundb_lenient::{Lenient, WorkerPool};
use fundb_net::{plan_route, Message, SharedMedium, SiteId};
use fundb_query::{
    choose_access_path, choose_join_strategy, parse, translate, FieldRef, Query, Transaction,
};
use fundb_relational::{
    batch_transitions, derive_delta, BatchOp, Database, Relation, RelationName, Value,
};

use crate::gen::{check, Class, Op, Shared, Spec, Terminal, Workload};
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::workloads::{loaded_relation, tuple_of};

/// Rows of the relation the `.large` probes run on: what ISSUE 12 proposed
/// for the OLTP relations, far beyond the last-level cache. The workloads'
/// own relations are cache-resident (README.md, "Sizing"), so these figures
/// are the only ones that see the memory-bound regime.
const LARGE_ROWS: i64 = 150_000;

pub struct ProbeInput<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    /// The state right after set-up.
    pub db: &'a Database,
    /// Scratch space for the WAL probe (inside the run's data directory).
    pub scratch: &'a Path,
    pub flush_pad: Duration,
    /// Statements to generate for the pass. The probes that execute
    /// statements use the first fifth: a write through `Transaction::apply`
    /// walks the whole tree, so they cost milliseconds each on the larger
    /// relations.
    pub statements: usize,
}

#[derive(Debug, Default)]
pub struct ProbeOutput {
    pub metrics: Vec<(&'static str, f64)>,
    /// Replies of the sequential fold checked against the model.
    pub checks: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

fn per_item_ns(elapsed: Duration, items: usize) -> f64 {
    if items == 0 {
        0.0
    } else {
        elapsed.as_nanos() as f64 / items as f64
    }
}

fn batch_op(query: &Query) -> Option<(&RelationName, BatchOp)> {
    match query {
        Query::Insert { relation, tuple } => Some((relation, BatchOp::Insert(tuple.clone()))),
        Query::Replace { relation, tuple } => Some((relation, BatchOp::Replace(tuple.clone()))),
        Query::Delete { relation, key } => Some((relation, BatchOp::Delete(key.clone()))),
        _ => None,
    }
}

fn position(field: &FieldRef) -> usize {
    match field {
        FieldRef::Index(i) => *i,
        FieldRef::Name(n) => panic!("benchmark statements use positional fields, got `{n}`"),
    }
}

/// Ops of `relation`, in stream order.
fn ops_on(queries: &[Query], relation: &str) -> Vec<BatchOp> {
    queries
        .iter()
        .filter_map(batch_op)
        .filter(|(r, _)| r.as_str() == relation)
        .map(|(_, op)| op)
        .collect()
}

/// Bulk load, point reads, single-key writes and batched writes on the
/// workload's first relation grown to `LARGE_ROWS` rows (no index, no view).
fn large_regime(input: &ProbeInput<'_>, put: &mut impl FnMut(&'static str, f64)) {
    let spec = Spec {
        rows: LARGE_ROWS,
        ..*input.spec
    };
    let t = Instant::now();
    let big = loaded_relation(&spec, input.seed, 0);
    put(
        "relational.bulk_load_ns_per_row.large",
        per_item_ns(t.elapsed(), big.len()),
    );
    let mut rng = SplitMix64::stream(input.seed, u64::MAX);
    let mut random_keys = |n: usize| -> Vec<i64> {
        (0..n)
            .map(|_| rng.below(LARGE_ROWS as u64) as i64)
            .collect()
    };

    let keys: Vec<Value> = random_keys(20_000).into_iter().map(Value::Int).collect();
    let t = Instant::now();
    for key in &keys {
        black_box(big.find(key));
    }
    put(
        "persist.find_ns.large",
        per_item_ns(t.elapsed(), keys.len()),
    );

    let replace = |key: i64| BatchOp::Replace(tuple_of(key, &[key, 0, 0], spec.arity()));
    let ops: Vec<BatchOp> = random_keys(2_048).into_iter().map(replace).collect();
    let (mut rel, mut spent) = (big.clone(), Duration::ZERO);
    for run in ops.chunks(64) {
        let t = Instant::now();
        let (next, _, _) = rel.apply_batch(run);
        spent += t.elapsed();
        rel = next;
    }
    put(
        "relational.batch_ns_per_op.large",
        per_item_ns(spent, ops.len()),
    );

    // One write at a time, as a bypass write, `Transaction::apply` and log
    // replay do it; each against the loaded state.
    let db = Database::empty()
        .with_relation_value("Big", big, None)
        .expect("fresh name");
    let writes: Vec<Transaction> = random_keys(200)
        .into_iter()
        .map(|key| {
            translate(Query::Replace {
                relation: "Big".into(),
                tuple: tuple_of(key, &[key, 0, 0], spec.arity()),
            })
        })
        .collect();
    let t = Instant::now();
    for tx in &writes {
        black_box(tx.apply(&db));
    }
    put(
        "relational.apply_write_ns.large",
        per_item_ns(t.elapsed(), writes.len()),
    );
}

pub fn run(input: &ProbeInput<'_>) -> ProbeOutput {
    let mut out = ProbeOutput::default();
    let spec = input.spec;
    let mut put = |name: &'static str, value: f64| out.metrics.push((name, value));

    // The stream: the run's own terminals from their first statement on,
    // taken round-robin, with a private copy of the shared counters.
    let shared = Shared::new(spec, input.seed);
    let mut terminals: Vec<Terminal> = (0..spec.terminals())
        .map(|id| Terminal::new(*spec, input.seed, id))
        .collect();
    let mut op = Op::empty();
    let stream: Vec<Op> = (0..input.statements)
        .map(|i| {
            terminals[i % spec.terminals()].next(&shared, &mut op);
            op.clone()
        })
        .collect();
    let texts: Vec<&str> = stream
        .iter()
        .flat_map(|s| [s.text.as_str(), s.text2.as_str()])
        .filter(|t| !t.is_empty())
        .collect();

    // query: parse, translate, plan.
    let t = Instant::now();
    let queries: Vec<Query> = texts
        .iter()
        .map(|q| parse(q).expect("generated statement parses"))
        .collect();
    put("query.parse_ns", per_item_ns(t.elapsed(), queries.len()));
    let again = queries.clone();
    let t = Instant::now();
    let transactions: Vec<Transaction> = again.into_iter().map(translate).collect();
    put(
        "query.translate_ns",
        per_item_ns(t.elapsed(), transactions.len()),
    );
    let rel_of = |name: &RelationName| {
        input
            .db
            .relation(name)
            .expect("statement names a loaded relation")
    };
    let mut planned = 0;
    let t = Instant::now();
    for q in &queries {
        match q {
            Query::Select {
                relation,
                predicate,
                ..
            } => {
                black_box(choose_access_path(rel_of(relation), predicate.as_ref()));
                planned += 1;
            }
            Query::Join { left, right, on } => {
                let on = on.as_ref().map(|(l, r)| (position(l), position(r)));
                black_box(choose_join_strategy(rel_of(left), rel_of(right), on));
                planned += 1;
            }
            _ => {}
        }
    }
    put("query.plan_ns", per_item_ns(t.elapsed(), planned));

    // relational: one transaction at a time against the set-up state, by
    // class; heavy reads (join, select) are capped so the pass stays short.
    let executed = input.statements / 5;
    let statements_in = |n: usize| {
        stream[..n]
            .iter()
            .map(|s| if s.text2.is_empty() { 1 } else { 2 })
            .sum::<usize>()
    };
    let transactions = &transactions[..statements_in(executed)];
    let stream = &stream[..executed];
    let mut spent = [Duration::ZERO; 2];
    let mut applied = [0usize; 2];
    for tx in transactions {
        let read = usize::from(tx.is_read_only());
        if read == 1 && applied[1] >= 2_000 {
            continue;
        }
        let t = Instant::now();
        black_box(tx.apply(input.db));
        spent[read] += t.elapsed();
        applied[read] += 1;
    }
    put(
        "relational.apply_write_ns",
        per_item_ns(spent[0], applied[0]),
    );
    put(
        "relational.apply_read_ns",
        per_item_ns(spent[1], applied[1]),
    );

    // core: the executable specification — a sequential fold of the whole
    // stream, every reply checked against the model. The single-thread
    // floor under the engines.
    let mut db = input.db.clone();
    let mut replies = Vec::with_capacity(transactions.len());
    let t = Instant::now();
    for tx in transactions {
        let (reply, next) = tx.apply(&db);
        db = next;
        replies.push(reply);
    }
    put(
        "core.spec_ops_per_s",
        stream.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let mut replies = replies.iter();
    for s in stream {
        let reply = replies.next().expect("one reply per statement");
        out.checks += 1;
        let verdict = if s.class == Class::Txn {
            // The fold applies a transaction's two writes one by one.
            let second = replies.next().expect("one reply per statement");
            if reply.is_error() || second.is_error() {
                Err(format!("{reply} / {second}"))
            } else {
                Ok(())
            }
        } else {
            check(&s.expect, reply, &shared, spec.arity())
        };
        if let Err(reason) = verdict {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures
                    .push(format!("specification fold: `{}`: {reason}", s.text));
            }
        }
    }

    // relational + persist: the batch kernel, index and view maintenance,
    // scans and point operations on the first modelled relation.
    let main_name = spec.relation_name(0);
    let main = rel_of(&main_name.into());
    let ops = ops_on(&queries, main_name);
    let (mut rel, mut copied, mut spent) = (main.clone(), 0u64, Duration::ZERO);
    for run in ops.chunks(64) {
        let t = Instant::now();
        let (next, _, report) = rel.apply_batch(run);
        spent += t.elapsed();
        copied += report.copied;
        rel = next;
    }
    put("relational.batch_ns_per_op", per_item_ns(spent, ops.len()));
    put(
        "persist.nodes_copied_per_batched_write",
        copied as f64 / ops.len().max(1) as f64,
    );

    let (mut rel, mut copied) = (main.clone(), 0u64);
    for op in &ops {
        match op {
            BatchOp::Insert(t) => {
                let (next, report) = rel.insert(t.clone());
                (rel, copied) = (next, copied + report.copied);
            }
            BatchOp::Delete(k) => {
                let (next, _, report) = rel.delete(k);
                (rel, copied) = (next, copied + report.copied);
            }
            BatchOp::Replace(t) => {
                let (gone, _, r1) = rel.delete(t.key());
                let (next, r2) = gone.insert(t.clone());
                (rel, copied) = (next, copied + r1.copied + r2.copied);
            }
        }
    }
    put(
        "persist.nodes_copied_per_write",
        copied as f64 / ops.len().max(1) as f64,
    );

    // Index maintenance on the relation that carries an index.
    let indexed_name = match spec.workload {
        Workload::IngestDurable => Some("R1"),
        Workload::AnalyticStanding => Some("Fact"),
        _ => None,
    };
    let (mut index_ns, mut view_ns) = (0.0, 0.0);
    if let Some(name) = indexed_name {
        let indexed: &Relation = rel_of(&name.into());
        let ops = ops_on(&queries, name);
        let (mut transitions, mut index_spent, mut view_spent) =
            (0usize, Duration::ZERO, Duration::ZERO);
        let views = input.db.views();
        // Against the set-up state each time: transitions must describe
        // the relation they are derived from.
        for run in ops.chunks(64) {
            let runs = batch_transitions(indexed, run);
            transitions += runs.len();
            let t = Instant::now();
            black_box(indexed.indexes().apply_transitions(&runs));
            index_spent += t.elapsed();
            for (view_name, def) in &views {
                let base: RelationName = name.into();
                if !def.depends_on(&base) {
                    continue;
                }
                let other = def.bases().into_iter().find(|b| **b != base).map(&rel_of);
                let t = Instant::now();
                black_box(derive_delta(def, &base, rel_of(view_name), &runs, other));
                view_spent += t.elapsed();
            }
        }
        index_ns = per_item_ns(index_spent, transitions);
        view_ns = per_item_ns(view_spent, transitions);
    }
    put("relational.index_ns_per_transition", index_ns);
    put("relational.view_ns_per_transition", view_ns);

    let t = Instant::now();
    let rows = black_box(main.scan_iter().count());
    put("relational.scan_ns_per_row", per_item_ns(t.elapsed(), rows));

    let keys: Vec<Value> = queries
        .iter()
        .filter_map(|q| match q {
            Query::Find { key, .. } | Query::Delete { key, .. } => Some(key.clone()),
            Query::Insert { tuple, .. } | Query::Replace { tuple, .. } => Some(tuple.key().clone()),
            _ => None,
        })
        .collect();
    let t = Instant::now();
    for key in &keys {
        black_box(main.find(key));
    }
    put("persist.find_ns", per_item_ns(t.elapsed(), keys.len()));

    large_regime(input, &mut put);

    // lenient: pool hand-off and cell wake-up, each on an idle pair of
    // threads — the floor under every asynchronous reply.
    let pool = WorkerPool::new(1);
    let handoffs: Vec<f64> = (0..500)
        .map(|_| {
            pool.wait_idle();
            let started: Lenient<Instant> = Lenient::new();
            let cell = started.clone();
            let t = Instant::now();
            pool.spawn(move || drop(cell.fill(Instant::now())));
            started.wait().duration_since(t).as_secs_f64() * 1e6
        })
        .collect();
    put("lenient.pool_handoff_us", median(&handoffs));
    let wakes: Vec<f64> = (0..200)
        .map(|_| {
            let cell: Lenient<()> = Lenient::new();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    cell.wait();
                    Instant::now()
                });
                // Long enough for the waiter to be parked in `wait`.
                std::thread::sleep(Duration::from_micros(300));
                let t = Instant::now();
                cell.fill(()).expect("filled once");
                let woke = waiter.join().expect("waiter thread");
                woke.duration_since(t).as_secs_f64() * 1e6
            })
        })
        .collect();
    put("lenient.cell_wake_us", median(&wakes));

    // durable: record encoding and group commits of 1, 16 and 256 records
    // on a scratch log, under the same flush model as the run.
    let mut wal = [0.0; 5];
    if spec.workload.is_durable() {
        let records: Vec<WalRecord> = queries
            .iter()
            .filter(|q| batch_op(q).is_some())
            .enumerate()
            .map(|(seq, q)| WalRecord::Write {
                relation: q.writes()[0].as_str().to_string(),
                seq: seq as u64,
                query: q.to_string(),
            })
            .collect();
        assert!(
            records.len() >= 256,
            "the stream holds too few writes for the WAL probe"
        );
        let t = Instant::now();
        let bytes = black_box(encode_records(&records)).len();
        wal[0] = per_item_ns(t.elapsed(), records.len());
        wal[1] = bytes as f64 / records.len() as f64;
        set_modeled_flush_latency(Some(input.flush_pad));
        let mut log =
            Wal::open(input.scratch, Wal::DEFAULT_SEGMENT_BYTES).expect("open the scratch log");
        for (slot, (batch, repeats)) in [(1usize, 200), (16, 100), (256, 30)]
            .into_iter()
            .enumerate()
        {
            let times: Vec<f64> = (0..repeats)
                .map(|_| {
                    let t = Instant::now();
                    log.append_batch(&records[..batch])
                        .expect("append to the scratch log");
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            wal[2 + slot] = median(&times);
        }
    }
    put("durable.wal_encode_ns_per_record", wal[0]);
    put("durable.wal_bytes_per_op", wal[1]);
    put("durable.wal_append_us.b1", wal[2]);
    put("durable.wal_append_us.b16", wal[3]);
    put("durable.wal_append_us.b256", wal[4]);

    // net: one hop over an idle medium, and the routing decision.
    let (mut hop_us, mut route_ns) = (0.0, 0.0);
    if spec.workload == Workload::OltpCluster {
        let medium: SharedMedium<u64> = SharedMedium::new();
        let mut inbox = medium.choose(SiteId(1));
        let hops: Vec<f64> = (0..2_000u64)
            .map(|i| {
                let t = Instant::now();
                medium.send(Message::new(SiteId(0), SiteId(1), i, i));
                let (_, rest) = inbox.uncons().expect("the medium is open");
                let us = t.elapsed().as_secs_f64() * 1e6;
                inbox = rest;
                us
            })
            .collect();
        medium.close();
        hop_us = median(&hops);
        let t = Instant::now();
        for q in &queries {
            black_box(plan_route(q));
        }
        route_ns = per_item_ns(t.elapsed(), queries.len());
    }
    put("net.medium_hop_us", hop_us);
    put("net.route_ns", route_ns);
    out
}

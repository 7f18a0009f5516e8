//! Serializability: every concurrent execution path (pipelined engine,
//! merge-based serializer, distributed cluster, 2PL baseline) agrees with
//! sequential processing of the same serialization order.

use fundb::core::{
    process_tagged, route_responses, ClientId, LockingDb, OptimisticEngine, PipelinedEngine,
};
use fundb::durable::{DurableEngine, ScratchDir};
use fundb::lenient::{merge_deterministic, MergeSchedule, Tagged};
use fundb::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::mem::discriminant;

fn base(relations: usize) -> Database {
    base_with(relations, Repr::List)
}

fn base_with(relations: usize, repr: Repr) -> Database {
    let mut db = Database::empty();
    for r in 0..relations {
        db = db.create_relation(format!("R{r}").as_str(), repr).unwrap();
    }
    db
}

fn random_queries(seed: u64, n: usize, relations: usize) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let rel = format!("R{}", rng.gen_range(0..relations));
            let rel2 = format!("R{}", rng.gen_range(0..relations));
            let key = rng.gen_range(0..40);
            match rng.gen_range(0..10) {
                0..=2 => format!("insert ({key}, {}) into {rel}", rng.gen_range(0..100)),
                3 => format!("find {key} in {rel}"),
                4 => format!("delete {key} from {rel}"),
                5 => format!("count {rel}"),
                6 => format!("find {key} to {} in {rel}", key + rng.gen_range(0..20)),
                7 => format!("select #0 from {rel} where #1 > {}", rng.gen_range(0..100)),
                8 => format!("join {rel} with {rel2}"),
                _ => format!("sum #1 of {rel}"),
            }
        })
        .collect()
}

fn pick<'a>(rng: &mut ChaCha8Rng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// `random_queries` widened to the whole language: every `Query` variant
/// (`create view` in each of its four shapes), over base relations that
/// declare a schema, against names that resolve to a base relation, a
/// view, a relation created mid-run, or nothing — so every refusal the
/// executor can give (missing relation, duplicate create over a relation
/// and over a view, unknown attribute, write / index / join / view on a
/// view) turns up too. Starts from an empty database: the first two
/// statements create `R0` and `R1` as `repr`.
fn statement_matrix(seed: u64, n: usize, repr: &str) -> Vec<String> {
    // What a statement is aimed at: mostly a live base relation.
    const NAMES: [&str; 10] = ["R0", "R0", "R0", "R1", "R1", "R1", "R2", "V0", "V1", "Nope"];
    // What a `create` calls its relation or view: mostly a free name at
    // first, a taken one — relation or view — on every later draw.
    const NEW: [&str; 6] = ["V0", "V0", "V1", "R2", "R0", "Nope"];
    const FIELDS: [&str; 6] = ["#0", "#1", "#2", "tag", "qty", "nope"];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = vec![
        format!("create relation R0(id, tag, qty) as {repr}"),
        format!("create relation R1(id, tag, qty) as {repr}"),
    ];
    for _ in 0..n {
        let rel = pick(&mut rng, &NAMES);
        let other = pick(&mut rng, &NAMES);
        let new = pick(&mut rng, &NEW);
        let field = pick(&mut rng, &FIELDS);
        let key = rng.gen_range(0..20);
        let row = format!(
            "({key}, 't{}', {})",
            rng.gen_range(0..4),
            rng.gen_range(0..50)
        );
        // Few enough shapes that a select or join regularly meets the view
        // that materializes it.
        let base = pick(&mut rng, &["R0", "R1"]);
        let bound = pick(&mut rng, &["10", "30"]);
        let select = match rng.gen_range(0..6) {
            0 => format!("select from {rel}"),
            1 | 2 => format!("select from {base} where qty > {bound}"),
            3 => format!("select tag, #0 from {rel} where {field} = 't1' or #0 < {key}"),
            4 => format!("select #0 from {rel} where tag = 't2' and qty > {bound}"),
            _ => format!("select #7 from {rel}"),
        };
        let join = match rng.gen_range(0..3) {
            0 => format!("join {rel} with {other}"),
            1 => format!("join {rel} with R1 on #0 = #0"),
            _ => format!("join {rel} with {other} on {field} = tag"),
        };
        out.push(match rng.gen_range(0..32) {
            0..=7 => format!("insert {row} into {rel}"),
            8..=9 => format!("delete {key} from {rel}"),
            10..=11 => format!("replace {row} in {rel}"),
            12 => format!("find {key} in {rel}"),
            13 => format!("find {key} to {} in {rel}", key + rng.gen_range(0..8)),
            14 => format!("count {rel}"),
            15..=16 => select,
            17 => format!(
                "{} {field} of {rel}",
                pick(&mut rng, &["sum", "min", "max"])
            ),
            18 => join,
            19 => format!("create relation {new}(id, tag, qty) as {repr}"),
            20 => format!("create index ix{} on {rel} ({field})", rng.gen_range(0..3)),
            21 => format!("create index cx on {rel} (tag, {field})"),
            22 => format!("create view {new} as select from {base} where qty > {bound}"),
            23 => format!("create view {new} as join {rel} with R1 on #0 = #0"),
            24 => format!("create view {new} as count {rel} by {field}"),
            25 => format!("create view {new} as sum qty of {rel} by {field}"),
            26 => format!("explain {select}"),
            27 => format!("explain {join}"),
            28 => format!("explain find {key} in {rel}"),
            29 => format!("explain find {key} to {} in {rel}", key + 5),
            30 => format!("explain count {rel}"),
            _ => "relations".to_string(),
        });
    }
    out
}

/// Submits every statement of `stmts` in order without waiting in between
/// — view reads included, since a view read sees exactly the writes
/// submitted before it — and collects every response.
fn drive(stmts: &[String], submit: impl Fn(Transaction) -> Lenient<Response>) -> Vec<Response> {
    let cells: Vec<Lenient<Response>> = stmts
        .iter()
        .map(|s| submit(translate(parse(s).unwrap())))
        .collect();
    cells.into_iter().map(|c| c.wait_cloned()).collect()
}

/// The statement-matrix differential: the sequential model, the pipelined
/// engine at every pool width, a durable engine reopened mid-sequence, the
/// primary-copy engine and the 2PL baseline all evaluate through the one
/// executor, so they give the same response — text included — to every
/// statement.
#[test]
fn every_scheduler_answers_the_statement_matrix_alike() {
    let reprs = ["list", "tree", "btree(4)"];
    let (mut kinds, mut view_kinds) = (HashSet::new(), HashSet::new());
    for seed in 0u64..16 {
        let repr = reprs[seed as usize % reprs.len()];
        let stmts = statement_matrix(seed, 160, repr);
        for q in stmts.iter().map(|s| parse(s).unwrap()) {
            kinds.insert(discriminant(&q));
            if let Query::CreateView { spec, .. } = &q {
                view_kinds.insert(discriminant(spec));
            }
        }
        let expected = sequential_responses(&Database::empty(), &stmts);

        let workers = 1 + (seed + seed / 4) as usize % 8;
        let engine = PipelinedEngine::new(workers, &Database::empty());
        let got = drive(&stmts, |tx| engine.submit(tx));
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "pipelined, seed {seed}, {repr}, {workers} workers, #{i}: {}",
                stmts[i]
            );
        }

        // Acknowledged history survives a restart at any point: run a
        // prefix, drop the engine, recover from the log, run the rest.
        let dir = ScratchDir::new("matrix");
        let cut = stmts.len() / 3 + (seed as usize * 7) % (stmts.len() / 3);
        let mut durable = Vec::new();
        for part in [&stmts[..cut], &stmts[cut..]] {
            let (engine, _) = DurableEngine::open(dir.path(), workers).unwrap();
            durable.extend(drive(part, |tx| engine.submit(tx)));
        }
        for (i, (g, e)) in durable.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "durable, seed {seed}, {repr}, reopened at {cut}, #{i}: {}",
                stmts[i]
            );
        }

        // The primary-copy engine has a fixed catalog: give it the two
        // base relations, a select view and a join view the matrix's reads
        // meet (so writes must maintain them, writes to them must be
        // refused and matching reads must substitute them), and every
        // statement that leaves the catalog alone.
        let catalog = [
            stmts[0].clone(),
            stmts[1].clone(),
            "create view V0 as select from R0 where qty > 10".to_string(),
            "create view V1 as join R0 with R1 on #0 = #0".to_string(),
        ];
        let base = sequential_final(&Database::empty(), &catalog);
        assert_eq!(base.views().len(), 2);
        let fixed: Vec<String> = stmts[2..]
            .iter()
            .filter(|s| !s.starts_with("create") && *s != "relations")
            .cloned()
            .collect();
        let expected = sequential_responses(&base, &fixed);
        let occ = OptimisticEngine::new(&base);
        for (s, e) in fixed.iter().zip(&expected) {
            let (got, _) = occ.execute_queries(&[parse(s).unwrap()]);
            assert_eq!(&got[0], e, "primary-copy, seed {seed}, {repr}: {s}");
        }

        // The 2PL baseline holds the same copies and runs `translate` over
        // them under locks; it also lists its catalog.
        let fixed: Vec<String> = stmts[2..]
            .iter()
            .filter(|s| !s.starts_with("create"))
            .cloned()
            .collect();
        let expected = sequential_responses(&base, &fixed);
        let ldb = LockingDb::from_database(&base);
        for (s, e) in fixed.iter().zip(&expected) {
            let got = ldb.execute(&translate(parse(s).unwrap()));
            assert_eq!(&got, e, "2PL, seed {seed}, {repr}: {s}");
        }
    }
    // All fourteen `Query` variants, `create view` in all four shapes.
    assert_eq!((kinds.len(), view_kinds.len()), (14, 4));
}

fn sequential_final(db: &Database, queries: &[String]) -> Database {
    queries.iter().fold(db.clone(), |db, q| {
        translate(parse(q).unwrap()).apply(&db).1
    })
}

fn sequential_responses(db: &Database, queries: &[String]) -> Vec<Response> {
    let mut db = db.clone();
    queries
        .iter()
        .map(|q| {
            let (r, next) = translate(parse(q).unwrap()).apply(&db);
            db = next;
            r
        })
        .collect()
}

#[test]
fn engine_matches_sequential_across_seeds_and_widths() {
    for seed in [1u64, 2, 3] {
        let queries = random_queries(seed, 120, 3);
        let db = base(3);
        let expected = sequential_responses(&db, &queries);
        for workers in [1usize, 3, 8] {
            let engine = PipelinedEngine::new(workers, &db);
            let got = engine.run(queries.iter().map(|q| translate(parse(q).unwrap())));
            assert_eq!(got, expected, "seed {seed}, workers {workers}");
        }
    }
}

#[test]
fn serializer_round_robin_matches_manual_interleave() {
    let db = base(2);
    let c0: Vec<String> = (0..15).map(|i| format!("insert {i} into R0")).collect();
    let c1: Vec<String> = (0..15).map(|i| format!("insert {i} into R1")).collect();
    // Manual round-robin interleave.
    let mut interleaved = Vec::new();
    for i in 0..15 {
        interleaved.push(c0[i].clone());
        interleaved.push(c1[i].clone());
    }
    let expected = sequential_responses(&db, &interleaved);

    let s0: Stream<Tagged<ClientId, Transaction>> = c0
        .iter()
        .map(|q| Tagged::new(ClientId(0), translate(parse(q).unwrap())))
        .collect();
    let s1: Stream<Tagged<ClientId, Transaction>> = c1
        .iter()
        .map(|q| Tagged::new(ClientId(1), translate(parse(q).unwrap())))
        .collect();
    let merged = merge_deterministic(vec![s0, s1], MergeSchedule::RoundRobin);
    let responses = process_tagged(merged, db);
    let all: Vec<Response> = responses
        .collect_vec()
        .into_iter()
        .map(|t| t.value)
        .collect();
    assert_eq!(all, expected);
}

#[test]
fn per_client_response_streams_are_projections() {
    let db = base(2);
    let mk = |cl: u32, rel: &str| -> Stream<Tagged<ClientId, Transaction>> {
        (0..10)
            .map(|i| {
                Tagged::new(
                    ClientId(cl),
                    translate(parse(&format!("insert {i} into {rel}")).unwrap()),
                )
            })
            .collect()
    };
    let merged = merge_deterministic(vec![mk(0, "R0"), mk(1, "R1")], MergeSchedule::RoundRobin);
    let responses = process_tagged(merged, db);
    let r0 = route_responses(&responses, ClientId(0)).collect_vec();
    let r1 = route_responses(&responses, ClientId(1)).collect_vec();
    assert_eq!(r0.len(), 10);
    assert_eq!(r1.len(), 10);
    assert!(r0.iter().chain(&r1).all(|r| !r.is_error()));
}

#[test]
fn cluster_round_trip_matches_sequential() {
    let db = base(2);
    let queries = random_queries(7, 40, 2);
    let expected = sequential_responses(&db, &queries);
    // Figure 3-1: one primary and one client site on one medium.
    let tmp = ScratchDir::new("serial-cluster");
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 4, 0).unwrap();
    let client = cluster.client(0);
    for r in 0..2 {
        let created = client.submit(&format!("create relation R{r} as list"));
        assert!(!created.wait().is_error());
    }
    let cells: Vec<_> = queries.iter().map(|q| client.submit(q)).collect();
    let got: Vec<Response> = cells.into_iter().map(|c| c.wait_cloned()).collect();
    assert_eq!(got, expected);
    cluster.shutdown();
}

#[test]
fn locking_baseline_reaches_the_same_final_state_for_commutative_load() {
    // Disjoint-key inserts commute, so 2PL must reach the same final
    // relation contents as sequential execution, from any thread count.
    let db = base(2);
    let queries: Vec<String> = (0..100)
        .map(|i| format!("insert {i} into R{}", i % 2))
        .collect();
    let txns: Vec<Transaction> = queries
        .iter()
        .map(|q| translate(parse(q).unwrap()))
        .collect();
    let ldb = LockingDb::from_database(&db);
    let rs = ldb.run_concurrent(&txns, 8);
    assert!(rs.iter().all(|r| !r.is_error()));
    assert_eq!(ldb.tuple_count(), 100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Write coalescing must be observationally invisible: a read
    /// interleaved anywhere into a write burst sees exactly the prefix
    /// state it would see under sequential application — for every
    /// relation representation.
    #[test]
    fn coalesced_engine_is_prefix_exact_for_every_repr(
        seed in 0u64..10_000,
        n in 30usize..100,
        workers in 1usize..9,
        repr_idx in 0usize..2,
    ) {
        let repr = [Repr::List, Repr::BTree(4)][repr_idx];
        let db = base_with(2, repr);
        let queries = random_queries(seed, n, 2);
        let txns = || queries.iter().map(|q| translate(parse(q).unwrap()));

        let expected = sequential_responses(&db, &queries);
        let coalesced = PipelinedEngine::new(workers, &db).run(txns());
        prop_assert_eq!(&coalesced, &expected, "coalesced vs sequential ({repr:?})");
    }
}

#[test]
fn engine_snapshot_equals_sequential_final_database() {
    let queries = random_queries(11, 80, 3);
    let db = base(3);
    let mut seq_db = db.clone();
    for q in &queries {
        let (_, next) = translate(parse(q).unwrap()).apply(&seq_db);
        seq_db = next;
    }
    let engine = PipelinedEngine::new(4, &db);
    engine.run(queries.iter().map(|q| translate(parse(q).unwrap())));
    let snap = engine.snapshot();
    assert_eq!(snap.tuple_count(), seq_db.tuple_count());
    for name in seq_db.relation_names() {
        let a = seq_db.relation(&name).unwrap().scan();
        let b = snap.relation(&name).unwrap().scan();
        assert_eq!(a, b, "relation {name}");
    }
}

//! End-to-end integration: symbolic queries through translation, stream
//! processing, versioning, and structural sharing — across every crate
//! boundary at once.

use fundb::prelude::*;

fn base() -> Database {
    Database::empty()
        .create_relation("Emp", Repr::List)
        .unwrap()
        .create_relation("Dept", Repr::TREE)
        .unwrap()
        .create_relation("Log", Repr::List)
        .unwrap()
}

#[test]
fn mixed_representation_session() {
    let queries = [
        "insert (1, 'ada', 10) into Emp",
        "insert (2, 'grace', 10) into Emp",
        "insert (10, 'Engineering') into Dept",
        "insert (1, 'hired ada') into Log",
        "find 10 in Dept",
        "select from Emp where #2 = 10",
        "count Log",
        "delete 1 from Emp",
        "count Emp",
    ];
    let mut db = base();
    let mut responses = Vec::new();
    for q in queries {
        let tx = translate(parse(q).unwrap());
        let (r, next) = tx.apply(&db);
        assert!(!r.is_error(), "{q}: {r}");
        responses.push(r);
        db = next;
    }
    assert_eq!(responses[4].tuples().unwrap().len(), 1);
    assert_eq!(responses[5].tuples().unwrap().len(), 2);
    assert_eq!(responses[6], Response::Count(1));
    assert_eq!(responses[7], Response::Deleted(1));
    assert_eq!(responses[8], Response::Count(1));
}

#[test]
fn version_stream_is_fully_persistent() {
    let txns: Stream<Transaction> = (0..20)
        .map(|i| translate(parse(&format!("insert {i} into Emp")).unwrap()))
        .collect();
    let (_responses, versions) = apply_stream(txns, base());
    let versions = versions.collect_vec();
    // Every version answers queries as of its own time.
    for (i, v) in versions.iter().enumerate() {
        assert_eq!(v.tuple_count(), i + 1);
        assert_eq!(v.find(&"Emp".into(), &(i as i64).into()).unwrap().len(), 1);
        if i + 1 < versions.len() {
            assert_eq!(
                v.find(&"Emp".into(), &((i + 1) as i64).into())
                    .unwrap()
                    .len(),
                0,
                "version {i} must not see the future"
            );
        }
    }
}

#[test]
fn untouched_relations_are_physically_shared_across_versions() {
    let d0 = base();
    let tx = translate(parse("insert 1 into Emp").unwrap());
    let (_, d1) = tx.apply(&d0);
    // Dept and Log were untouched: same physical values in both versions.
    assert!(d0.shares_relation_with(&d1, &"Dept".into()));
    assert!(d0.shares_relation_with(&d1, &"Log".into()));
    assert!(!d0.shares_relation_with(&d1, &"Emp".into()));
}

#[test]
fn display_parse_round_trip() {
    let queries = [
        "insert (1, 'ada') into Emp",
        "find 5 in Emp",
        "delete 'k' from Dept",
        "replace (2, 'b') in Emp",
        "select from Emp where (#0 = 1 and #1 > 'a')",
        "create relation X as btree(4)",
        "count Emp",
        "relations",
    ];
    for q in queries {
        let ast = parse(q).unwrap();
        let printed = ast.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(ast, reparsed, "{q} -> {printed}");
    }
}

#[test]
fn infinite_query_stream_processed_lazily() {
    let nats = Stream::unfold(0i64, |n| Some((n, n + 1)));
    let txns = nats.map(|n| translate(parse(&format!("insert {n} into Emp")).unwrap()));
    let (responses, versions) = apply_stream(txns, base());
    assert_eq!(responses.take(5).len(), 5);
    assert_eq!(versions.nth(9).unwrap().tuple_count(), 10);
}

#[test]
fn schemas_projection_and_named_predicates() {
    let mut db = Database::empty();
    for q in [
        "create relation Emp(id, name, dept) as tree",
        "insert (1, 'ada', 'eng') into Emp",
        "insert (2, 'bob', 'ops') into Emp",
        "insert (3, 'cyd', 'eng') into Emp",
    ] {
        let (r, next) = translate(parse(q).unwrap()).apply(&db);
        assert!(!r.is_error(), "{q}: {r}");
        db = next;
    }
    // Named predicate + projection.
    let (r, _) = translate(parse("select name from Emp where dept = 'eng'").unwrap()).apply(&db);
    let names: Vec<String> = r
        .tuples()
        .unwrap()
        .iter()
        .map(|t| t.key().as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["ada", "cyd"]);
    // Mixed positional and named refs.
    let (r, _) =
        translate(parse("select #0, dept from Emp where name != 'bob'").unwrap()).apply(&db);
    assert_eq!(r.tuples().unwrap().len(), 2);
    assert_eq!(r.tuples().unwrap()[0].arity(), 2);
    // Unknown attribute: a clean error.
    let (r, _) = translate(parse("select from Emp where salary > 3").unwrap()).apply(&db);
    assert!(r.is_error());
    assert!(r.to_string().contains("salary"), "{r}");
    // Named refs without a schema: a clean error.
    let db2 = db.clone().create_relation("Raw", Repr::List).unwrap();
    let (r, _) = translate(parse("select from Raw where x = 1").unwrap()).apply(&db2);
    assert!(r.is_error());
    assert!(r.to_string().contains("no schema"), "{r}");
}

#[test]
fn joins_and_schemas_through_every_executor() {
    use fundb::core::{LockingDb, PipelinedEngine};
    let mut db = Database::empty();
    for q in [
        "create relation Emp(id, name, dept) as list",
        "create relation Dept(dept_id, title) as list",
        "insert (1, 'ada', 10) into Emp",
        "insert (10, 'Engineering') into Dept",
    ] {
        let (r, next) = translate(parse(q).unwrap()).apply(&db);
        assert!(!r.is_error(), "{q}");
        db = next;
    }
    let queries = [
        "select name from Emp where dept = 10",
        "join Dept with Dept",
        "count Emp",
    ];
    // Sequential reference.
    let mut expected = Vec::new();
    let mut cur = db.clone();
    for q in &queries {
        let (r, next) = translate(parse(q).unwrap()).apply(&cur);
        expected.push(r);
        cur = next;
    }
    // Pipelined engine.
    let engine = PipelinedEngine::new(4, &db);
    let got = engine.run(queries.iter().map(|q| translate(parse(q).unwrap())));
    assert_eq!(got, expected);
    // Locking baseline.
    let ldb = LockingDb::from_database(&db);
    let got: Vec<Response> = queries
        .iter()
        .map(|q| ldb.execute(&translate(parse(q).unwrap())))
        .collect();
    assert_eq!(got, expected);
}

/// `find k` answers exactly like `select from R where #0 = k` — the same
/// tuples in the same (arrival) order — on every representation, with
/// duplicate keys, through the sequential model and the pipelined engine.
#[test]
fn find_answers_like_a_key_select_on_every_repr() {
    use fundb::core::PipelinedEngine;
    for repr in ["list", "tree", "btree(4)"] {
        let mut stmts = vec![format!("create relation R as {repr}")];
        for (k, tag) in [(1, "a"), (2, "x"), (1, "b"), (3, "y"), (1, "c"), (2, "z")] {
            stmts.push(format!("insert ({k}, '{tag}') into R"));
        }
        for k in 0..4 {
            stmts.push(format!("find {k} in R"));
            stmts.push(format!("select from R where #0 = {k}"));
        }
        let spec: Vec<Response> = stmts
            .iter()
            .scan(Database::empty(), |db, s| {
                let (r, next) = translate(parse(s).unwrap()).apply(db);
                *db = next;
                Some(r)
            })
            .collect();
        let engine = PipelinedEngine::new(2, &Database::empty());
        let pipelined = engine.run(stmts.iter().map(|s| translate(parse(s).unwrap())));
        for answers in [&spec, &pipelined] {
            let reads = &answers[7..];
            for pair in reads.chunks(2) {
                assert_eq!(pair[0], pair[1], "{repr}");
            }
            let ones: Vec<String> = reads[2]
                .tuples()
                .unwrap()
                .iter()
                .map(|t| t.to_string())
                .collect();
            assert_eq!(ones, ["(1, 'a')", "(1, 'b')", "(1, 'c')"], "{repr}");
        }
    }
}

#[test]
fn facade_prelude_is_sufficient_for_the_readme_example() {
    let db = Database::empty().create_relation("R", Repr::List).unwrap();
    let tx = translate(parse("insert (1, 'x') into R").unwrap());
    let (response, db2) = tx.apply(&db);
    assert_eq!(response.to_string(), "inserted (1, 'x') into R");
    assert_eq!(db.tuple_count(), 0);
    assert_eq!(db2.tuple_count(), 1);
}

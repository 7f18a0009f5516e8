//! Quickstart: the functional database in five minutes.
//!
//! Shows the paper's core cycle: symbolic queries are `translate`d into
//! transactions (pure functions `Database -> (Response, Database)`), and a
//! stream of transactions applied with `apply-stream` yields the stream of
//! responses and the stream of database versions — with full structural
//! sharing between versions.
//!
//! Run with: `cargo run --example quickstart`

use fundb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A database is an immutable value: a mapping names -> relations.
    let d0 = Database::empty()
        .create_relation("Emp", Repr::List)?
        .create_relation("Dept", Repr::TREE)?;

    // translate : queries -> transactions.
    let queries = [
        "insert (1, 'ada', 'eng') into Emp",
        "insert (2, 'grace', 'eng') into Emp",
        "insert ('eng', 'Engineering') into Dept",
        "find 1 in Emp",
        "select from Emp where #2 = 'eng'",
        "count Emp",
    ];
    println!("== one transaction at a time ==");
    let mut db = d0.clone();
    for q in queries {
        let tx = translate(parse(q)?);
        let (response, next) = tx.apply(&db);
        println!("{q:<42} -> {response}");
        db = next;
    }

    // The original version is untouched — updating is the creation of new
    // versions, not mutation.
    println!(
        "\nv0 still has {} tuples; head has {}",
        d0.tuple_count(),
        db.tuple_count()
    );

    // The same computation as a stream program (Figure 2-1): feed a stream
    // of transactions to apply-stream, read back responses and versions.
    println!("\n== as a stream program ==");
    let txns: Stream<Transaction> = queries
        .iter()
        .map(|q| translate(parse(q).expect("queries parse")))
        .collect();
    let (responses, versions) = apply_stream(txns, d0);
    for (i, r) in responses.collect_vec().iter().enumerate() {
        println!("response {i}: {r}");
    }
    let versions = versions.collect_vec();
    println!(
        "versions grew from {} to {} tuples across {} versions",
        versions.first().map(Database::tuple_count).unwrap_or(0),
        versions.last().map(Database::tuple_count).unwrap_or(0),
        versions.len(),
    );
    Ok(())
}

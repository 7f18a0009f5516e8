//! A multi-user library catalog: merge-based serialization (Section 2.4).
//!
//! Three librarians work concurrently against one catalog: acquisitions
//! inserts books, circulation records loans, and the front desk runs
//! lookups. Their query streams are combined by the nondeterministic merge
//! — the single non-functional component — processed logically
//! sequentially, and each librarian gets exactly their own responses back,
//! in their own order. Afterwards the example prints the Figure 2-3-style
//! de-facto parallel schedule for a small merged batch.
//!
//! Run with: `cargo run --example multi_user_library`

use fundb::core::{process_tagged, route_responses, ClientId, TxnSchedule};
use fundb::lenient::{merge_tagged, Stream, Tagged};
use fundb::prelude::*;

fn client_stream(queries: &[String]) -> Stream<Transaction> {
    queries
        .iter()
        .map(|q| translate(parse(q).expect("queries parse")))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Database::empty()
        .create_relation("Books", Repr::TREE)?
        .create_relation("Loans", Repr::List)?;

    // Three independent terminals.
    let acquisitions: Vec<String> = (0..8)
        .map(|i| format!("insert ({i}, 'book-{i}') into Books"))
        .collect();
    let circulation: Vec<String> = (0..6)
        .map(|i| format!("insert ({}, 'member-{}') into Loans", i * 10, i))
        .collect();
    let front_desk: Vec<String> = vec![
        "count Books".into(),
        "find 3 in Books".into(),
        "select from Loans where #0 > 20".into(),
        "relations".into(),
    ];

    // The pseudo-functional merge: arrival-order interleaving of the three
    // tagged streams; everything after it is purely functional.
    let merged = merge_tagged(vec![
        (ClientId(0), client_stream(&acquisitions)),
        (ClientId(1), client_stream(&circulation)),
        (ClientId(2), client_stream(&front_desk)),
    ]);
    let responses = process_tagged(merged, catalog.clone());

    // choose: each terminal reads back only its own sub-stream.
    for (id, name) in [(0, "acquisitions"), (1, "circulation"), (2, "front desk")] {
        println!("== {name} sees ==");
        for r in route_responses(&responses, ClientId(id)).collect_vec() {
            println!("  {r}");
        }
    }

    // Figure 2-3 flavor: the dependency-derived schedule for a merged batch.
    println!("\n== de-facto parallel schedule of a merged batch ==");
    let batch: Vec<Tagged<ClientId, Transaction>> = vec![
        Tagged::new(
            ClientId(0),
            translate(parse("insert (99, 'x') into Books")?),
        ),
        Tagged::new(
            ClientId(1),
            translate(parse("insert (990, 'm') into Loans")?),
        ),
        Tagged::new(ClientId(2), translate(parse("find 99 in Books")?)),
        Tagged::new(
            ClientId(1),
            translate(parse("insert (991, 'n') into Loans")?),
        ),
        Tagged::new(ClientId(2), translate(parse("find 990 in Loans")?)),
    ];
    let schedule = TxnSchedule::of(&batch);
    print!("{}", schedule.render());
    println!(
        "depth {} steps for {} transactions (max {} in parallel)",
        schedule.depth(),
        batch.len(),
        schedule.max_width()
    );
    Ok(())
}

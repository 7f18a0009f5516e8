//! Time travel over a complete version archive (Section 3.3).
//!
//! Because database versions share structure, keeping *every* version is
//! cheap — the paper's "complete archives". This example runs an inventory
//! through a day of trading, then answers questions about the past:
//! queries against old versions, per-key history, and O(relations) change
//! detection between any two points in time (possible only because
//! untouched relations are physically shared).
//!
//! Run with: `cargo run --example time_travel`

use fundb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::empty()
        .create_relation("Stock", Repr::TREE)?
        .create_relation("Prices", Repr::List)?;
    let mut archive = VersionArchive::new(db);

    let day = [
        "insert (1, 'widget', 100) into Stock",
        "insert (2, 'gadget', 40) into Stock",
        "insert (1, 250) into Prices",
        "replace (1, 'widget', 80) in Stock", // sold 20 widgets
        "insert (2, 999) into Prices",
        "replace (1, 'widget', 35) in Stock", // big afternoon order
        "delete 2 from Stock",                // gadgets discontinued
    ];
    for q in day {
        let r = archive.apply(&translate(parse(q)?));
        println!("v{:<2} {q:<40} -> {r}", archive.head_version());
    }

    // 1. Query the past: how many widgets did we have at version 4?
    let probe = translate(parse("find 1 in Stock")?);
    for v in [1, 4, archive.head_version()] {
        let r = archive.query_at(v, &probe).expect("version exists");
        println!("\nat v{v}: {r}");
    }

    // 2. Per-key history: when did gadgets exist?
    let history = archive.history_of(&"Stock".into(), &2.into());
    println!("\ngadget (key 2) tuple count per version: {history:?}");

    // 3. Change detection by physical sharing (O(relations), not O(data)).
    for (i, j) in [(0, 2), (2, 3), (4, 5)] {
        let changed = archive.changed_relations(i, j).expect("versions exist");
        let names: Vec<String> = changed.iter().map(|n| n.to_string()).collect();
        println!("v{i} -> v{j}: changed relations = {names:?}");
    }

    // 4. The archive's log is the full audit trail.
    println!("\naudit trail:");
    for v in 1..=archive.head_version() {
        let (q, r) = archive.log_entry(v).expect("logged");
        println!("  v{v}: {q}  =>  {r}");
    }

    // 5. Reclaim the morning, keep the afternoon (the paper's GC remark).
    archive.truncate_before(4);
    println!(
        "\nafter truncation: {} versions retained, head has {} tuples",
        archive.version_count(),
        archive.head().tuple_count()
    );
    Ok(())
}

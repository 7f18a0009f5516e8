//! Adaptive batching regimes (DESIGN.md §9.5): the engine picks bypass /
//! coalesce / lock-free-frontier paths from observed traffic, and that
//! choice must be observationally invisible — every phased workload that
//! walks the regime boundaries gets exactly the sequential answers, on
//! every relation representation.

use fundb::core::PipelinedEngine;
use fundb::prelude::*;
use fundb::workload::PhasedSpec;
use proptest::prelude::*;

/// Round-robin interleave of a phased multi-client workload: the merged
/// submission order, which *is* the serialization order.
fn merged_order(spec: &PhasedSpec) -> Vec<Transaction> {
    let clients = spec.all_clients();
    let longest = clients.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for ops in &clients {
            if let Some(tx) = ops.get(i) {
                out.push(tx.clone());
            }
        }
    }
    out
}

fn sequential_responses(db: &Database, txns: &[Transaction]) -> Vec<Response> {
    let mut db = db.clone();
    txns.iter()
        .map(|tx| {
            let (r, next) = tx.apply(&db);
            db = next;
            r
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The adaptive scheduler crosses every regime boundary under this
    /// workload — read-dominated (bypass + frontier hits), write burst
    /// (coalesce), then an even mix — and must still answer exactly like
    /// sequential application, for every representation and pool width.
    #[test]
    fn phased_workload_is_prefix_exact_across_regime_switches(
        seed in 0u64..10_000,
        ops_per_phase in 20usize..60,
        workers in 1usize..9,
        repr_idx in 0usize..2,
    ) {
        let repr = [Repr::List, Repr::BTree(4)][repr_idx];
        let spec = PhasedSpec::regime_shifts(3, ops_per_phase, seed);
        let db = spec.initial(repr);
        let txns = merged_order(&spec);

        let expected = sequential_responses(&db, &txns);
        let adaptive = PipelinedEngine::new(workers, &db).run(txns.iter().cloned());
        prop_assert_eq!(&adaptive, &expected, "adaptive vs sequential ({:?})", repr);
    }
}

/// Regression test for the bypass regime's ordering contract: a read
/// submitted after `j` writes observes exactly those `j` writes — never a
/// later write's effect — even while later writes are already submitted
/// and in flight by the time the read's response is awaited.
#[test]
fn bypass_read_observes_exact_prefix_never_a_later_write() {
    let db = Database::empty()
        .create_relation("R", Repr::BTree(4))
        .unwrap();
    let engine = PipelinedEngine::new(2, &db);

    // Alternating write/read/read from a cold start keeps the tracker in
    // the read-interleaved window, so every write takes the bypass path.
    // Frontier publication is demand-driven: the first count after each
    // write misses and repairs the frontier under the slot lock, and the
    // second count is answered lock-free from the repaired entry.
    let mut cells = Vec::new();
    let rounds = 40u64;
    for i in 0..rounds {
        cells.push(engine.submit(translate(parse(&format!("insert {i} into R")).unwrap())));
        cells.push(engine.submit(translate(parse("count R").unwrap())));
        cells.push(engine.submit(translate(parse("count R").unwrap())));
    }
    // Only now collect responses: every later write was already submitted
    // while earlier reads were still unawaited.
    let responses: Vec<Response> = cells.into_iter().map(|c| c.wait_cloned()).collect();
    for i in 0..rounds {
        // Both counts right after the (i+1)-th insert see exactly i+1
        // tuples: all earlier writes, no later ones.
        for probe in 1..=2 {
            assert_eq!(
                responses[(i * 3 + probe) as usize],
                Response::Count((i + 1) as usize),
                "read {probe} after write {i}"
            );
        }
    }

    let stats = engine.stats();
    assert_eq!(
        stats.bypass_writes, rounds,
        "quiescent interleaved writes must all take the bypass path: {stats}"
    );
    assert!(
        stats.frontier_hits > 0,
        "interleaved counts should hit the lock-free frontier: {stats}"
    );
}

/// One phased run drives all three hot paths: bypass writes while reads
/// interleave, coalesced batches once the burst starts, and lock-free
/// frontier hits for reads of settled versions.
#[test]
fn phased_run_engages_all_three_regimes() {
    let spec = PhasedSpec::regime_shifts(3, 120, 0xadab);
    let db = spec.initial(Repr::BTree(16));
    let engine = PipelinedEngine::new(4, &db);
    let txns = merged_order(&spec);
    let expected = sequential_responses(&db, &txns);
    let got = engine.run(txns.iter().cloned());
    assert_eq!(got, expected);

    let stats = engine.stats();
    assert!(stats.bypass_writes > 0, "no bypass writes: {stats}");
    assert!(
        stats.batches_opened > 0,
        "write burst opened no batches: {stats}"
    );
    assert!(stats.frontier_hits > 0, "no frontier hits: {stats}");
}

//! Cross-crate lenient/pipelining behavior: values flow before producers
//! finish, across streams, engines, and the distributed cluster.

use std::time::Duration;

use fundb::core::{process_tagged, ClientId, PipelinedEngine};
use fundb::durable::ScratchDir;
use fundb::lenient::{Lenient, Stream, Tagged, Thunk};
use fundb::prelude::*;

fn base() -> Database {
    Database::empty()
        .create_relation("R", Repr::List)
        .unwrap()
        .create_relation("S", Repr::List)
        .unwrap()
}

#[test]
fn responses_flow_while_the_query_stream_is_still_open() {
    let (mut writer, queries) = Stream::channel();
    let txns = queries.map(|q: String| translate(parse(&q).unwrap()));
    let (responses, _) = apply_stream(txns, base());

    writer.push("insert 1 into R".to_string());
    // The first response is available although the stream has no end yet.
    assert!(!responses.first().unwrap().is_error());

    writer.push("find 1 in R".to_string());
    assert_eq!(responses.nth(1).unwrap().tuples().unwrap().len(), 1);
    writer.close();
    assert_eq!(responses.len(), 2);
}

#[test]
fn tagged_processing_is_lazy_per_demand() {
    // Only the demanded prefix of an endless tagged stream is processed.
    let nats = Stream::unfold(0i64, |n| Some((n, n + 1)));
    let merged = nats.map(|n| {
        Tagged::new(
            ClientId((n % 2) as u32),
            translate(parse(&format!("insert {n} into R")).unwrap()),
        )
    });
    let responses = process_tagged(merged, base());
    assert_eq!(responses.take(7).len(), 7);
}

#[test]
fn engine_read_of_idle_relation_returns_while_writes_stream_elsewhere() {
    let engine = PipelinedEngine::new(2, &base());
    for i in 0..500 {
        engine.submit(translate(parse(&format!("insert {i} into R")).unwrap()));
    }
    let s_count = engine.submit(translate(parse("count S").unwrap()));
    let got = s_count
        .wait_timeout(Duration::from_secs(10))
        .expect("idle-relation read must complete");
    assert_eq!(*got, Response::Count(0));
}

#[test]
fn lenient_cells_propagate_through_thunks_and_streams() {
    // A thunk that assembles a value from a cell filled later, embedded in
    // a stream read by a third party: only the true data dependency blocks.
    let cell: Lenient<i64> = Lenient::new();
    let reader = cell.clone();
    let thunk = Thunk::new(move || *reader.wait() * 2);
    let t2 = thunk.clone();
    let stream = Stream::cons(1i64, Stream::empty()).map(move |x| x + *t2.force());
    let handle = std::thread::spawn(move || stream.first().unwrap());
    std::thread::sleep(Duration::from_millis(20));
    cell.fill(20).unwrap();
    assert_eq!(handle.join().unwrap(), 41);
}

#[test]
fn cluster_replies_stream_before_submission_stops() {
    let tmp = ScratchDir::new("lenient-cluster");
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 0).unwrap();
    let client = cluster.client(0);
    assert!(!client.submit("create relation R as list").wait().is_error());
    let first = client.submit("insert 1 into R");
    // Reply arrives while the client is still free to submit more.
    assert!(!first
        .wait_timeout(Duration::from_secs(10))
        .expect("reply must stream out")
        .is_error());
    let second = client.submit("find 1 in R");
    assert_eq!(
        second
            .wait_timeout(Duration::from_secs(10))
            .expect("second reply")
            .tuples()
            .unwrap()
            .len(),
        1
    );
    cluster.shutdown();
}

#[test]
fn version_stream_supports_concurrent_historical_readers() {
    // One thread walks old versions while another extends the stream.
    let (mut writer, queries) = Stream::channel();
    let txns = queries.map(|q: String| translate(parse(&q).unwrap()));
    let (_, versions) = apply_stream(txns, base());

    let history = versions.clone();
    let reader = std::thread::spawn(move || {
        // Read version 4 (created by the 5th transaction).
        history.nth(4).map(|db| db.tuple_count())
    });
    for i in 0..10 {
        writer.push(format!("insert {i} into R"));
    }
    writer.close();
    assert_eq!(reader.join().unwrap(), Some(5));
    assert_eq!(versions.len(), 10);
}

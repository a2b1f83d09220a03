//! B8 — ingestion throughput through the connector runtime.
//!
//! Events/second through `PipelineDriver` for the three source families:
//! in-memory channel, CSV file, and the NEXMark generator. The query is a
//! cheap filter so the numbers are dominated by connector + driver
//! overhead (parse, batch, schedule, watermark bookkeeping), not operator
//! work. Expected shape: channel fastest (no parsing), NEXMark next
//! (generation cost), CSV slowest (text parsing per field).
//!
//! `net_loopback` is the wire path, closed loop: a `NetPublisher` thread
//! sends as fast as the socket takes frames into a 1-partition net source
//! feeding a 1-worker sharded driver. The consumer reads and decodes
//! frames on the driver thread, so this is what a saturated wire costs
//! the driver.

use std::io::Write;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use onesql_connect::{channel, CsvFileSource, FileSourceConfig, NexmarkSource};
use onesql_connect::{register_nexmark_streams, PartitionedNexmarkSource};
use onesql_connect::{NetAddr, NetConfig, NetPublisher, PartitionedNetSource};
use onesql_core::{Engine, ShardedConfig, StreamBuilder};
use onesql_types::{row, DataType, Schema, Ts};

const N: usize = 5_000;
/// Events for the sharded scaling comparison: enough that operator work
/// dominates worker spawn and channel overhead.
const N_SHARDED: usize = 40_000;
const SHARDED_PARTS: usize = 4;

fn bid_engine() -> Engine {
    let mut engine = Engine::new();
    engine.register_stream(
        "Bid",
        StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String),
    );
    engine
}

fn bid_schema() -> Schema {
    StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String)
        .build()
}

const SQL: &str = "SELECT item, price FROM Bid WHERE price > 10";

fn run_channel() -> u64 {
    let mut engine = bid_engine();
    let (publisher, source) = channel("Bid", N + 1);
    engine.attach_source(Box::new(source)).unwrap();
    // Pre-fill so the bench measures drain throughput, not producer speed.
    for i in 0..N as i64 {
        publisher
            .insert(Ts(i), row!(Ts(i), i % 100, "item"))
            .unwrap();
    }
    drop(publisher);
    let mut pipeline = engine.run_pipeline(SQL).unwrap();
    pipeline.run().unwrap().events_in
}

fn run_csv(path: &std::path::Path) -> u64 {
    let mut engine = bid_engine();
    engine
        .attach_source(Box::new(
            CsvFileSource::new(
                path,
                "Bid",
                Arc::new(bid_schema()),
                FileSourceConfig::default(),
            )
            .unwrap(),
        ))
        .unwrap();
    let mut pipeline = engine.run_pipeline(SQL).unwrap();
    pipeline.run().unwrap().events_in
}

fn run_nexmark() -> u64 {
    let mut engine = Engine::new();
    onesql_connect::register_nexmark_streams(&mut engine);
    engine
        .attach_source(Box::new(NexmarkSource::seeded(7, N as u64)))
        .unwrap();
    let mut pipeline = engine
        .run_pipeline("SELECT auction, price FROM Bid WHERE price > 100")
        .unwrap();
    pipeline.run().unwrap().events_in
}

fn run_net_loopback() -> u64 {
    let mut engine = bid_engine();
    let streams = vec!["Bid".to_string()];
    let source = PartitionedNetSource::bind(
        NetAddr::tcp("127.0.0.1:0"),
        streams.clone(),
        1,
        NetConfig::default(),
    )
    .unwrap();
    let addr = source.local_addr();
    engine.attach_partitioned_source(Box::new(source)).unwrap();
    let producer = std::thread::spawn(move || {
        let mut publisher = NetPublisher::new(addr, 0, streams, NetConfig::default());
        for i in 0..N as i64 {
            publisher
                .insert(0, Ts(i), row!(Ts(i), i % 100, "item"))
                .unwrap();
        }
        publisher.finish().unwrap();
    });
    let mut pipeline = engine
        .run_sharded_pipeline(SQL, ShardedConfig::new(1))
        .unwrap();
    let events = pipeline.run().unwrap().events_in;
    producer.join().unwrap();
    events
}

/// The sharded scaling workload: a windowed multi-aggregate over Bid,
/// partitioned by auction, watermark-gated so per-event operator work (the
/// part that shards across workers) dominates output rendering (the part
/// that stays on the control thread).
const SHARDED_SQL: &str = "SELECT wend, auction, COUNT(*), SUM(price), MAX(price) \
     FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime), \
     dur => INTERVAL '1' MINUTE) GROUP BY wend, auction EMIT AFTER WATERMARK";

fn run_nexmark_sharded(workers: usize) -> u64 {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    engine
        .attach_partitioned_source(Box::new(PartitionedNexmarkSource::seeded(
            7,
            N_SHARDED as u64,
            SHARDED_PARTS,
        )))
        .unwrap();
    let mut pipeline = engine
        .run_sharded_pipeline(SHARDED_SQL, ShardedConfig::new(workers))
        .unwrap();
    pipeline.run().unwrap().events_in
}

fn bench_ingest(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("onesql_ingest_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("bids.csv");
    let mut f = std::fs::File::create(&csv).unwrap();
    for i in 0..N as i64 {
        writeln!(f, "{},{},item{}", Ts(i).millis(), i % 100, i % 7).unwrap();
    }
    f.flush().unwrap();
    drop(f);

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("channel", |b| {
        b.iter(|| assert_eq!(run_channel(), N as u64))
    });
    group.bench_function("csv_file", |b| {
        b.iter(|| assert_eq!(run_csv(&csv), N as u64))
    });
    group.bench_function("nexmark", |b| {
        b.iter(|| assert_eq!(run_nexmark(), N as u64))
    });
    group.bench_function("net_loopback", |b| {
        b.iter(|| assert_eq!(run_net_loopback(), N as u64))
    });
    group.finish();

    // Sharded driver scaling: the same 4-partition NEXMark source and
    // windowed aggregate, on 1 vs 4 worker shards. The 4-worker variant
    // should sustain >= 2x the 1-worker throughput.
    let mut group = c.benchmark_group("ingest_sharded");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N_SHARDED as u64));
    for workers in [1usize, 4] {
        group.bench_function(format!("nexmark_4p_{workers}w"), |b| {
            b.iter(|| assert_eq!(run_nexmark_sharded(workers), N_SHARDED as u64))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);

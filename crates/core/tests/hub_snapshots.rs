//! The metrics hub follows a labelled pipeline round by round: after
//! every `step()` the hub holds a snapshot of the pipeline whose sequence
//! number is exactly one past the previous publication, and whose
//! metrics equal the driver's own `metrics()`. Covered for the plain
//! driver and for the sharded driver at one worker (inline) and at two
//! (worker threads).
//!
//! Hub sequence numbers are process-wide, so this file holds a single
//! test: nothing else in its process publishes while it counts.

use std::collections::VecDeque;

use onesql_core::connect::{
    PartitionedVec, PipelineDriver, PipelineMetrics, Source, SourceBatch, SourceEvent, SourceStatus,
};
use onesql_core::observe::hub;
use onesql_core::{Engine, ShardedConfig, ShardedPipelineDriver, StreamBuilder};
use onesql_tvr::Change;
use onesql_types::{row, DataType, Result, Ts};

/// Bids, one per poll, each followed by a watermark just behind it.
struct Bids {
    name: String,
    streams: Vec<String>,
    left: VecDeque<(i64, i64)>,
}

impl Bids {
    fn new(name: &str, offset_ms: i64, n: i64) -> Bids {
        Bids {
            name: name.to_string(),
            streams: vec!["Bid".to_string()],
            left: (0..n).map(|i| (i * 700 + offset_ms, i % 3)).collect(),
        }
    }
}

impl Source for Bids {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, _max_events: usize) -> Result<SourceBatch> {
        let Some((ms, item)) = self.left.pop_front() else {
            return Ok(SourceBatch::empty(SourceStatus::Finished));
        };
        let mut batch = SourceBatch::empty(SourceStatus::Ready);
        batch.events.push(SourceEvent {
            stream: 0,
            ptime: Ts(ms),
            change: Change::insert(row!(item, Ts(ms))),
        });
        batch.watermark = Some(Ts(ms - 1));
        Ok(batch)
    }
}

const SQL: &str = "SELECT wend, item, COUNT(*) FROM Tumble(data => TABLE(Bid), \
     timecol => DESCRIPTOR(bidtime), dur => INTERVAL '2' SECOND) \
     GROUP BY wend, item EMIT STREAM";

fn bid_engine() -> Engine {
    let mut engine = Engine::new();
    engine.register_stream(
        "Bid",
        StreamBuilder::new()
            .column("item", DataType::Int)
            .event_time_column("bidtime"),
    );
    engine
}

/// The highest sequence number the hub has handed out so far.
fn last_seq() -> u64 {
    hub().snapshots().iter().map(|s| s.seq).max().unwrap_or(0)
}

/// What [`follow`] needs of a driver.
trait Driver {
    fn step(&mut self);
    fn metrics(&mut self) -> &PipelineMetrics;
    fn finished(&self) -> bool;
}

impl Driver for PipelineDriver {
    fn step(&mut self) {
        PipelineDriver::step(self).unwrap();
    }
    fn metrics(&mut self) -> &PipelineMetrics {
        PipelineDriver::metrics(self)
    }
    fn finished(&self) -> bool {
        self.is_finished()
    }
}

impl Driver for ShardedPipelineDriver {
    fn step(&mut self) {
        ShardedPipelineDriver::step(self).unwrap();
    }
    fn metrics(&mut self) -> &PipelineMetrics {
        ShardedPipelineDriver::metrics(self)
    }
    fn finished(&self) -> bool {
        self.is_finished()
    }
}

/// Step `driver` until it finishes, checking the hub after every round
/// against the driver's own metrics. Returns the rounds run.
fn follow(label: &str, driver: &mut impl Driver) -> u64 {
    let mut seq = last_seq();
    let mut rounds = 0;
    loop {
        driver.step();
        rounds += 1;
        let snapshot = hub().latest(label).expect("a labelled round publishes");
        let context = format!("{label} round {rounds}");
        assert_eq!(snapshot.seq, seq + 1, "{context}: one publication");
        assert_eq!(snapshot.metrics, *driver.metrics(), "{context}");
        assert_eq!(snapshot.finished, driver.finished(), "{context}");
        assert_eq!(snapshot.metrics.rounds, rounds, "{context}");
        assert_eq!(snapshot.metrics.sources.len(), 1, "{context}");
        seq = snapshot.seq;
        if driver.finished() {
            return rounds;
        }
    }
}

#[test]
fn hub_snapshot_follows_every_round() {
    let mut engine = bid_engine();
    engine
        .attach_source(Box::new(Bids::new("bids", 0, 12)))
        .unwrap();
    let mut plain = engine.run_pipeline(SQL).unwrap();
    plain.set_label("hub_follow_plain");
    let rounds = follow("hub_follow_plain", &mut plain);
    assert!(rounds > 12, "one round per event, then the finishing one");

    for workers in [1, 2] {
        let label = format!("hub_follow_sharded_{workers}w");
        let mut engine = bid_engine();
        let parts = vec![Bids::new("p0", 0, 12), Bids::new("p1", 350, 12)];
        engine
            .attach_partitioned_source(Box::new(PartitionedVec::new("bids", parts).unwrap()))
            .unwrap();
        let mut sharded = engine
            .run_sharded_pipeline(SQL, ShardedConfig::new(workers))
            .unwrap();
        sharded.set_label(label.as_str());
        let rounds = follow(&label, &mut sharded);
        assert!(rounds > 12, "{label}");
    }
}

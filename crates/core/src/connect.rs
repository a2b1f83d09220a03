//! The connector runtime: pluggable [`Source`]s / [`Sink`]s and the
//! [`PipelineDriver`] that pumps them through a running query.
//!
//! The paper's engines (§7–§8, Appendix B) consume time-varying relations
//! from external connectors — Kafka topics, file sets — and materialize
//! results back out through sinks. This module is the single-process
//! version of that boundary layer:
//!
//! - A [`Source`] produces **batches** of `(ptime, change)` events for one
//!   or more named streams, each batch optionally carrying a watermark
//!   assertion, and reports a [`SourceStatus`] (ready / idle / finished)
//!   the driver uses for backpressure-aware scheduling.
//! - A [`Sink`] consumes the query's output changelog, rendered as
//!   [`StreamRow`]s (Extension 4's `undo` / `ptime` / `ver` encoding), plus
//!   output-watermark notifications.
//! - The [`PipelineDriver`] round-robins over sources, feeds a
//!   [`RunningQuery`], propagates **monotone** per-stream watermarks (the
//!   min over all sources feeding a stream, delivered only when it
//!   advances), keeps output buffering bounded, and accounts everything in
//!   [`PipelineMetrics`].
//!
//! Concrete connectors (CSV / JSON-lines files, in-memory channels, the
//! NEXMark generator, network endpoints, changelog renderers) live in the
//! `onesql-connect` crate; this module holds only the traits and the
//! driver so the engine can expose [`Engine::attach_source`] /
//! [`Engine::run_pipeline`] without a dependency cycle.
//!
//! # Example
//!
//! A source is just a type that hands the driver batches; here a scripted
//! three-event stream runs through a filter query end to end:
//!
//! ```
//! use onesql_core::connect::{Source, SourceBatch, SourceEvent, SourceStatus};
//! use onesql_core::{Engine, StreamBuilder};
//! use onesql_tvr::Change;
//! use onesql_types::{row, DataType, Result, Ts};
//!
//! struct Bids(Vec<(i64, i64)>, Vec<String>);
//!
//! impl Source for Bids {
//!     fn name(&self) -> &str {
//!         "bids"
//!     }
//!     fn streams(&self) -> &[String] {
//!         &self.1
//!     }
//!     fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
//!         let take = max_events.min(self.0.len());
//!         let mut batch = SourceBatch::empty(SourceStatus::Ready);
//!         for (i, (auction, price)) in self.0.drain(..take).enumerate() {
//!             let ptime = Ts(i as i64);
//!             batch.events.push(SourceEvent {
//!                 stream: 0,
//!                 ptime,
//!                 change: Change::insert(row!(auction, price, ptime)),
//!             });
//!         }
//!         if self.0.is_empty() {
//!             batch.status = SourceStatus::Finished;
//!         }
//!         Ok(batch)
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.register_stream(
//!     "Bid",
//!     StreamBuilder::new()
//!         .column("auction", DataType::Int)
//!         .column("price", DataType::Int)
//!         .event_time_column("bidtime"),
//! );
//! let script = Bids(vec![(1, 3), (2, 11), (1, 7)], vec!["Bid".to_string()]);
//! engine.attach_source(Box::new(script)).unwrap();
//! let mut driver = engine
//!     .run_pipeline("SELECT auction, price FROM Bid WHERE price > 5")
//!     .unwrap();
//! let metrics = driver.run().unwrap();
//! assert_eq!(metrics.events_in, 3);
//! assert_eq!(metrics.events_out, 2);
//! ```
//!
//! [`Engine::attach_source`]: crate::Engine::attach_source
//! [`Engine::run_pipeline`]: crate::Engine::run_pipeline

use std::collections::BTreeMap;

use onesql_exec::StreamRow;
use onesql_time::{Watermark, WatermarkTracker};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{Duration, Error, Result, Ts, Value};

use crate::observe::{self, Histogram, MetricRow, Stopwatch};
use crate::query::RunningQuery;

pub mod registry;

pub use registry::{
    AnySource, ConnectorRegistry, Exports, OptionBag, SinkConnector, SinkSpec, SourceConnector,
    SourceSpec,
};

/// What a source reports after a poll; drives the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceStatus {
    /// More data may be immediately available: poll again soon.
    Ready,
    /// No data right now, but the source is not done (e.g. an in-memory
    /// channel whose producers are still alive). The driver backs off.
    #[default]
    Idle,
    /// The source will never produce again; its streams get final
    /// watermarks once every source feeding them has finished.
    Finished,
}

/// One event from a source: a change to one of its declared streams at a
/// processing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEvent {
    /// Index into the source's [`Source::streams`] list.
    pub stream: usize,
    /// Processing time of arrival. The driver clamps these to be monotone
    /// across all sources (the executor's clock may not regress).
    pub ptime: Ts,
    /// The row change (insert, retract, or weighted).
    pub change: Change,
}

/// A batch of events plus optional progress information.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceBatch {
    /// The events, in the source's processing-time order.
    pub events: Vec<SourceEvent>,
    /// If set, asserts that all future events from this source have event
    /// timestamps strictly greater than this value (for every stream the
    /// source feeds).
    pub watermark: Option<Ts>,
    /// Scheduling hint for the driver.
    pub status: SourceStatus,
    /// Causal trace context: the producer-side span ID these events were
    /// emitted under (carried across the OSQW wire by the `net` source),
    /// or `None` for local sources. The driver parents its ingest span
    /// here, stitching producer and consumer pipelines into one trace.
    pub trace_parent: Option<u64>,
}

impl SourceBatch {
    /// An empty batch with the given status.
    pub fn empty(status: SourceStatus) -> SourceBatch {
        SourceBatch {
            events: Vec::new(),
            watermark: None,
            status,
            trace_parent: None,
        }
    }
}

/// A columnar batch of changes for one stream, plus the same progress
/// information a [`SourceBatch`] carries. The columnar analog of
/// [`SourceBatch`] for sources that parse input directly into columns
/// (e.g. chunked CSV), skipping per-row materialization entirely.
///
/// Ptimes must be monotone non-decreasing within the batch (clamp to a
/// running max while building); the driver applies its global clock
/// clamp on top via [`ChangeBatch::clamp_ptimes`].
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    /// Index into the source's [`Source::streams`] list.
    pub stream: usize,
    /// The changes, already columnar.
    pub columns: ChangeBatch,
    /// Same meaning as [`SourceBatch::watermark`].
    pub watermark: Option<Ts>,
    /// Same meaning as [`SourceBatch::status`].
    pub status: SourceStatus,
}

/// A pluggable input connector.
pub trait Source {
    /// Connector instance name (for metrics and errors).
    fn name(&self) -> &str;

    /// The engine stream names this source feeds. [`SourceEvent::stream`]
    /// indexes into this list. Most sources feed exactly one stream; the
    /// NEXMark source feeds three.
    fn streams(&self) -> &[String];

    /// Produce up to `max_events` events. Must not block; a source with
    /// nothing buffered returns an empty batch with status
    /// [`SourceStatus::Idle`] (or `Finished`).
    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch>;

    /// Columnar poll: sources that can produce changes already in
    /// columnar form override this to return `Some`, and the driver feeds
    /// the batch straight into the vectorized executor path without
    /// materializing rows. `None` (the default) means "use
    /// [`Source::poll_batch`]". A vectorizing driver calls this *instead
    /// of* `poll_batch` each round, so an override must carry the same
    /// watermark/status progress a row batch would; a driver with
    /// vectorization disabled never calls it.
    fn poll_columns(&mut self, _max_events: usize) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }
}

/// A Kafka-style input connector: N ordered partitions, each with a
/// replayable offset and its own watermark progress.
///
/// Partitions are the unit of parallel ingestion *and* of recovery: the
/// sharded driver polls them independently, combines their watermarks as
/// the min (the way [`WatermarkTracker`] combines ports), and records one
/// offset per partition in a [`crate::shard::PipelineCheckpoint`] so a
/// killed pipeline can seek back and resume exactly-once.
///
/// Offsets count events: the offset of a partition is the number of events
/// it has emitted so far, and [`PartitionedSource::seek`] repositions so
/// the next event emitted is the `offset`-th. A source is **replayable**
/// when a freshly constructed instance re-emits the same events in the
/// same order (files, seeded generators); only replayable sources can
/// honor a seek, which is why the in-memory channel shards override
/// [`PartitionedSource::seek`] to reject time travel.
pub trait PartitionedSource {
    /// Connector instance name (for metrics and errors).
    fn name(&self) -> &str;

    /// The engine stream names this source feeds; [`SourceEvent::stream`]
    /// indexes into this list (shared by all partitions).
    fn streams(&self) -> &[String];

    /// Number of partitions; fixed for the life of the source.
    fn partitions(&self) -> usize;

    /// Produce up to `max_events` events from one partition. Must not
    /// block; semantics otherwise match [`Source::poll_batch`], applied
    /// per partition (a partition's events are in its own processing-time
    /// order, its watermark asserts only its own future events).
    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch>;

    /// The partition's replayable position: events emitted so far.
    fn offset(&self, partition: usize) -> u64;

    /// Reposition `partition` so the next event emitted is the `offset`-th.
    ///
    /// The default implementation replays via [`replay_seek`]: it polls
    /// the partition and discards events until the offset is reached,
    /// which is correct for any freshly constructed replayable source.
    /// Seeking backwards from the current position errors.
    fn seek(&mut self, partition: usize, offset: u64) -> Result<()> {
        replay_seek(self, partition, offset)
    }

    /// The offset-acknowledge half of the checkpoint handshake: the driver
    /// durably recorded `offset` as `partition`'s resume position, so the
    /// source may release any replay resources held for earlier events.
    ///
    /// Local sources replay from their own backing data (files, seeded
    /// generators) and ignore acks — the default is a no-op. A source
    /// whose upstream lives in **another process** forwards the ack over
    /// the wire so the remote producer can trim its bounded replay spool;
    /// everything the producer still holds is exactly what a
    /// [`crate::shard::PipelineCheckpoint`] restore could ask it to
    /// re-send. The sharded driver calls this from
    /// [`crate::shard::ShardedPipelineDriver::ack_checkpoint`] (invoked
    /// by the caller once a checkpoint is durably stored — never before,
    /// or a crash could strand every restorable state) and once more
    /// when the pipeline finishes.
    fn ack(&mut self, _partition: usize, _offset: u64) -> Result<()> {
        Ok(())
    }
}

/// Seek a partition forward by replaying: poll and discard events until
/// `offset` is reached. This is [`PartitionedSource::seek`]'s default
/// body, exposed so adapters that override `seek` (e.g. to refuse
/// non-replayable time travel, or to replay only conditionally) can still
/// fall back to it.
///
/// Correct for any freshly constructed replayable source. Seeking
/// backwards from the current position errors, as does exhausting the
/// partition before the target offset.
pub fn replay_seek<S: PartitionedSource + ?Sized>(
    source: &mut S,
    partition: usize,
    offset: u64,
) -> Result<()> {
    let at = source.offset(partition);
    if offset < at {
        return Err(Error::exec(format!(
            "source '{}' partition {partition}: cannot seek backwards \
             (at offset {at}, asked for {offset})",
            source.name()
        )));
    }
    let mut remaining = offset - at;
    while remaining > 0 {
        let batch = source.poll_partition(partition, remaining.min(4096) as usize)?;
        let n = batch.events.len() as u64;
        if n == 0 {
            return Err(Error::exec(format!(
                "source '{}' partition {partition}: exhausted at offset {} \
                 while seeking to {offset}",
                source.name(),
                offset - remaining
            )));
        }
        if n > remaining {
            // A poll must not over-deliver; past this point the source
            // has been dragged beyond the target offset.
            return Err(Error::exec(format!(
                "source '{}' partition {partition}: poll returned {n} events \
                 when at most {remaining} were requested; seek overshot {offset}",
                source.name()
            )));
        }
        remaining -= n;
    }
    Ok(())
}

/// Adapts any [`Source`] into a 1-partition [`PartitionedSource`], so
/// existing connectors work unchanged with the sharded driver. The single
/// partition's offset counts the events polled; seeking uses the default
/// replay-and-discard, so resume works for replayable sources (files,
/// generators) without those connectors knowing about partitions.
pub struct SinglePartition {
    inner: Box<dyn Source>,
    polled: u64,
}

impl SinglePartition {
    /// Wrap `source` as a partitioned source with one partition.
    pub fn new(source: Box<dyn Source>) -> SinglePartition {
        SinglePartition {
            inner: source,
            polled: 0,
        }
    }
}

impl PartitionedSource for SinglePartition {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn streams(&self) -> &[String] {
        self.inner.streams()
    }

    fn partitions(&self) -> usize {
        1
    }

    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        debug_assert_eq!(partition, 0);
        let batch = self.inner.poll_batch(max_events)?;
        self.polled += batch.events.len() as u64;
        Ok(batch)
    }

    fn offset(&self, partition: usize) -> u64 {
        debug_assert_eq!(partition, 0);
        self.polled
    }
}

/// Folds N independent per-partition [`Source`]s into one
/// [`PartitionedSource`], owning the `Vec<inner>` + per-partition offset
/// bookkeeping every partitioned connector otherwise hand-rolls.
///
/// The file, channel, NEXMark, and network connector families all have the
/// same shape — partition `p` is a self-contained single-stream source
/// (one file, one channel shard, one seeded generator, one accepted
/// connection) — and differ only in how (whether) a partition can be
/// repositioned:
///
/// - **Replayable** inners (files, generators): the default, seeks via
///   [`replay_seek`].
/// - **Non-replayable** inners (in-memory channels): construct with
///   [`PartitionedVec::non_replayable`]; any seek away from the current
///   offset errors instead of silently dropping events.
/// - **Custom** repositioning (the network source's resume handshake):
///   wrap `PartitionedVec` and override [`PartitionedSource::seek`] /
///   [`PartitionedSource::ack`], keeping the offset books straight with
///   [`PartitionedVec::set_offset`].
///
/// Every inner must declare the same stream list; the adapter exposes it
/// once for all partitions.
pub struct PartitionedVec<S: Source> {
    name: String,
    streams: Vec<String>,
    parts: Vec<S>,
    offsets: Vec<u64>,
    replayable: bool,
}

impl<S: Source> PartitionedVec<S> {
    /// Adapt `parts` (one inner source per partition, all feeding the same
    /// streams) under the connector instance name `name`. Errors when
    /// `parts` is empty or the inners disagree on their stream lists.
    pub fn new(name: impl Into<String>, parts: Vec<S>) -> Result<PartitionedVec<S>> {
        let name = name.into();
        let Some(first) = parts.first() else {
            return Err(Error::plan(format!(
                "partitioned source '{name}' needs at least one partition"
            )));
        };
        let streams = first.streams().to_vec();
        for (p, part) in parts.iter().enumerate() {
            if part.streams() != streams.as_slice() {
                return Err(Error::plan(format!(
                    "partitioned source '{name}': partition {p} declares streams \
                     {:?}, partition 0 declares {streams:?}",
                    part.streams()
                )));
            }
        }
        Ok(PartitionedVec {
            name,
            streams,
            offsets: vec![0; parts.len()],
            parts,
            replayable: true,
        })
    }

    /// Mark the partitions as non-replayable: seeks anywhere but the
    /// current offset error (resume requires a replayable source), instead
    /// of replay-and-discard silently eating events that exist nowhere
    /// else. Use for in-memory inners whose history is gone once polled.
    pub fn non_replayable(mut self) -> PartitionedVec<S> {
        self.replayable = false;
        self
    }

    /// Borrow partition `p`'s inner source.
    pub fn part(&self, p: usize) -> &S {
        &self.parts[p]
    }

    /// Mutably borrow partition `p`'s inner source, for wrappers layering
    /// custom seek/ack behavior over the adapter.
    pub fn part_mut(&mut self, p: usize) -> &mut S {
        &mut self.parts[p]
    }

    /// Overwrite partition `p`'s recorded offset. Only for wrappers whose
    /// custom [`PartitionedSource::seek`] repositions the inner source by
    /// means the adapter cannot observe (e.g. a network resume handshake);
    /// the books must always equal the number of events the partition will
    /// have emitted before its next one.
    pub fn set_offset(&mut self, p: usize, offset: u64) {
        self.offsets[p] = offset;
    }
}

impl<S: Source> PartitionedSource for PartitionedVec<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn partitions(&self) -> usize {
        self.parts.len()
    }

    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        let batch = self.parts[partition].poll_batch(max_events)?;
        self.offsets[partition] += batch.events.len() as u64;
        Ok(batch)
    }

    fn offset(&self, partition: usize) -> u64 {
        self.offsets[partition]
    }

    fn seek(&mut self, partition: usize, offset: u64) -> Result<()> {
        if self.replayable {
            return replay_seek(self, partition, offset);
        }
        if offset == self.offsets[partition] {
            return Ok(());
        }
        Err(Error::exec(format!(
            "{}: partition {partition} is not replayable (at offset {}, \
             asked for {offset}); resume requires a replayable source",
            self.name, self.offsets[partition]
        )))
    }
}

/// A pluggable output connector. Receives the query's output changelog as
/// [`StreamRow`]s: data columns plus `undo` / `ptime` / `ver` metadata.
pub trait Sink {
    /// Connector instance name (for metrics and errors).
    fn name(&self) -> &str;

    /// Called once at attach time with the query's output schema (e.g. to
    /// write a CSV header or learn JSON field names). Default: ignore.
    fn bind(&mut self, _schema: onesql_types::SchemaRef) -> Result<()> {
        Ok(())
    }

    /// Consume a slice of newly materialized output rows.
    fn write(&mut self, rows: &[StreamRow]) -> Result<()>;

    /// The query's output watermark advanced. Default: ignore.
    fn on_watermark(&mut self, _wm: Watermark) -> Result<()> {
        Ok(())
    }

    /// A checkpoint barrier passed: everything written so far belongs to
    /// `epoch`. Transactional sinks durably stage the association *now*
    /// (before the checkpoint itself is persisted), so a restore of
    /// `epoch` can later discard exactly the bytes written after it.
    /// Default: ignore — non-transactional sinks need no two-phase story.
    fn on_checkpoint(&mut self, _epoch: u64) -> Result<()> {
        Ok(())
    }

    /// Checkpoint `epoch` is durable (the second phase, driven by
    /// `ack_checkpoint`): the sink may mark the staged rows committed and
    /// release resources held for older epochs. Default: ignore.
    fn commit_checkpoint(&mut self, _epoch: u64) -> Result<()> {
        Ok(())
    }

    /// The pipeline is being restored from checkpoint `epoch` in a fresh
    /// process: discard any staged output written after that epoch (the
    /// replay will regenerate it), positioning the sink exactly where the
    /// uninterrupted run had it. Default: ignore.
    fn on_restore(&mut self, _epoch: u64) -> Result<()> {
        Ok(())
    }

    /// The pipeline finished; flush buffers. Default: nothing.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Bounds and thresholds for adaptive batch sizing (backpressure beyond
/// polling): the driver shrinks its per-poll batches while materialization
/// trails ingestion and grows them while the query keeps up, instead of
/// buffering unboundedly behind a fixed poll size.
///
/// Caveat: in this runtime every round is a barrier (all delivered input
/// is fully processed before lag is measured), so watermark lag mostly
/// reflects the query's *shape* — gates and `EMIT AFTER DELAY` hold the
/// output watermark behind the input by a structural event-time offset —
/// rather than instantaneous load. The thresholds are therefore
/// deliberately coarse: `high_lag` defaults well above common window /
/// delay offsets so structurally-lagging queries are not pinned to
/// `min_batch`, and either way the controller only modulates poll size
/// within hard bounds; it never affects results. Drivers that *can*
/// measure real queued work — the sharded driver's pending merge-buffer
/// depth — feed it through [`BatchController::observe_load`], which
/// prefers that load-proportional signal and falls back to watermark lag
/// only when no depth reading is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBatch {
    /// Batches never shrink below this (progress is always possible).
    pub min_batch: usize,
    /// Batches never grow beyond this (bounds per-round latency).
    pub max_batch: usize,
    /// Watermark lag at or above which the batch size halves.
    pub high_lag: Duration,
    /// Watermark lag at or below which the batch size doubles.
    pub low_lag: Duration,
    /// Pending merge-buffer depth (entries) at or above which the batch
    /// size halves. An absolute bound, not a per-size ratio: the buffer's
    /// steady-state content scales with the batch size itself, so only an
    /// absolute threshold turns depth into backpressure (see
    /// [`BatchController::observe_load`]).
    pub high_pending: usize,
    /// Pending merge-buffer depth at or below which the batch size
    /// doubles.
    pub low_pending: usize,
}

impl Default for AdaptiveBatch {
    fn default() -> AdaptiveBatch {
        AdaptiveBatch {
            min_batch: 32,
            max_batch: 4096,
            high_lag: Duration::from_minutes(30),
            low_lag: Duration::from_seconds(1),
            high_pending: 32_768,
            low_pending: 4_096,
        }
    }
}

/// Driver tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Events requested from a source per poll; the *initial* size when
    /// [`DriverConfig::adaptive`] is set.
    pub batch_size: usize,
    /// Drain output to sinks whenever at least this many changes are
    /// pending (output is always drained at the end of a scheduling round,
    /// so this bounds in-flight buffering *within* a round).
    pub max_inflight: usize,
    /// Give up after this many consecutive all-idle rounds in
    /// [`PipelineDriver::run`] (`None`: yield and keep spinning, for
    /// channel sources fed by other threads).
    pub max_idle_rounds: Option<u64>,
    /// Adaptive batch sizing from watermark lag; `None` pins
    /// [`DriverConfig::batch_size`] for the whole run.
    pub adaptive: Option<AdaptiveBatch>,
    /// Feed consecutive same-stream events as columnar
    /// [`ChangeBatch`]es when the query's operator
    /// tree supports it (the vectorized hot path). Results are byte-identical
    /// either way; disable to force the per-row oracle (e.g. for A/B
    /// benchmarking).
    pub vectorize: bool,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            batch_size: 256,
            max_inflight: 1024,
            max_idle_rounds: None,
            adaptive: Some(AdaptiveBatch::default()),
            vectorize: true,
        }
    }
}

/// The adaptive batch-size controller, isolated from the driver so its
/// policy is unit-testable: one [`BatchController::observe`] per scheduling
/// round with the current [`PipelineMetrics::watermark_lag`].
///
/// Policy: multiplicative decrease when materialization trails ingestion
/// past `high_lag` (halve, floored at `min_batch`), multiplicative increase
/// when the query keeps up within `low_lag` (double, capped at
/// `max_batch`), hold otherwise or when no lag is measurable yet. The
/// configured initial size is honored as-is; bounds apply to adjustments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchController {
    size: usize,
    policy: Option<AdaptiveBatch>,
}

impl BatchController {
    /// A controller starting from the config's batch size.
    pub fn new(config: &DriverConfig) -> BatchController {
        BatchController {
            size: config.batch_size.max(1),
            policy: config.adaptive,
        }
    }

    /// The batch size to use for the next poll.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Force the current size (used when restoring a checkpoint, so a
    /// resumed pipeline polls exactly as the uninterrupted run would).
    pub fn set_size(&mut self, size: usize) {
        self.size = size.max(1);
    }

    /// Feed one round's watermark lag; returns the (possibly adjusted)
    /// size for the next round. Equivalent to
    /// [`BatchController::observe_load`] with no depth reading.
    pub fn observe(&mut self, lag: Option<Duration>) -> usize {
        self.observe_load(None, lag)
    }

    /// Feed one round's load signals; returns the (possibly adjusted)
    /// size for the next round.
    ///
    /// Signal choice: `pending` is the depth of the driver's merge buffer
    /// — output the workers already produced that the deterministic merge
    /// has not yet been able to release to sinks. Unlike watermark lag
    /// (which, under barrier-per-round scheduling, mostly encodes the
    /// query's structural event-time offset — see [`AdaptiveBatch`]),
    /// depth measures real queued work in entries of real memory. So when
    /// a depth reading is present it drives the policy and lag is
    /// ignored; lag is the fallback for drivers with no merge buffer to
    /// measure.
    ///
    /// The depth thresholds are **absolute** (`high_pending` /
    /// `low_pending` entries), deliberately not ratios of the current
    /// batch size: the buffer's steady-state content — the clock-tie
    /// cohort the deterministic merge must hold back every round — itself
    /// grows with the batch size, so a relative threshold would cancel
    /// out and never move. Absolute bounds make the controller an AIMD
    /// loop on in-flight merge memory: grow while the buffer stays small,
    /// back off when it crosses the bound (deep hold-back, stalled
    /// clock), whatever the reason.
    pub fn observe_load(&mut self, pending: Option<usize>, lag: Option<Duration>) -> usize {
        let Some(policy) = self.policy else {
            return self.size;
        };
        if let Some(depth) = pending {
            if depth >= policy.high_pending {
                self.size = (self.size / 2).max(policy.min_batch).max(1);
            } else if depth <= policy.low_pending {
                self.size = (self.size * 2).min(policy.max_batch.max(1));
            }
        } else if let Some(lag) = lag {
            if lag >= policy.high_lag {
                self.size = (self.size / 2).max(policy.min_batch).max(1);
            } else if lag <= policy.low_lag {
                self.size = (self.size * 2).min(policy.max_batch.max(1));
            }
        }
        self.size
    }
}

/// Per-source accounting.
#[derive(Debug, PartialEq, Eq)]
pub struct SourceMetrics {
    /// Connector instance name.
    pub name: String,
    /// Events fed into the query from this source.
    pub events: u64,
    /// Estimated payload bytes fed from this source (see
    /// [`change_bytes`]).
    pub bytes: u64,
    /// Polls that returned at least one event.
    pub non_empty_polls: u64,
    /// The source's current watermark assertion.
    pub watermark: Watermark,
    /// Whether the source has finished.
    pub finished: bool,
}

impl Clone for SourceMetrics {
    fn clone(&self) -> SourceMetrics {
        SourceMetrics {
            name: self.name.clone(),
            ..*self
        }
    }

    /// Reuses this value's `name` buffer.
    fn clone_from(&mut self, source: &SourceMetrics) {
        let mut name = std::mem::take(&mut self.name);
        name.clone_from(&source.name);
        *self = SourceMetrics { name, ..*source };
    }
}

/// Set `sources[i]` to `fresh` (built with an empty `name`) named `name`,
/// or append it when `i` is one past the end. An existing entry keeps its
/// name buffer: how both drivers refresh their per-source metrics every
/// round without allocating.
pub(crate) fn refresh_source(
    sources: &mut Vec<SourceMetrics>,
    i: usize,
    name: &str,
    fresh: SourceMetrics,
) {
    match sources.get_mut(i) {
        Some(entry) => entry.clone_from(&fresh),
        None => sources.push(fresh),
    }
    sources[i].name.push_str(name);
}

/// The error for a `retain_table()` call that comes after the pipeline
/// already handed output to its sinks.
pub(crate) fn retain_too_late() -> Error {
    Error::plan("retain_table() must be called before the pipeline's first step")
}

/// Estimated payload size of one change, in bytes: 8 per fixed-width value
/// (int, float, timestamp, interval), 1 per null/bool, string length for
/// strings. A stable, cheap estimator — not a wire format — so byte
/// counters mean the same thing on every connector and survive checkpoints
/// deterministically.
pub fn change_bytes(change: &Change) -> u64 {
    change
        .row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null | Value::Bool(_) => 1u64,
            Value::Int(_) | Value::Float(_) | Value::Ts(_) | Value::Interval(_) => 8,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// Pipeline-wide accounting, readable at any time via
/// [`PipelineDriver::metrics`].
#[derive(Debug, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Total events fed into the query.
    pub events_in: u64,
    /// Total output rows delivered to sinks.
    pub events_out: u64,
    /// Estimated payload bytes fed into the query (sum over sources).
    pub bytes_in: u64,
    /// Watermark deliveries into the query.
    pub watermarks_in: u64,
    /// Completed scheduling rounds.
    pub rounds: u64,
    /// Rounds in which no source produced anything.
    pub idle_rounds: u64,
    /// Rounds that fed at least one columnar batch (the vectorized path).
    pub vectorized_rounds: u64,
    /// Rounds that fed at least one event per-row (stream doesn't
    /// vectorize, single-event runs, or mixed-arity runs).
    pub fallback_rounds: u64,
    /// Rows per columnar batch fed to the query (vectorized path only).
    pub batch_rows: Histogram,
    /// The batch size the adaptive controller chose for the next poll.
    pub batch_size: usize,
    /// Depth of the sharded driver's deterministic-merge hold-back buffer
    /// (0 for the plain driver, which has no merge buffer).
    pub pending_depth: u64,
    /// Changelog entries the driver's queries still hold after the
    /// round's drain: the whole output under `retain_table()`, otherwise
    /// only what has not reached the sinks yet.
    pub changelog_retained: u64,
    /// Wall-clock per scheduling round, in microseconds.
    pub round_micros: Histogram,
    /// Wall-clock spent polling sources per round, in microseconds.
    pub poll_micros: Histogram,
    /// Wall-clock spent in the deterministic merge/drain of worker output
    /// per round, in microseconds (sharded driver only).
    pub merge_micros: Histogram,
    /// Wall-clock per output render+deliver drain, in microseconds.
    pub emit_micros: Histogram,
    /// Durable checkpoints persisted by this incarnation.
    pub checkpoints: u64,
    /// Epoch of the most recent durable checkpoint (0 before any).
    pub checkpoint_epoch: u64,
    /// Wall-clock per durable checkpoint persist, in microseconds.
    pub checkpoint_persist_micros: Histogram,
    /// Times this incarnation was restored from a checkpoint (0 or 1).
    pub restores: u64,
    /// Per-source breakdown, in attach order.
    pub sources: Vec<SourceMetrics>,
    /// The min over all live sources' watermarks (what the slowest input
    /// asserts about event-time progress).
    pub input_watermark: Watermark,
    /// The query's output watermark.
    pub output_watermark: Watermark,
    /// Per-stream watermark provenance: which feeder holds each stream's
    /// minimum watermark and when it last produced (why the watermark is
    /// where it is). Refreshed with the watermark fields.
    pub watermark_provenance: Vec<WatermarkProvenance>,
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics {
            events_in: 0,
            events_out: 0,
            bytes_in: 0,
            watermarks_in: 0,
            rounds: 0,
            idle_rounds: 0,
            vectorized_rounds: 0,
            fallback_rounds: 0,
            batch_rows: Histogram::new(),
            batch_size: 0,
            pending_depth: 0,
            changelog_retained: 0,
            round_micros: Histogram::new(),
            poll_micros: Histogram::new(),
            merge_micros: Histogram::new(),
            emit_micros: Histogram::new(),
            checkpoints: 0,
            checkpoint_epoch: 0,
            checkpoint_persist_micros: Histogram::new(),
            restores: 0,
            sources: Vec::new(),
            input_watermark: Watermark::MIN,
            output_watermark: Watermark::MIN,
            watermark_provenance: Vec::new(),
        }
    }
}

impl Clone for PipelineMetrics {
    fn clone(&self) -> PipelineMetrics {
        PipelineMetrics {
            sources: self.sources.clone(),
            watermark_provenance: self.watermark_provenance.clone(),
            ..*self
        }
    }

    /// Reuses this value's `sources` and `watermark_provenance` vectors
    /// and their strings: how the metrics hub refreshes a published
    /// snapshot every round without allocating.
    fn clone_from(&mut self, source: &PipelineMetrics) {
        let mut sources = std::mem::take(&mut self.sources);
        let mut watermark_provenance = std::mem::take(&mut self.watermark_provenance);
        sources.clone_from(&source.sources);
        watermark_provenance.clone_from(&source.watermark_provenance);
        *self = PipelineMetrics {
            sources,
            watermark_provenance,
            ..*source
        };
    }
}

impl PipelineMetrics {
    /// Event-time distance between the slowest input's watermark and the
    /// output watermark: how far materialization trails ingestion. `None`
    /// until both watermarks carry real timestamps.
    pub fn watermark_lag(&self) -> Option<onesql_types::Duration> {
        PipelineMetrics::lag_between(self.input_watermark, self.output_watermark)
    }

    /// [`PipelineMetrics::watermark_lag`] on raw watermarks, so drivers
    /// can feed their batch controller each round without rebuilding the
    /// whole metrics struct.
    pub fn lag_between(input: Watermark, output: Watermark) -> Option<onesql_types::Duration> {
        if input == Watermark::MIN || output == Watermark::MIN {
            return None;
        }
        Some(input.ts() - output.ts())
    }

    /// Render these metrics as stable `(name, kind, value)` rows — the one
    /// vocabulary shared by `SHOW PIPELINES`, `EXPLAIN ANALYZE`, and the
    /// `metrics` source connector, so the surfaces can never drift.
    ///
    /// Conventions: durations are microseconds; watermarks are epoch millis
    /// (`i64::MIN` while still [`Watermark::MIN`]); `watermark_lag_ms` is
    /// -1 until both watermarks carry real timestamps. Histograms render as
    /// four rows each: `<name>_count`, `<name>_p50`, `<name>_p99`,
    /// `<name>_max`. Per-source rows are `source.<name>.rows` / `.bytes`
    /// counters and `.watermark_ms` / `.finished` gauges, in attach order.
    pub fn render_rows(&self) -> Vec<MetricRow> {
        fn wm_millis(wm: Watermark) -> i64 {
            if wm == Watermark::MIN {
                i64::MIN
            } else {
                wm.ts().millis()
            }
        }
        fn histogram(rows: &mut Vec<MetricRow>, name: &str, h: &Histogram) {
            rows.push(MetricRow::counter(format!("{name}_count"), h.count()));
            rows.push(MetricRow::gauge(
                format!("{name}_p50"),
                h.p50().min(i64::MAX as u64) as i64,
            ));
            rows.push(MetricRow::gauge(
                format!("{name}_p99"),
                h.p99().min(i64::MAX as u64) as i64,
            ));
            rows.push(MetricRow::gauge(
                format!("{name}_max"),
                h.max().min(i64::MAX as u64) as i64,
            ));
        }

        let mut rows = vec![
            MetricRow::counter("events_in", self.events_in),
            MetricRow::counter("events_out", self.events_out),
            MetricRow::counter("bytes_in", self.bytes_in),
            MetricRow::counter("watermarks_in", self.watermarks_in),
            MetricRow::counter("rounds", self.rounds),
            MetricRow::counter("idle_rounds", self.idle_rounds),
            MetricRow::counter("vectorized_rounds", self.vectorized_rounds),
            MetricRow::counter("fallback_rounds", self.fallback_rounds),
            MetricRow::gauge("batch_size", self.batch_size.min(i64::MAX as usize) as i64),
            MetricRow::gauge(
                "pending_depth",
                self.pending_depth.min(i64::MAX as u64) as i64,
            ),
            MetricRow::gauge(
                "changelog_retained",
                self.changelog_retained.min(i64::MAX as u64) as i64,
            ),
            MetricRow::gauge("input_watermark_ms", wm_millis(self.input_watermark)),
            MetricRow::gauge("output_watermark_ms", wm_millis(self.output_watermark)),
            MetricRow::gauge(
                "watermark_lag_ms",
                self.watermark_lag().map_or(-1, |d| d.millis()),
            ),
        ];
        histogram(&mut rows, "batch_rows", &self.batch_rows);
        histogram(&mut rows, "round_micros", &self.round_micros);
        histogram(&mut rows, "poll_micros", &self.poll_micros);
        histogram(&mut rows, "merge_micros", &self.merge_micros);
        histogram(&mut rows, "emit_micros", &self.emit_micros);
        rows.push(MetricRow::counter("checkpoints", self.checkpoints));
        rows.push(MetricRow::gauge(
            "checkpoint_epoch",
            self.checkpoint_epoch.min(i64::MAX as u64) as i64,
        ));
        histogram(
            &mut rows,
            "checkpoint_persist_micros",
            &self.checkpoint_persist_micros,
        );
        rows.push(MetricRow::counter("restores", self.restores));
        for src in &self.sources {
            rows.push(MetricRow::counter(
                format!("source.{}.rows", src.name),
                src.events,
            ));
            rows.push(MetricRow::counter(
                format!("source.{}.bytes", src.name),
                src.bytes,
            ));
            rows.push(MetricRow::gauge(
                format!("source.{}.watermark_ms", src.name),
                wm_millis(src.watermark),
            ));
            rows.push(MetricRow::gauge(
                format!("source.{}.finished", src.name),
                i64::from(src.finished),
            ));
        }
        for p in &self.watermark_provenance {
            rows.push(MetricRow::gauge(
                format!("wm.{}.holder.{}.watermark_ms", p.stream, p.holder),
                wm_millis(p.holder_watermark),
            ));
            rows.push(MetricRow::gauge(
                format!("wm.{}.holder.{}.last_event_ms", p.stream, p.holder),
                p.holder_last_event.map_or(i64::MIN, |t| t.millis()),
            ));
        }
        rows
    }
}

/// Why a stream's watermark is where it is: the feeder (a source, or one
/// source partition) currently holding the minimum, and when it last
/// produced an event — the answer to "why is my watermark stuck".
#[derive(Debug, PartialEq, Eq)]
pub struct WatermarkProvenance {
    /// Lowercased stream name.
    pub stream: String,
    /// The stream's combined (min over feeders) watermark.
    pub watermark: Watermark,
    /// Label of the feeder holding the minimum, e.g. `bids` or `bids[2]`
    /// (source name, with the partition index for partitioned sources).
    pub holder: String,
    /// The holding feeder's current watermark.
    pub holder_watermark: Watermark,
    /// Processing time of the last event the holder produced, or `None`
    /// if it has produced nothing yet.
    pub holder_last_event: Option<Ts>,
}

impl Clone for WatermarkProvenance {
    fn clone(&self) -> WatermarkProvenance {
        WatermarkProvenance {
            stream: self.stream.clone(),
            holder: self.holder.clone(),
            ..*self
        }
    }

    /// Reuses this value's `stream` and `holder` buffers.
    fn clone_from(&mut self, source: &WatermarkProvenance) {
        let mut stream = std::mem::take(&mut self.stream);
        let mut holder = std::mem::take(&mut self.holder);
        stream.clone_from(&source.stream);
        holder.clone_from(&source.holder);
        *self = WatermarkProvenance {
            stream,
            holder,
            ..*source
        };
    }
}

/// Combines per-feeder watermarks into per-stream deliveries, the way
/// [`WatermarkTracker`] combines operator ports: a stream's watermark is
/// the min over all feeders (sources, or source partitions) feeding it,
/// delivered only when it advances. Shared by [`PipelineDriver`] (one
/// feeder per source) and the sharded driver (one feeder per partition).
///
/// Beyond combining, the ledger keeps *provenance*: which feeder holds
/// each stream's minimum and when that feeder last produced an event
/// ([`WatermarkLedger::provenance`]).
pub(crate) struct WatermarkLedger {
    /// Current watermark per feeder; a finished feeder sits at MAX.
    feeders: Vec<Watermark>,
    /// Human-readable feeder labels, parallel to `feeders`.
    labels: Vec<String>,
    /// Processing time of each feeder's most recent event, if any.
    last_events: Vec<Option<Ts>>,
    /// Per (lowercased) stream: the min-combining tracker and the feeder
    /// index behind each of its ports.
    streams: BTreeMap<String, (WatermarkTracker, Vec<usize>)>,
}

impl WatermarkLedger {
    pub(crate) fn new() -> WatermarkLedger {
        WatermarkLedger {
            feeders: Vec::new(),
            labels: Vec::new(),
            last_events: Vec::new(),
            streams: BTreeMap::new(),
        }
    }

    /// Register a feeder labelled `label` for the given (lowercased)
    /// streams; returns its index. Must be called before any `observe`.
    pub(crate) fn add_feeder(&mut self, label: impl Into<String>, streams: &[String]) -> usize {
        let idx = self.feeders.len();
        self.feeders.push(Watermark::MIN);
        self.labels.push(label.into());
        self.last_events.push(None);
        for stream in streams {
            let (tracker, ports) = self
                .streams
                .entry(stream.clone())
                .or_insert_with(|| (WatermarkTracker::new(0), Vec::new()));
            ports.push(idx);
            *tracker = WatermarkTracker::new(ports.len());
        }
        idx
    }

    /// Record a watermark observation on `feeder`, appending any per-stream
    /// advancement to `advances` as `(stream, combined)` pairs the caller
    /// must deliver.
    pub(crate) fn observe(
        &mut self,
        feeder: usize,
        wm: Watermark,
        advances: &mut Vec<(String, Watermark)>,
    ) {
        if !self.feeders[feeder].advance_to(wm) {
            return;
        }
        let wm = self.feeders[feeder];
        for (stream, (tracker, ports)) in &mut self.streams {
            // A feeder may legally back several ports of one stream (e.g.
            // a source declaring case-variants of a name): update them all,
            // or the untouched port pins the combined watermark at MIN.
            for (port, _) in ports.iter().enumerate().filter(|(_, &f)| f == feeder) {
                if let Some(combined) = tracker.observe(port, wm) {
                    advances.push((stream.clone(), combined));
                }
            }
        }
    }

    /// The feeder's current watermark.
    pub(crate) fn feeder(&self, idx: usize) -> Watermark {
        self.feeders[idx]
    }

    /// All feeder watermarks, for checkpointing.
    pub(crate) fn feeder_watermarks(&self) -> &[Watermark] {
        &self.feeders
    }

    /// The min over all feeders: what the slowest input asserts. Finished
    /// feeders sit at MAX and stop constraining.
    pub(crate) fn input_watermark(&self) -> Watermark {
        self.feeders.iter().copied().min().unwrap_or(Watermark::MIN)
    }

    /// Record that `feeder` produced an event at processing time `ts`
    /// (kept as a running max).
    pub(crate) fn note_event(&mut self, feeder: usize, ts: Ts) {
        let last = &mut self.last_events[feeder];
        *last = Some(last.map_or(ts, |prev| prev.max(ts)));
    }

    /// Per-stream watermark provenance: for each stream, which feeder
    /// currently holds the minimum (first on ties, so the answer is
    /// deterministic) and when it last produced an event.
    pub(crate) fn provenance(&self) -> Vec<WatermarkProvenance> {
        let mut out = Vec::new();
        self.provenance_into(&mut out);
        out
    }

    /// [`WatermarkLedger::provenance`], written over `out` in place so a
    /// per-round refresh reuses its entries' strings.
    pub(crate) fn provenance_into(&self, out: &mut Vec<WatermarkProvenance>) {
        let mut len = 0;
        for (stream, (_, ports)) in &self.streams {
            let Some(&holder) = ports.iter().min_by_key(|&&feeder| self.feeders[feeder]) else {
                continue;
            };
            let fresh = WatermarkProvenance {
                stream: String::new(),
                // The holder is the first minimum, so its watermark is
                // the stream's combined one.
                watermark: self.feeders[holder],
                holder: String::new(),
                holder_watermark: self.feeders[holder],
                holder_last_event: self.last_events[holder],
            };
            match out.get_mut(len) {
                Some(entry) => entry.clone_from(&fresh),
                None => out.push(fresh),
            }
            out[len].stream.push_str(stream);
            out[len].holder.push_str(&self.labels[holder]);
            len += 1;
        }
        out.truncate(len);
    }
}

struct SourceSlot {
    source: Box<dyn Source>,
    /// Lowercased stream names, resolved once at attach time.
    streams: Vec<String>,
    finished: bool,
    events: u64,
    bytes: u64,
    non_empty_polls: u64,
}

/// Pumps N sources through one running query into M sinks.
///
/// Scheduling is round-robin over ready sources with per-poll batches of
/// [`DriverConfig::batch_size`] events; watermark propagation is monotone
/// per stream (see [`PipelineDriver::step`]); output is drained to sinks
/// at least once per round.
pub struct PipelineDriver {
    query: RunningQuery,
    sources: Vec<SourceSlot>,
    sinks: Vec<Box<dyn Sink>>,
    config: DriverConfig,
    controller: BatchController,
    metrics: PipelineMetrics,
    /// Per-source watermark combining and monotone per-stream delivery.
    ledger: WatermarkLedger,
    /// Scratch buffer for ledger advances (avoids per-event allocation).
    advances: Vec<(String, Watermark)>,
    /// Monotone processing-time clock (the executor may not regress).
    clock: Ts,
    /// Output watermark already reported to sinks.
    sink_watermark: Watermark,
    /// Incremental `EMIT STREAM` rendering (shared with
    /// `onesql_exec::render_stream`, so sink-side `ver` numbering cannot
    /// diverge from `RunningQuery::stream_rows`).
    renderer: onesql_exec::StreamRenderer,
    /// When set, the driver publishes a metrics snapshot to the global
    /// [`observe::hub`] under this name after every round.
    label: Option<String>,
    /// When set, every sink-observable event (rows, watermarks, finish)
    /// is also appended here, in sink order.
    tap: Option<crate::history::HistoryTap>,
    /// Per-stream vectorization verdicts, cached after the first run (the
    /// query's tree shape and generators cannot change under the driver).
    vector_ok: BTreeMap<String, bool>,
    finished: bool,
}

impl PipelineDriver {
    /// Wrap an already-running query. Use [`crate::Engine::run_pipeline`]
    /// to build one straight from SQL with attached connectors.
    pub fn new(query: RunningQuery) -> PipelineDriver {
        let ver_cols = onesql_exec::compile::version_columns(query.bound());
        let clock = query.now();
        let config = DriverConfig::default();
        PipelineDriver {
            query,
            sources: Vec::new(),
            sinks: Vec::new(),
            config,
            controller: BatchController::new(&config),
            metrics: PipelineMetrics::default(),
            ledger: WatermarkLedger::new(),
            advances: Vec::new(),
            clock,
            sink_watermark: Watermark::MIN,
            renderer: onesql_exec::StreamRenderer::new(ver_cols),
            label: None,
            tap: None,
            vector_ok: BTreeMap::new(),
            finished: false,
        }
    }

    /// Install a [`crate::history::HistoryTap`]: every sink-observable
    /// event — rendered rows, watermark deliveries, the finish marker —
    /// is also appended to `tap`, in sink order. (The plain driver has no
    /// checkpoint surface, so epoch events never appear here.)
    pub fn set_history_tap(&mut self, tap: crate::history::HistoryTap) {
        self.tap = Some(tap);
    }

    /// Whether `stream` takes the vectorized path, cached per stream.
    fn stream_vectorizes(&mut self, stream: &str) -> bool {
        if let Some(&ok) = self.vector_ok.get(stream) {
            return ok;
        }
        let ok = self.query.vectorizes(stream);
        self.vector_ok.insert(stream.to_string(), ok);
        ok
    }

    /// Name this pipeline on the global [`observe::hub`]: every subsequent
    /// round publishes a [`crate::PipelineSnapshot`] under `label`, which
    /// is what the `metrics` source connector and `SHOW PIPELINES` read.
    /// Unlabelled drivers never touch the hub.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = Some(label.into());
    }

    /// The hub label, if one was set.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    fn publish_snapshot(&mut self) {
        if self.label.is_none() {
            return;
        }
        self.refresh_metrics();
        let label = self.label.as_deref().unwrap_or_default();
        observe::hub().publish(label, self.clock, false, self.finished, &self.metrics);
    }

    /// Replace the driver configuration.
    pub fn with_config(mut self, config: DriverConfig) -> PipelineDriver {
        self.config = config;
        self.controller = BatchController::new(&config);
        self
    }

    /// The batch size the adaptive controller will use for the next poll.
    pub fn current_batch_size(&self) -> usize {
        self.controller.size()
    }

    /// Attach a source. Fails if the source declares no streams, or once
    /// the pipeline has started (the per-stream watermark trackers are
    /// sized at attach time; growing them mid-run would reset delivered
    /// watermark floors).
    pub fn attach_source(&mut self, source: Box<dyn Source>) -> Result<()> {
        if self.metrics.rounds > 0 {
            return Err(Error::plan("attach sources before stepping the pipeline"));
        }
        let streams: Vec<String> = source
            .streams()
            .iter()
            .map(|s| s.to_ascii_lowercase())
            .collect();
        if streams.is_empty() {
            return Err(Error::plan(format!(
                "source '{}' declares no streams",
                source.name()
            )));
        }
        self.ledger.add_feeder(source.name(), &streams);
        self.sources.push(SourceSlot {
            source,
            streams,
            finished: false,
            events: 0,
            bytes: 0,
            non_empty_polls: 0,
        });
        Ok(())
    }

    /// Attach a sink; it is immediately bound to the query's output
    /// schema.
    pub fn attach_sink(&mut self, mut sink: Box<dyn Sink>) -> Result<()> {
        sink.bind(self.query.schema())?;
        self.sinks.push(sink);
        Ok(())
    }

    /// The wrapped query (state metrics, and table views when the
    /// pipeline retains its table — see [`PipelineDriver::retain_table`]).
    pub fn query(&self) -> &RunningQuery {
        &self.query
    }

    /// Keep the query's output changelog after handing it to sinks, so
    /// table views (`query().table()`, `table_at`, `stream_rows`) keep
    /// answering. Without it, emitted output lives only in the sinks and
    /// those views fail with [`Error::NotRetained`] after the first
    /// drain. Must be called before the first step.
    pub fn retain_table(&mut self) -> Result<()> {
        if self.metrics.rounds > 0 || self.finished {
            return Err(retain_too_late());
        }
        self.query.retain_table();
        Ok(())
    }

    /// The driver's monotone processing-time clock: the max ptime of any
    /// event fed so far. `AS OF` probes strictly below it are stable.
    pub fn clock(&self) -> Ts {
        self.clock
    }

    /// Current accounting. Watermark fields are refreshed on access.
    pub fn metrics(&mut self) -> &PipelineMetrics {
        self.refresh_metrics();
        &self.metrics
    }

    /// True once [`PipelineDriver::finish`] ran (all sources exhausted).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    fn refresh_metrics(&mut self) {
        let sources = &mut self.metrics.sources;
        sources.truncate(self.sources.len());
        for (i, s) in self.sources.iter().enumerate() {
            let fresh = SourceMetrics {
                name: String::new(),
                events: s.events,
                bytes: s.bytes,
                non_empty_polls: s.non_empty_polls,
                watermark: self.ledger.feeder(i),
                finished: s.finished,
            };
            refresh_source(sources, i, s.source.name(), fresh);
        }
        self.metrics.input_watermark = self.ledger.input_watermark();
        self.metrics.output_watermark = self.query.output_watermark();
        self.ledger
            .provenance_into(&mut self.metrics.watermark_provenance);
        self.metrics.changelog_retained = self.query.changelog().len() as u64;
    }

    /// Per-stream watermark provenance: which source holds each stream's
    /// minimum watermark and when it last produced an event.
    pub fn watermark_provenance(&self) -> Vec<WatermarkProvenance> {
        self.ledger.provenance()
    }

    /// One scheduling round: poll every unfinished source once (up to
    /// `batch_size` events each), feed the query, propagate watermarks,
    /// and drain output. Returns how many events were ingested; `Ok(0)`
    /// with unfinished sources means everything was idle.
    pub fn step(&mut self) -> Result<usize> {
        if self.finished {
            return Ok(0);
        }
        if observe::enabled() {
            observe::set_thread_pipeline(self.label.as_deref().unwrap_or(""));
        }
        let _round = observe::TraceSpan::root("driver.round");
        let round = Stopwatch::start();
        let batch_size = self.controller.size();
        let mut ingested = 0usize;
        let mut poll_micros = 0u64;
        let mut vectorized_round = false;
        let mut fallback_round = false;
        for slot in 0..self.sources.len() {
            if self.sources[slot].finished {
                continue;
            }
            let poll = Stopwatch::start();
            // Columnar fast path: a source that parses straight into
            // columns (chunked CSV) hands the driver a ready ChangeBatch.
            if self.config.vectorize {
                if let Some(cb) = self.sources[slot].source.poll_columns(batch_size)? {
                    poll_micros = poll_micros.saturating_add(poll.micros());
                    ingested +=
                        self.ingest_columns(slot, cb, &mut vectorized_round, &mut fallback_round)?;
                    self.deliver_advances()?;
                    continue;
                }
            }
            let batch = self.sources[slot].source.poll_batch(batch_size)?;
            poll_micros = poll_micros.saturating_add(poll.micros());
            let had_events = !batch.events.is_empty();
            if had_events {
                self.sources[slot].non_empty_polls += 1;
            }
            // The ingest span parents under the wire-carried producer span
            // when the source supplied one, else under this round.
            let _ingest = (had_events || batch.watermark.is_some()).then(|| {
                observe::TraceSpan::with_parent("driver.ingest", batch.trace_parent.unwrap_or(0))
                    .partition(slot.min(i32::MAX as usize) as i32)
            });
            let mut events = batch.events.into_iter().peekable();
            while let Some(event) = events.next() {
                let stream_idx = event.stream;
                let stream = self.sources[slot]
                    .streams
                    .get(stream_idx)
                    .cloned()
                    .ok_or_else(|| {
                        Error::exec(format!(
                            "source '{}' produced an event for stream index {} \
                                 but declares only {} streams",
                            self.sources[slot].source.name(),
                            stream_idx,
                            self.sources[slot].streams.len()
                        ))
                    })?;
                // Processing time is monotone across the whole pipeline;
                // a source whose clock lags is dragged forward.
                self.clock = self.clock.max(event.ptime);
                // Gather the run of consecutive events for the same stream;
                // clock clamping keeps the run's ptime lane monotone.
                let mut run: Vec<(Ts, Change)> = vec![(self.clock, event.change)];
                if self.config.vectorize && self.stream_vectorizes(&stream) {
                    while let Some(next) = events.next_if(|next| next.stream == stream_idx) {
                        self.clock = self.clock.max(next.ptime);
                        run.push((self.clock, next.change));
                    }
                }
                let run_events = run.len() as u64;
                let run_bytes: u64 = run.iter().map(|(_, c)| change_bytes(c)).sum();
                if run.len() > 1 {
                    if let Some(columns) = ChangeBatch::from_changes(&run) {
                        self.metrics.batch_rows.record(columns.len() as u64);
                        self.metrics.vectorized_rounds += u64::from(!vectorized_round);
                        vectorized_round = true;
                        self.query.change_batch(&stream, &columns)?;
                    } else {
                        // Mixed-arity run: per-row feeding reproduces the
                        // oracle's arity error exactly.
                        self.metrics.fallback_rounds += u64::from(!fallback_round);
                        fallback_round = true;
                        for (ts, change) in run {
                            self.query.change(&stream, ts, change)?;
                        }
                    }
                } else {
                    self.metrics.fallback_rounds += u64::from(!fallback_round);
                    fallback_round = true;
                    if let Some((ts, change)) = run.pop() {
                        self.query.change(&stream, ts, change)?;
                    }
                }
                self.sources[slot].events += run_events;
                self.sources[slot].bytes += run_bytes;
                self.metrics.events_in += run_events;
                self.metrics.bytes_in += run_bytes;
                ingested += run_events as usize;
                // Bounded in-flight buffering: drain mid-round when the
                // pending output grows past the configured bound.
                if self.query.unemitted() >= self.config.max_inflight {
                    self.drain_output()?;
                }
            }
            if had_events {
                self.ledger.note_event(slot, self.clock);
            }
            if let Some(wm) = batch.watermark {
                self.ledger.observe(slot, Watermark(wm), &mut self.advances);
            }
            if batch.status == SourceStatus::Finished {
                self.sources[slot].finished = true;
                // A finished source asserts completeness: it no longer
                // constrains its streams' watermarks.
                self.ledger
                    .observe(slot, Watermark::MAX, &mut self.advances);
            }
            self.deliver_advances()?;
        }
        self.drain_output()?;
        self.metrics.rounds += 1;
        if ingested == 0 {
            self.metrics.idle_rounds += 1;
        }
        if self.all_sources_finished() {
            self.complete()?;
        } else {
            self.metrics.batch_size = self.controller.observe(PipelineMetrics::lag_between(
                self.ledger.input_watermark(),
                self.query.output_watermark(),
            ));
        }
        self.metrics.poll_micros.record(poll_micros);
        self.metrics.round_micros.record(round.micros());
        self.publish_snapshot();
        Ok(ingested)
    }

    /// Ingest one columnar source batch: clamp its ptime lane to the
    /// driver's monotone clock, feed the vectorized path (or fall back
    /// per-row when the plan cannot batch this stream), and apply the
    /// batch's watermark/status exactly as the row path would. Returns
    /// the number of rows ingested.
    fn ingest_columns(
        &mut self,
        slot: usize,
        cb: ColumnarBatch,
        vectorized_round: &mut bool,
        fallback_round: &mut bool,
    ) -> Result<usize> {
        let n = cb.columns.len();
        if n > 0 {
            self.sources[slot].non_empty_polls += 1;
            let stream = self.sources[slot]
                .streams
                .get(cb.stream)
                .cloned()
                .ok_or_else(|| {
                    Error::exec(format!(
                        "source '{}' produced an event for stream index {} \
                         but declares only {} streams",
                        self.sources[slot].source.name(),
                        cb.stream,
                        self.sources[slot].streams.len()
                    ))
                })?;
            // The same monotone-clock clamp the row path applies per event.
            let columns = cb.columns.clamp_ptimes(self.clock);
            self.clock = self.clock.max(columns.ptime(n - 1));
            let bytes: u64 = (0..n).map(|i| columns.row_bytes(i)).sum();
            if self.stream_vectorizes(&stream) {
                self.metrics.batch_rows.record(n as u64);
                self.metrics.vectorized_rounds += u64::from(!*vectorized_round);
                *vectorized_round = true;
                self.query.change_batch(&stream, &columns)?;
            } else {
                self.metrics.fallback_rounds += u64::from(!*fallback_round);
                *fallback_round = true;
                for i in 0..n {
                    let (ts, change) = columns.timed_change(i);
                    self.query.change(&stream, ts, change)?;
                }
            }
            self.sources[slot].events += n as u64;
            self.sources[slot].bytes += bytes;
            self.metrics.events_in += n as u64;
            self.metrics.bytes_in += bytes;
            self.ledger.note_event(slot, self.clock);
            if self.query.unemitted() >= self.config.max_inflight {
                self.drain_output()?;
            }
        }
        if let Some(wm) = cb.watermark {
            self.ledger.observe(slot, Watermark(wm), &mut self.advances);
        }
        if cb.status == SourceStatus::Finished {
            self.sources[slot].finished = true;
            self.ledger
                .observe(slot, Watermark::MAX, &mut self.advances);
        }
        Ok(n)
    }

    /// Deliver per-stream watermark advancements queued by the ledger.
    ///
    /// A stream's watermark is the **min** over all sources feeding it
    /// (any one source may still deliver old events); delivery is strictly
    /// monotone — the query only hears a stream watermark when it exceeds
    /// what was already delivered (both enforced by [`WatermarkLedger`]).
    fn deliver_advances(&mut self) -> Result<()> {
        let mut advances = std::mem::take(&mut self.advances);
        for (stream, combined) in advances.drain(..) {
            self.query.watermark(&stream, self.clock, combined.ts())?;
            self.metrics.watermarks_in += 1;
        }
        self.advances = advances;
        Ok(())
    }

    fn all_sources_finished(&self) -> bool {
        !self.sources.is_empty() && self.sources.iter().all(|s| s.finished)
    }

    /// Render changelog entries not yet delivered and hand them to every
    /// sink, with `ver` numbering identical to `EMIT STREAM` rendering.
    fn drain_output(&mut self) -> Result<()> {
        let entries = self.query.take_emitted();
        if entries.is_empty() {
            self.notify_sink_watermark()?;
            return Ok(());
        }
        // The emit span is the thread's current span while sinks write,
        // so a `NetSink` can attach it to outgoing BATCH frames as the
        // consumer side's trace parent.
        let _emit_span = observe::TraceSpan::child("driver.emit");
        let emit = Stopwatch::start();
        let mut rows = Vec::with_capacity(entries.len());
        for entry in entries {
            self.renderer.render_owned(entry, &mut rows)?;
        }
        self.metrics.events_out += rows.len() as u64;
        for sink in &mut self.sinks {
            sink.write(&rows)?;
        }
        if let Some(tap) = &self.tap {
            tap.record_rows(&rows);
        }
        self.notify_sink_watermark()?;
        self.metrics.emit_micros.record(emit.micros());
        Ok(())
    }

    fn notify_sink_watermark(&mut self) -> Result<()> {
        let wm = self.query.output_watermark();
        if wm > self.sink_watermark {
            self.sink_watermark = wm;
            for sink in &mut self.sinks {
                sink.on_watermark(wm)?;
            }
            if let Some(tap) = &self.tap {
                tap.record(crate::history::HistoryEvent::Watermark(wm));
            }
        }
        Ok(())
    }

    /// Declare the pipeline complete: final watermarks flush all gated /
    /// delayed materialization, remaining output drains, and sinks flush.
    /// Idempotent; called automatically when every source reports
    /// [`SourceStatus::Finished`].
    pub fn finish(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.complete()?;
        self.publish_snapshot();
        Ok(())
    }

    /// [`PipelineDriver::finish`] without the hub snapshot: a round that
    /// finishes the pipeline publishes once, at the end of the round.
    fn complete(&mut self) -> Result<()> {
        self.finished = true;
        if observe::enabled() {
            observe::set_thread_pipeline(self.label.as_deref().unwrap_or(""));
        }
        let _finish_span = observe::TraceSpan::root("driver.finish");
        let span = Stopwatch::start();
        self.query.finish(self.clock)?;
        self.drain_output()?;
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        if let Some(tap) = &self.tap {
            tap.record(crate::history::HistoryEvent::Finished);
        }
        observe::sample("driver.finish_micros", span.micros());
        self.refresh_metrics();
        Ok(())
    }

    /// Run until every source finishes. All-idle rounds yield the thread
    /// (sources may be fed by other threads); `max_idle_rounds` bounds the
    /// wait, erroring on exhaustion so a stuck pipeline is loud.
    pub fn run(&mut self) -> Result<&PipelineMetrics> {
        if self.sources.is_empty() {
            return Err(Error::plan("pipeline has no sources"));
        }
        let mut idle_streak = 0u64;
        while !self.finished {
            let ingested = self.step()?;
            if self.finished {
                break;
            }
            if ingested == 0 {
                idle_streak += 1;
                if let Some(limit) = self.config.max_idle_rounds {
                    if idle_streak > limit {
                        return Err(Error::exec(format!(
                            "pipeline made no progress for {idle_streak} rounds \
                             (sources idle, none finished)"
                        )));
                    }
                }
                std::thread::yield_now();
            } else {
                idle_streak = 0;
            }
        }
        self.refresh_metrics();
        Ok(&self.metrics)
    }
}

impl std::fmt::Debug for PipelineDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineDriver")
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .field("events_in", &self.metrics.events_in)
            .field("events_out", &self.metrics.events_out)
            .field("finished", &self.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(initial: usize, min: usize, max: usize) -> BatchController {
        BatchController::new(&DriverConfig {
            batch_size: initial,
            adaptive: Some(AdaptiveBatch {
                min_batch: min,
                max_batch: max,
                high_lag: Duration::from_seconds(60),
                low_lag: Duration::from_seconds(1),
                high_pending: 1_000,
                low_pending: 100,
            }),
            ..DriverConfig::default()
        })
    }

    #[test]
    fn controller_shrinks_under_lag_and_grows_when_caught_up() {
        let mut c = controller(256, 32, 4096);
        assert_eq!(c.observe(Some(Duration::from_seconds(120))), 128);
        assert_eq!(c.observe(Some(Duration::from_seconds(60))), 64, "at high");
        assert_eq!(c.observe(Some(Duration::from_seconds(30))), 64, "between");
        assert_eq!(c.observe(Some(Duration::from_seconds(1))), 128, "at low");
        assert_eq!(c.observe(Some(Duration::ZERO)), 256);
    }

    #[test]
    fn controller_respects_bounds() {
        let mut c = controller(64, 32, 128);
        for _ in 0..10 {
            c.observe(Some(Duration::from_minutes(10)));
        }
        assert_eq!(c.size(), 32, "floored at min_batch");
        for _ in 0..10 {
            c.observe(Some(Duration::ZERO));
        }
        assert_eq!(c.size(), 128, "capped at max_batch");
    }

    #[test]
    fn depth_signal_preferred_over_lag() {
        // A huge (structural) watermark lag must not shrink batches while
        // the merge buffer shows the pipeline is keeping up — and a deep
        // merge backlog must shrink them even with zero lag.
        let mut c = controller(256, 32, 4096);
        let lag = Some(Duration::from_minutes(60));
        assert_eq!(c.observe_load(Some(0), lag), 512, "empty buffer: grow");
        assert_eq!(c.observe_load(Some(1_000), None), 256, "backlog: halve");
        let hold = c.observe_load(Some(500), Some(Duration::ZERO));
        assert_eq!(hold, 256, "between the bounds: hold, even with zero lag");
    }

    #[test]
    fn depth_bounds_walk_to_the_limits() {
        let mut c = controller(256, 32, 512);
        for _ in 0..10 {
            c.observe_load(Some(100_000), None);
        }
        assert_eq!(c.size(), 32, "deep backlog floors at min_batch");
        for _ in 0..10 {
            c.observe_load(Some(0), None);
        }
        assert_eq!(c.size(), 512, "empty buffer caps at max_batch");
    }

    #[test]
    fn no_depth_reading_falls_back_to_lag() {
        let mut c = controller(256, 32, 4096);
        assert_eq!(c.observe_load(None, Some(Duration::from_minutes(5))), 128);
        assert_eq!(c.observe_load(None, Some(Duration::ZERO)), 256);
        assert_eq!(c.observe_load(None, None), 256, "no signal at all: hold");
    }

    #[test]
    fn controller_holds_without_lag_signal() {
        let mut c = controller(256, 32, 4096);
        assert_eq!(c.observe(None), 256);
        assert_eq!(c.size(), 256);
    }

    #[test]
    fn controller_fixed_when_adaptive_disabled() {
        let mut c = BatchController::new(&DriverConfig {
            batch_size: 17,
            adaptive: None,
            ..DriverConfig::default()
        });
        assert_eq!(c.observe(Some(Duration::from_minutes(60))), 17);
        assert_eq!(c.observe(Some(Duration::ZERO)), 17);
    }

    #[test]
    fn controller_initial_size_not_clamped_but_adjustments_are() {
        // An explicit size below min_batch is honored until the first
        // adjustment, which snaps into bounds.
        let mut c = controller(4, 32, 4096);
        assert_eq!(c.size(), 4);
        assert_eq!(c.observe(Some(Duration::from_minutes(5))), 32);
    }

    /// A tiny scripted source for adapter tests: emits `remaining` rows.
    struct Scripted {
        name: String,
        streams: Vec<String>,
        emitted: i64,
        total: i64,
    }

    impl Scripted {
        fn new(total: i64) -> Scripted {
            Scripted {
                name: "scripted".to_string(),
                streams: vec!["s".to_string()],
                emitted: 0,
                total,
            }
        }
    }

    impl Source for Scripted {
        fn name(&self) -> &str {
            &self.name
        }
        fn streams(&self) -> &[String] {
            &self.streams
        }
        fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
            let take = (max_events as i64).min(self.total - self.emitted);
            let mut batch = SourceBatch::empty(SourceStatus::Ready);
            for i in self.emitted..self.emitted + take {
                batch.events.push(SourceEvent {
                    stream: 0,
                    ptime: Ts(i),
                    change: onesql_tvr::Change::insert(onesql_types::row!(i)),
                });
            }
            self.emitted += take;
            if self.emitted == self.total {
                batch.status = SourceStatus::Finished;
            }
            Ok(batch)
        }
    }

    #[test]
    fn partitioned_vec_tracks_offsets_and_replays() {
        let mut pv = PartitionedVec::new("pv", vec![Scripted::new(10), Scripted::new(4)]).unwrap();
        assert_eq!(pv.partitions(), 2);
        assert_eq!(pv.streams(), &["s".to_string()]);
        pv.poll_partition(0, 3).unwrap();
        assert_eq!(pv.offset(0), 3);
        assert_eq!(pv.offset(1), 0);
        // Replayable by default: forward seek polls-and-discards.
        pv.seek(0, 7).unwrap();
        assert_eq!(pv.offset(0), 7);
        assert!(pv.seek(0, 2).is_err(), "backwards");
        assert!(pv.seek(1, 100).is_err(), "exhausts at 4");
    }

    #[test]
    fn partitioned_vec_non_replayable_refuses_seeks() {
        let mut pv = PartitionedVec::new("pv", vec![Scripted::new(8)])
            .unwrap()
            .non_replayable();
        pv.poll_partition(0, 2).unwrap();
        assert!(pv.seek(0, 2).is_ok(), "current offset is a no-op");
        let err = pv.seek(0, 5).unwrap_err().to_string();
        assert!(err.contains("not replayable"), "{err}");
    }

    #[test]
    fn partitioned_vec_validates_shape() {
        assert!(PartitionedVec::<Scripted>::new("pv", vec![]).is_err());
        let mut odd = Scripted::new(1);
        odd.streams = vec!["other".to_string()];
        assert!(PartitionedVec::new("pv", vec![Scripted::new(1), odd]).is_err());
    }

    #[test]
    fn ack_defaults_to_noop() {
        let mut pv = PartitionedVec::new("pv", vec![Scripted::new(2)]).unwrap();
        pv.ack(0, 1).unwrap();
    }

    #[test]
    fn ledger_combines_per_stream_minimum() {
        let mut ledger = WatermarkLedger::new();
        let a = ledger.add_feeder("a", &["s".to_string()]);
        let b = ledger.add_feeder("b", &["s".to_string(), "t".to_string()]);
        let mut advances = Vec::new();

        // Only one feeder of "s" advanced: nothing delivered on "s", but
        // "t" (fed by b alone) advances.
        ledger.observe(b, Watermark(Ts(100)), &mut advances);
        assert_eq!(advances, vec![("t".to_string(), Watermark(Ts(100)))]);
        advances.clear();

        ledger.observe(a, Watermark(Ts(50)), &mut advances);
        assert_eq!(advances, vec![("s".to_string(), Watermark(Ts(50)))]);
        advances.clear();

        // Regression is absorbed; re-observation delivers nothing.
        ledger.observe(a, Watermark(Ts(40)), &mut advances);
        assert!(advances.is_empty());
        assert_eq!(ledger.input_watermark(), Watermark(Ts(50)));
        assert_eq!(ledger.feeder(a), Watermark(Ts(50)));
    }

    #[test]
    fn ledger_finished_feeder_stops_constraining() {
        let mut ledger = WatermarkLedger::new();
        let a = ledger.add_feeder("a", &["s".to_string()]);
        let b = ledger.add_feeder("b", &["s".to_string()]);
        let mut advances = Vec::new();
        ledger.observe(a, Watermark(Ts(10)), &mut advances);
        advances.clear();
        ledger.observe(b, Watermark::MAX, &mut advances);
        assert_eq!(advances, vec![("s".to_string(), Watermark(Ts(10)))]);
        assert_eq!(ledger.input_watermark(), Watermark(Ts(10)));
    }
}

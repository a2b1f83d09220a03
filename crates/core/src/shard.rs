//! The sharded pipeline runtime: partition-aware ingestion, parallel
//! operator workers, and exactly-once checkpoint/resume.
//!
//! [`crate::connect::PipelineDriver`] pumps sources through **one**
//! running query on the calling thread. This module scales both sides of
//! that loop together, the way the paper's engines do (Appendix B):
//!
//! - **In**: [`PartitionedSource`]s expose N ordered partitions, each with
//!   its own watermark and a replayable offset. The driver polls
//!   partitions independently and combines their watermarks per stream as
//!   the min, exactly as [`onesql_time::WatermarkTracker`] combines
//!   operator ports.
//! - **Across**: each event routes to one of W workers by the stable hash
//!   of its partition key ([`crate::parallel::partition_of`]), so rows
//!   that can ever combine (same group, same join key) always meet in the
//!   same worker — the partition-alignment property. With W > 1 every
//!   worker is a thread fed through a command channel; with W = 1 the one
//!   worker runs **inline** on the driver thread, applying each command as
//!   it is sent, so a single-worker round pays no channel hand-off and no
//!   cross-thread wakeup. Both kinds speak the same command protocol, so
//!   merge order, checkpoints and `table_at` probes do not depend on which
//!   kind runs, and an inline worker's `worker.process` trace spans still
//!   carry worker `0` under the `driver.round` span that fed them.
//! - **Out**: worker changelogs merge through a deterministic
//!   partition-aligned order — `(ptime, worker, per-worker sequence)` —
//!   with entries at the current clock held back until the clock passes
//!   them, so the sink-observed changelog is a pure function of the input
//!   and never depends on thread scheduling.
//! - **Recovery**: [`ShardedPipelineDriver::checkpoint`] barriers the
//!   workers and captures operator state *plus* per-partition source
//!   offsets *plus* the driver's merge/render cursors in one
//!   [`PipelineCheckpoint`]. A fresh driver over fresh (replayable)
//!   sources [`ShardedPipelineDriver::restore`]s it and continues as if
//!   the crash never happened: the resumed sink output concatenated onto
//!   the pre-crash output is byte-identical to an uninterrupted run.
//!
//! The determinism argument for the merge: the driver's clock is monotone
//! and every changelog entry a worker produces is stamped with the clock
//! value of the command that caused it. Once the clock has advanced past
//! `t`, no worker can ever produce another entry with `ptime <= t`, so
//! entries strictly below the clock can be flushed in globally sorted
//! order; ties at the clock wait (a slower worker may still produce a
//! same-`ptime` entry that sorts between them).
//!
//! # Example
//!
//! Any plain [`crate::connect::Source`] rides the sharded driver through
//! the 1-partition adapter; here three bids fan out over two hash-sharded
//! workers and the merged result table comes back deterministic (the
//! pipeline opts into keeping its output with `retain_table`, since by
//! default emitted output lives only in the sinks):
//!
//! ```
//! use onesql_core::connect::{Source, SourceBatch, SourceEvent, SourceStatus};
//! use onesql_core::{Engine, ShardedConfig, StreamBuilder};
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
//!     .run_sharded_pipeline(
//!         "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction",
//!         ShardedConfig::new(2),
//!     )
//!     .unwrap();
//! driver.retain_table().unwrap();
//! driver.run().unwrap();
//! assert_eq!(
//!     driver.table().unwrap(),
//!     vec![row!(1i64, 2i64, 10i64), row!(2i64, 1i64, 11i64)],
//! );
//! ```

use std::collections::VecDeque;

use crossbeam::channel::{bounded, Receiver, Sender};

use onesql_exec::{StreamRenderer, StreamRow};
use onesql_time::Watermark;
use onesql_tvr::{Change, ChangeBatch, TimedChange};
use onesql_types::{Error, Result, Row, SchemaRef, Ts};

use crate::connect::{
    change_bytes, refresh_source, retain_too_late, BatchController, DriverConfig,
    PartitionedSource, PipelineMetrics, SinglePartition, Sink, Source, SourceMetrics, SourceStatus,
    WatermarkLedger, WatermarkProvenance,
};
use crate::engine::Engine;
use crate::history::{HistoryEvent, HistoryTap};
use crate::observe::{self, Stopwatch};
use crate::parallel::partition_of;
use crate::query::RunningQuery;

/// Tuning for a sharded pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of workers (= operator state shards). One worker runs
    /// inline on the driver thread; more run as worker threads.
    pub workers: usize,
    /// Which input column is the partition key, for every stream (the
    /// caller must pick a column consistent with the query's grouping /
    /// join keys — the partition-alignment property).
    pub partition_col: usize,
    /// Polling and adaptive-batch knobs, shared with the simple driver.
    pub driver: DriverConfig,
}

impl ShardedConfig {
    /// A config with `workers` workers, partitioning on column 0.
    pub fn new(workers: usize) -> ShardedConfig {
        ShardedConfig {
            workers,
            partition_col: 0,
            driver: DriverConfig::default(),
        }
    }

    /// Set the partition-key column.
    pub fn with_partition_col(mut self, col: usize) -> ShardedConfig {
        self.partition_col = col;
        self
    }

    /// Replace the driver knobs.
    pub fn with_driver(mut self, driver: DriverConfig) -> ShardedConfig {
        self.driver = driver;
        self
    }
}

impl Default for ShardedConfig {
    fn default() -> ShardedConfig {
        ShardedConfig::new(1)
    }
}

/// A consistent snapshot of an entire sharded pipeline: per-worker
/// operator state, per-partition source offsets, and the driver's merge /
/// render / watermark cursors. Everything needed to resume exactly-once.
///
/// Restore requires a *fresh* driver with the same SQL, worker count, and
/// source shapes, over **replayable** sources (see
/// [`PartitionedSource::seek`]).
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// Per-worker operator state, from [`RunningQuery::checkpoint`].
    pub workers: Vec<onesql_state::Checkpoint>,
    /// Per-source, per-partition replay offsets (events consumed).
    pub offsets: Vec<Vec<u64>>,
    /// Per-source, per-partition finished flags.
    pub finished: Vec<Vec<bool>>,
    /// Per-feeder (source partition) watermarks, in feeder order.
    pub feeders: Vec<Watermark>,
    /// The driver's monotone processing-time clock.
    pub clock: Ts,
    /// The adaptive controller's batch size, so a resumed pipeline polls
    /// exactly as the uninterrupted run would.
    pub batch_size: usize,
    /// Changelog entries drained from workers but still held back by the
    /// deterministic merge (ptime == clock ties), per worker with their
    /// merge sequence numbers.
    pub pending: Vec<Vec<(u64, TimedChange)>>,
    /// Next merge sequence number per worker.
    pub next_seq: Vec<u64>,
    /// `EMIT STREAM` per-grouping version counters at the flush cursor.
    pub renderer_versions: Vec<(Row, u64)>,
    /// Output watermark already reported to sinks.
    pub sink_watermark: Watermark,
    /// Combined worker output watermark at the checkpoint barrier.
    pub output_watermark: Watermark,
    /// Rows delivered to sinks so far (metrics continuity).
    pub events_out: u64,
    /// Watermark deliveries into the workers so far (metrics continuity).
    pub watermarks_in: u64,
    /// Per-source, per-partition ingested payload bytes (same shape as
    /// `offsets`; metrics continuity — `bytes_in` and the per-source byte
    /// counters resume monotonically across incarnations).
    pub source_bytes: Vec<Vec<u64>>,
    /// Checkpoint epoch: 1 for the pipeline's first checkpoint, counting
    /// up. Transactional sinks stage output per epoch and a restore tells
    /// them which epoch's staging boundary to truncate back to.
    pub epoch: u64,
}

/// What a worker reports at a drain barrier.
struct DrainReply {
    /// Changelog entries produced since the previous drain, moved out of
    /// the worker's changelog unless it retains its table.
    entries: Vec<TimedChange>,
    /// The worker's current output watermark.
    watermark: Watermark,
    /// Changelog entries the worker still holds after this drain.
    retained: usize,
}

/// Commands from the driver's control thread to a worker.
enum Cmd {
    /// Declare a stream name; subsequent commands reference it by index.
    Declare(String),
    /// Keep the changelog after draining it (sent before any drain).
    RetainTable,
    /// A routed batch of `(stream index, ptime, change)` events, plus the
    /// control thread's current trace span (0 = tracing off/unsampled) so
    /// worker-side processing spans stitch under the driver round.
    Batch(Vec<(usize, Ts, Change)>, u64),
    /// Deliver a stream watermark.
    Watermark(usize, Ts, Ts),
    /// All inputs complete: flush pending materialization.
    Finish(Ts),
    /// A barrier (drain, checkpoint, restore, `AS OF` probe): run the
    /// closure once every earlier command is processed; it sends its
    /// answer back itself (see [`Worker::barrier`]).
    Barrier(Box<dyn FnOnce(&mut WorkerState) + Send>),
}

/// One query worker: a shard of the operator state plus the cursors of
/// the command protocol. [`WorkerState::apply`] is the whole worker: a
/// worker thread calls it for every command off its channel, and the
/// inline worker of a one-worker pipeline calls it as each command is
/// sent, on the driver thread.
struct WorkerState {
    /// Worker index, stamped onto `worker.process` spans.
    worker: i32,
    query: RunningQuery,
    /// Stream table, in declaration order (commands reference indices).
    streams: Vec<String>,
    /// The first failure wins; later data commands are skipped and every
    /// subsequent barrier reports it, so the control thread hears about
    /// it at the next drain instead of deadlocking or panicking.
    failure: Option<Error>,
    vectorize: bool,
}

impl WorkerState {
    fn new(worker: usize, query: RunningQuery, vectorize: bool) -> WorkerState {
        WorkerState {
            worker: worker.min(i32::MAX as usize) as i32,
            query,
            streams: Vec::new(),
            failure: None,
            vectorize,
        }
    }

    fn apply(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Declare(name) => self.streams.push(name),
            Cmd::RetainTable => self.query.retain_table(),
            Cmd::Batch(events, trace_parent) => {
                if self.failure.is_none() {
                    if let Err(e) = self.process(events, trace_parent) {
                        self.failure = Some(e);
                    }
                }
            }
            Cmd::Watermark(stream, ptime, wm) => {
                if self.failure.is_none() {
                    if let Err(e) = self.query.watermark(&self.streams[stream], ptime, wm) {
                        self.failure = Some(e);
                    }
                }
            }
            Cmd::Finish(at) => {
                if self.failure.is_none() {
                    if let Err(e) = self.query.finish(at) {
                        self.failure = Some(e);
                    }
                }
            }
            Cmd::Barrier(answer) => answer(self),
        }
    }

    /// Answer a barrier: the first failure if there was one, else `f`.
    fn checked<T>(&mut self, f: impl FnOnce(&mut WorkerState) -> Result<T>) -> Result<T> {
        match &self.failure {
            Some(e) => Err(e.clone()),
            None => f(self),
        }
    }

    /// Drain barrier: the changelog entries produced since the previous
    /// drain and the output watermark.
    fn drain(&mut self) -> Result<DrainReply> {
        self.checked(|state| {
            Ok(DrainReply {
                entries: state.query.take_emitted(),
                watermark: state.query.output_watermark(),
                retained: state.query.changelog().len(),
            })
        })
    }

    /// Feed one routed batch into the query.
    fn process(&mut self, events: Vec<(usize, Ts, Change)>, trace_parent: u64) -> Result<()> {
        // Span only when the driver round is being recorded, so an
        // unsampled round doesn't spawn orphan worker trees.
        let _span = (trace_parent != 0).then(|| {
            observe::TraceSpan::with_parent("worker.process", trace_parent).worker(self.worker)
        });
        // Group consecutive same-stream events into columnar runs,
        // mirroring `PipelineDriver::step`. Ptimes within a routed batch
        // are monotone (the control thread stamps its clamped clock), so
        // the run satisfies `ChangeBatch`'s ordering.
        let query = &mut self.query;
        let streams = &self.streams;
        let mut events = events.into_iter().peekable();
        while let Some((stream, ptime, change)) = events.next() {
            let mut run = vec![(ptime, change)];
            if self.vectorize && query.vectorizes(&streams[stream]) {
                while let Some((_, p, c)) = events.next_if(|(next, ..)| *next == stream) {
                    run.push((p, c));
                }
            }
            if run.len() > 1 {
                match ChangeBatch::from_changes(&run) {
                    Some(batch) => query.change_batch(&streams[stream], &batch)?,
                    // Mixed arity (invalid rows): keep per-row order.
                    None => run
                        .into_iter()
                        .try_for_each(|(p, c)| query.change(&streams[stream], p, c))?,
                }
            } else if let Some((p, c)) = run.pop() {
                query.change(&streams[stream], p, c)?;
            }
        }
        Ok(())
    }
}

/// A query worker as the driver addresses it. Both kinds speak the same
/// [`Cmd`] protocol, so everything above this type is oblivious to where
/// the worker runs.
enum Worker {
    /// `workers = 1`: the worker runs on the driver thread and each
    /// command is applied as it is sent. No thread, no command channel,
    /// and barrier replies are ready the moment they are requested.
    Inline(Box<WorkerState>),
    /// A worker thread fed through a bounded command channel.
    Thread {
        tx: Sender<Cmd>,
        handle: std::thread::JoinHandle<RunningQuery>,
    },
}

impl Worker {
    fn thread(mut state: WorkerState) -> Worker {
        let (tx, rx) = bounded::<Cmd>(64);
        let handle = std::thread::spawn(move || {
            while let Ok(cmd) = rx.recv() {
                state.apply(cmd);
            }
            state.query
        });
        Worker::Thread { tx, handle }
    }

    fn send(&mut self, cmd: Cmd) -> Result<()> {
        match self {
            Worker::Inline(state) => {
                state.apply(cmd);
                Ok(())
            }
            Worker::Thread { tx, .. } => tx
                .send(cmd)
                .map_err(|_| Error::exec("pipeline worker terminated")),
        }
    }

    /// Run the barrier `answer` once every command sent before it is
    /// processed. The inline worker answers by direct call, with no
    /// channel; a worker thread replies through a one-shot channel,
    /// awaited by [`Reply::wait`] so barriers to several workers overlap.
    fn barrier<T: Send + 'static>(
        &mut self,
        answer: impl FnOnce(&mut WorkerState) -> Result<T> + Send + 'static,
    ) -> Result<Reply<T>> {
        match self {
            Worker::Inline(state) => Ok(Reply::Ready(answer(state))),
            Worker::Thread { tx, .. } => {
                let (reply, rx) = bounded(1);
                tx.send(Cmd::Barrier(Box::new(move |state| {
                    let _ = reply.send(answer(state));
                })))
                .map_err(|_| Error::exec("pipeline worker terminated"))?;
                Ok(Reply::Pending(rx))
            }
        }
    }

    /// Stop the worker and hand back its query. A worker thread exits its
    /// receive loop once the command channel disconnects.
    fn join(self) -> Result<RunningQuery> {
        match self {
            Worker::Inline(state) => Ok(state.query),
            Worker::Thread { tx, handle } => {
                drop(tx);
                handle
                    .join()
                    .map_err(|_| Error::exec("pipeline worker panicked"))
            }
        }
    }
}

/// A worker's answer to a barrier.
enum Reply<T> {
    /// Answered already (the inline worker).
    Ready(Result<T>),
    /// A worker thread's answer, still on its way.
    Pending(Receiver<Result<T>>),
}

impl<T> Reply<T> {
    fn wait(self) -> Result<T> {
        match self {
            Reply::Ready(answer) => answer,
            Reply::Pending(rx) => rx
                .recv()
                .map_err(|_| Error::exec("pipeline worker terminated"))?,
        }
    }
}

/// One partition's driver-side state.
struct PartState {
    /// Index into the watermark ledger.
    feeder: usize,
    finished: bool,
    events: u64,
    bytes: u64,
}

struct SourceSlot {
    source: Box<dyn PartitionedSource>,
    /// Lowercased stream names, resolved to global indices at attach.
    stream_ids: Vec<usize>,
    parts: Vec<PartState>,
    non_empty_polls: u64,
}

/// Pumps partitioned sources through W hash-sharded query workers into
/// sinks, with deterministic output order and whole-pipeline
/// checkpoint/restore. See the module docs for the architecture.
pub struct ShardedPipelineDriver {
    workers: Vec<Worker>,
    sources: Vec<SourceSlot>,
    sinks: Vec<Box<dyn Sink>>,
    config: ShardedConfig,
    controller: BatchController,
    metrics: PipelineMetrics,
    ledger: WatermarkLedger,
    advances: Vec<(String, Watermark)>,
    /// Global stream table: lowercased names, indices shared with workers.
    streams: Vec<String>,
    /// Monotone processing-time clock across all partitions.
    clock: Ts,
    /// Held-back changelog entries per worker: `(merge seq, entry)`, in
    /// per-worker order (which is ptime-then-seq order by construction).
    pending: Vec<VecDeque<(u64, TimedChange)>>,
    next_seq: Vec<u64>,
    renderer: StreamRenderer,
    schema: SchemaRef,
    /// Combined (min) worker output watermark as of the last drain.
    output_watermark: Watermark,
    /// Output watermark already reported to sinks.
    sink_watermark: Watermark,
    finished: bool,
    /// Checkpoints taken so far; the next checkpoint gets epoch
    /// `self.epoch + 1`. Restoring adopts the checkpoint's epoch so the
    /// numbering continues where the crashed incarnation left off.
    epoch: u64,
    /// Set when a step failed after source offsets had already advanced:
    /// polled events may never have reached a worker, so continuing — and
    /// above all checkpointing — would silently violate exactly-once.
    poisoned: bool,
    /// Set by [`ShardedPipelineDriver::restore`]: the watermark ledger and
    /// cursors now mirror a checkpoint, so the source/sink set is sealed
    /// even though no round has run yet.
    restored: bool,
    /// When set, the driver publishes a metrics snapshot to the global
    /// [`observe::hub`] under this name after every round.
    label: Option<String>,
    /// When set, every sink-observable event (rows, watermarks, epoch
    /// transitions, finish) is also appended here, in sink order.
    tap: Option<HistoryTap>,
    /// The workers' final queries, populated by `finish`.
    final_queries: Vec<RunningQuery>,
}

impl ShardedPipelineDriver {
    /// Plan `sql` on `engine` and start `config.workers` query workers:
    /// worker threads, or — at one worker — an inline worker on the
    /// calling thread. Attach sources and sinks, then
    /// [`ShardedPipelineDriver::run`] (or [`ShardedPipelineDriver::restore`]
    /// a checkpoint first).
    pub fn new(engine: &Engine, sql: &str, config: ShardedConfig) -> Result<ShardedPipelineDriver> {
        if config.workers == 0 {
            return Err(Error::exec("need at least one worker"));
        }
        let mut workers = Vec::with_capacity(config.workers);
        let mut schema = None;
        let mut ver_cols = Vec::new();
        let mut clock = Ts::MIN;
        for w in 0..config.workers {
            let query = engine.execute(sql)?;
            if schema.is_none() {
                schema = Some(query.schema());
                ver_cols = onesql_exec::compile::version_columns(query.bound());
                clock = query.now();
            }
            let state = WorkerState::new(w, query, config.driver.vectorize);
            workers.push(if config.workers == 1 {
                Worker::Inline(Box::new(state))
            } else {
                Worker::thread(state)
            });
        }
        let worker_count = workers.len();
        let Some(schema) = schema else {
            return Err(Error::exec("a sharded pipeline needs at least one worker"));
        };
        Ok(ShardedPipelineDriver {
            workers,
            sources: Vec::new(),
            sinks: Vec::new(),
            config,
            controller: BatchController::new(&config.driver),
            metrics: PipelineMetrics::default(),
            ledger: WatermarkLedger::new(),
            advances: Vec::new(),
            streams: Vec::new(),
            clock,
            pending: (0..worker_count).map(|_| VecDeque::new()).collect(),
            next_seq: vec![0; worker_count],
            renderer: StreamRenderer::new(ver_cols),
            schema,
            output_watermark: Watermark::MIN,
            sink_watermark: Watermark::MIN,
            finished: false,
            epoch: 0,
            poisoned: false,
            restored: false,
            label: None,
            tap: None,
            final_queries: Vec::new(),
        })
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

    /// Install a [`HistoryTap`]: every sink-observable event — rendered
    /// rows, watermark deliveries, checkpoint/restore epoch transitions,
    /// the finish marker — is also appended to `tap`, in sink order.
    /// Installing the same (cloned) tap on successive incarnations of a
    /// killed-and-restored pipeline yields one crash-spanning history.
    pub fn set_history_tap(&mut self, tap: HistoryTap) {
        self.tap = Some(tap);
    }

    fn publish_snapshot(&mut self) {
        if self.label.is_none() {
            return;
        }
        self.refresh_metrics();
        let label = self.label.as_deref().unwrap_or_default();
        observe::hub().publish(label, self.clock, true, self.finished, &self.metrics);
    }

    /// Record that a durable checkpoint at `epoch` was persisted in
    /// `micros` microseconds (called by the session layer after the store
    /// write completes, so the persist cost lands in this pipeline's
    /// metrics and not just the global trace).
    pub fn note_checkpoint_persisted(&mut self, epoch: u64, micros: u64) {
        self.metrics.checkpoints += 1;
        self.metrics.checkpoint_epoch = epoch;
        self.metrics.checkpoint_persist_micros.record(micros);
        self.publish_snapshot();
    }

    /// Attach a partitioned source. Fails once the pipeline has started
    /// or restored a checkpoint (the per-stream watermark trackers are
    /// sized at attach time; growing them afterwards would wipe observed
    /// watermark state).
    pub fn attach_partitioned_source(&mut self, source: Box<dyn PartitionedSource>) -> Result<()> {
        if self.metrics.rounds > 0 || self.restored || self.poisoned {
            return Err(Error::plan(
                "attach sources before stepping or restoring the pipeline",
            ));
        }
        if source.streams().is_empty() {
            return Err(Error::plan(format!(
                "source '{}' declares no streams",
                source.name()
            )));
        }
        if source.partitions() == 0 {
            return Err(Error::plan(format!(
                "source '{}' declares no partitions",
                source.name()
            )));
        }
        let mut stream_ids = Vec::with_capacity(source.streams().len());
        for stream in source.streams() {
            let stream = stream.to_ascii_lowercase();
            let id = match self.streams.iter().position(|s| *s == stream) {
                Some(id) => id,
                None => {
                    self.streams.push(stream.clone());
                    self.broadcast(|| Cmd::Declare(stream.clone()))?;
                    self.streams.len() - 1
                }
            };
            stream_ids.push(id);
        }
        let streams_lc: Vec<String> = stream_ids
            .iter()
            .map(|&i| self.streams[i].clone())
            .collect();
        let parts = (0..source.partitions())
            .map(|part| PartState {
                feeder: self
                    .ledger
                    .add_feeder(format!("{}[{part}]", source.name()), &streams_lc),
                finished: false,
                events: 0,
                bytes: 0,
            })
            .collect();
        self.sources.push(SourceSlot {
            source,
            stream_ids,
            parts,
            non_empty_polls: 0,
        });
        Ok(())
    }

    /// Attach a plain single-partition source via [`SinglePartition`].
    pub fn attach_source(&mut self, source: Box<dyn Source>) -> Result<()> {
        self.attach_partitioned_source(Box::new(SinglePartition::new(source)))
    }

    /// Attach a sink; it is immediately bound to the query's output
    /// schema.
    pub fn attach_sink(&mut self, mut sink: Box<dyn Sink>) -> Result<()> {
        sink.bind(self.schema.clone())?;
        self.sinks.push(sink);
        Ok(())
    }

    /// Keep every worker's output changelog after it reaches the merge,
    /// so [`ShardedPipelineDriver::table`] and
    /// [`ShardedPipelineDriver::table_at`] keep answering. Without it,
    /// emitted output lives only in the sinks and those views fail with
    /// [`Error::NotRetained`] after the first drain. Must be called before
    /// the first step.
    pub fn retain_table(&mut self) -> Result<()> {
        if self.metrics.rounds > 0 || self.finished || self.poisoned {
            return Err(retain_too_late());
        }
        self.broadcast(|| Cmd::RetainTable)
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The batch size the adaptive controller will use for the next poll.
    pub fn current_batch_size(&self) -> usize {
        self.controller.size()
    }

    /// True once every source partition finished and the workers flushed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Current accounting. Watermark fields refresh on access.
    pub fn metrics(&mut self) -> &PipelineMetrics {
        self.refresh_metrics();
        &self.metrics
    }

    /// Events ingested so far. Maintained incrementally — cheap enough
    /// for per-step loop conditions, unlike
    /// [`ShardedPipelineDriver::metrics`] which rebuilds derived fields.
    pub fn events_in(&self) -> u64 {
        self.metrics.events_in
    }

    fn refresh_metrics(&mut self) {
        let sources = &mut self.metrics.sources;
        sources.truncate(self.sources.len());
        for (i, s) in self.sources.iter().enumerate() {
            let fresh = SourceMetrics {
                name: String::new(),
                events: s.parts.iter().map(|p| p.events).sum(),
                bytes: s.parts.iter().map(|p| p.bytes).sum(),
                non_empty_polls: s.non_empty_polls,
                watermark: s
                    .parts
                    .iter()
                    .map(|p| self.ledger.feeder(p.feeder))
                    .min()
                    .unwrap_or(Watermark::MIN),
                finished: s.parts.iter().all(|p| p.finished),
            };
            refresh_source(sources, i, s.source.name(), fresh);
        }
        self.metrics.input_watermark = self.ledger.input_watermark();
        self.metrics.output_watermark = self.output_watermark;
        self.ledger
            .provenance_into(&mut self.metrics.watermark_provenance);
    }

    /// Per-stream watermark provenance: which source partition holds each
    /// stream's minimum watermark and when it last produced an event.
    pub fn watermark_provenance(&self) -> Vec<WatermarkProvenance> {
        self.ledger.provenance()
    }

    fn broadcast(&mut self, cmd: impl Fn() -> Cmd) -> Result<()> {
        self.workers
            .iter_mut()
            .try_for_each(|worker| worker.send(cmd()))
    }

    /// One scheduling round: poll every unfinished partition once, route
    /// events to workers by partition key, propagate watermarks, barrier,
    /// and flush the deterministic merge. Returns events ingested.
    ///
    /// A step that errors after sources were polled poisons the driver:
    /// the polled events may never have reached a worker while the source
    /// offsets already advanced, so further stepping or checkpointing
    /// would silently lose them. A poisoned pipeline only reports its
    /// error; recovery is restoring the last good checkpoint into a fresh
    /// driver.
    pub fn step(&mut self) -> Result<usize> {
        if self.poisoned {
            return Err(Error::exec(
                "pipeline is poisoned by an earlier failed step; \
                 restore the last checkpoint into a fresh driver",
            ));
        }
        if self.sources.is_empty() {
            return Err(Error::plan("pipeline has no sources"));
        }
        match self.step_inner() {
            Ok(n) => Ok(n),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn step_inner(&mut self) -> Result<usize> {
        if self.finished {
            return Ok(0);
        }
        if observe::enabled() {
            observe::set_thread_pipeline(self.label.as_deref().unwrap_or(""));
        }
        let _round = observe::TraceSpan::root("driver.round");
        let round = Stopwatch::start();
        let round_clock = self.clock;
        let batch_size = self.controller.size();
        let mut routed: Vec<Vec<(usize, Ts, Change)>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        let mut ingested = 0usize;
        let mut poll_micros = 0u64;
        for slot in 0..self.sources.len() {
            for part in 0..self.sources[slot].parts.len() {
                if self.sources[slot].parts[part].finished {
                    continue;
                }
                let poll = Stopwatch::start();
                let batch = self.sources[slot].source.poll_partition(part, batch_size)?;
                poll_micros = poll_micros.saturating_add(poll.micros());
                let had_events = !batch.events.is_empty();
                if had_events {
                    self.sources[slot].non_empty_polls += 1;
                }
                // The ingest span parents under the wire-carried producer
                // span when the partition supplied one, else this round.
                let _ingest = (had_events || batch.watermark.is_some()).then(|| {
                    observe::TraceSpan::with_parent(
                        "driver.ingest",
                        batch.trace_parent.unwrap_or(0),
                    )
                    .partition(part.min(i32::MAX as usize) as i32)
                });
                for event in batch.events {
                    let &stream_id =
                        self.sources[slot]
                            .stream_ids
                            .get(event.stream)
                            .ok_or_else(|| {
                                Error::exec(format!(
                                    "source '{}' produced an event for stream index {} \
                                 but declares only {} streams",
                                    self.sources[slot].source.name(),
                                    event.stream,
                                    self.sources[slot].stream_ids.len()
                                ))
                            })?;
                    // Processing time is monotone across every partition;
                    // a partition whose clock lags is dragged forward.
                    self.clock = self.clock.max(event.ptime);
                    let key = event
                        .change
                        .row
                        .value(self.config.partition_col)
                        .map_err(|_| {
                            Error::exec(format!(
                                "stream '{}' row has no partition column {}",
                                self.streams[stream_id], self.config.partition_col
                            ))
                        })?;
                    let worker = partition_of(key, self.workers.len());
                    let bytes = change_bytes(&event.change);
                    routed[worker].push((stream_id, self.clock, event.change));
                    self.sources[slot].parts[part].events += 1;
                    self.sources[slot].parts[part].bytes += bytes;
                    self.metrics.events_in += 1;
                    self.metrics.bytes_in += bytes;
                    ingested += 1;
                }
                let feeder = self.sources[slot].parts[part].feeder;
                if had_events {
                    self.ledger.note_event(feeder, self.clock);
                }
                if let Some(wm) = batch.watermark {
                    self.ledger
                        .observe(feeder, Watermark(wm), &mut self.advances);
                }
                if batch.status == SourceStatus::Finished {
                    self.sources[slot].parts[part].finished = true;
                    // A finished partition asserts completeness: it stops
                    // constraining its streams' watermarks.
                    self.ledger
                        .observe(feeder, Watermark::MAX, &mut self.advances);
                }
            }
        }
        // Events first (they were polled before the watermark assertions),
        // then the per-stream advances, broadcast to every worker because
        // watermarks are assertions about whole streams.
        for (worker, batch) in routed.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            // Routing-side accounting: workers group each routed batch into
            // columnar runs themselves (and fall back per-row when the plan
            // requires it), so the control thread samples the routed size.
            self.metrics.batch_rows.record(batch.len() as u64);
            self.workers[worker].send(Cmd::Batch(batch, observe::current_span()))?;
        }
        if ingested > 0 {
            if self.config.driver.vectorize {
                self.metrics.vectorized_rounds += 1;
            } else {
                self.metrics.fallback_rounds += 1;
            }
        }
        let clock = self.clock;
        let mut advances = std::mem::take(&mut self.advances);
        for (stream, combined) in advances.drain(..) {
            let stream_id = self
                .streams
                .iter()
                .position(|s| *s == stream)
                .ok_or_else(|| {
                    Error::exec(format!("watermark for unregistered stream '{stream}'"))
                })?;
            self.broadcast(|| Cmd::Watermark(stream_id, clock, combined.ts()))?;
            self.metrics.watermarks_in += 1;
        }
        self.advances = advances;

        let merge = Stopwatch::start();
        {
            let _gather = observe::TraceSpan::child("driver.gather");
            self.drain_workers()?;
        }
        self.flush(false)?;
        self.metrics.merge_micros.record(merge.micros());
        self.metrics.rounds += 1;
        if ingested == 0 {
            self.metrics.idle_rounds += 1;
        }
        // A round that left the clock where it found it — idle, or a live
        // source whose ptimes stall — would otherwise withhold the
        // entries at ptime == clock (and let `pending` grow) until some
        // future event advances it. Nudge the clock 1ms and re-flush:
        // future events are clamped monotone anyway, so merge order is
        // preserved, and the nudge is a deterministic function of the
        // replayed rounds, so checkpointed resumes still reproduce it.
        if self.clock == round_clock && !self.pending.iter().all(|p| p.is_empty()) {
            self.clock += onesql_types::Duration(1);
            self.flush(false)?;
        }
        if self
            .sources
            .iter()
            .all(|s| s.parts.iter().all(|p| p.finished))
        {
            self.complete()?;
        } else {
            // Backpressure signal choice: this driver has a real queue to
            // measure — the pending merge buffers, holding worker output
            // the deterministic merge has not yet been able to release to
            // sinks. That depth is entries of real memory and grows
            // without bound exactly when the merge cannot keep up (deep
            // hold-back, stalled clock), unlike watermark lag, which
            // under barrier-per-round scheduling mostly encodes the
            // query's structural event-time offset (gates, delays). So
            // depth drives the controller (against the absolute
            // high/low_pending bounds — see BatchController::observe_load
            // for why ratios of the batch size would cancel out); the lag
            // reading rides along only as the documented fallback for
            // depth-less drivers.
            let depth = self.pending.iter().map(|p| p.len()).sum::<usize>();
            self.metrics.pending_depth = depth as u64;
            self.metrics.batch_size = self.controller.observe_load(
                Some(depth),
                PipelineMetrics::lag_between(self.ledger.input_watermark(), self.output_watermark),
            );
        }
        self.metrics.poll_micros.record(poll_micros);
        self.metrics.round_micros.record(round.micros());
        self.publish_snapshot();
        Ok(ingested)
    }

    /// Scatter a barrier to every worker, then gather the answers in
    /// worker order. Sending to all before waiting on any is what makes
    /// the barrier run in parallel across worker threads.
    fn gather<T, F>(&mut self, make: impl Fn(usize) -> F) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: FnOnce(&mut WorkerState) -> Result<T> + Send + 'static,
    {
        let mut replies = Vec::with_capacity(self.workers.len());
        for (w, worker) in self.workers.iter_mut().enumerate() {
            replies.push(worker.barrier(make(w))?);
        }
        replies.into_iter().map(Reply::wait).collect()
    }

    /// Barrier: every worker reports its new changelog entries (into the
    /// per-worker pending buffers) and its output watermark. On return,
    /// every command sent so far has been fully processed.
    fn drain_workers(&mut self) -> Result<()> {
        let replies = self.gather(|_| WorkerState::drain)?;
        let mut combined = Watermark::MAX;
        let mut retained = 0;
        for (w, reply) in replies.into_iter().enumerate() {
            for entry in reply.entries {
                self.pending[w].push_back((self.next_seq[w], entry));
                self.next_seq[w] += 1;
            }
            combined = combined.min(reply.watermark);
            retained += reply.retained;
        }
        self.output_watermark = combined;
        self.metrics.changelog_retained = retained as u64;
        Ok(())
    }

    /// Flush the deterministic merge: emit every held entry with
    /// `ptime < clock` (or all of them at finish) in `(ptime, worker,
    /// seq)` order, rendered with `EMIT STREAM` version numbering shared
    /// across all workers.
    fn flush(&mut self, everything: bool) -> Result<()> {
        let mut batch: Vec<(Ts, usize, u64, TimedChange)> = Vec::new();
        let clock = self.clock;
        for (w, pending) in self.pending.iter_mut().enumerate() {
            while pending
                .front()
                .is_some_and(|(_, entry)| everything || entry.ptime < clock)
            {
                if let Some((seq, entry)) = pending.pop_front() {
                    batch.push((entry.ptime, w, seq, entry));
                }
            }
        }
        if !batch.is_empty() {
            // Current span while sinks write: a `NetSink` attaches it to
            // outgoing BATCH frames as the consumer side's trace parent.
            let _emit_span = observe::TraceSpan::child("driver.emit");
            let emit = Stopwatch::start();
            batch.sort_by_key(|&(ptime, worker, seq, _)| (ptime, worker, seq));
            let mut rows: Vec<StreamRow> = Vec::with_capacity(batch.len());
            for (_, _, _, entry) in batch {
                self.renderer.render_owned(entry, &mut rows)?;
            }
            self.metrics.events_out += rows.len() as u64;
            for sink in &mut self.sinks {
                sink.write(&rows)?;
            }
            if let Some(tap) = &self.tap {
                tap.record_rows(&rows);
            }
            self.metrics.emit_micros.record(emit.micros());
        }
        self.notify_sink_watermark()
    }

    /// Report the combined output watermark to sinks — but only while no
    /// entries are held back, so a sink never hears "complete up to W"
    /// before the rows W released.
    fn notify_sink_watermark(&mut self) -> Result<()> {
        if !self.pending.iter().all(|p| p.is_empty()) {
            return Ok(());
        }
        if self.output_watermark > self.sink_watermark {
            self.sink_watermark = self.output_watermark;
            for sink in &mut self.sinks {
                sink.on_watermark(self.sink_watermark)?;
            }
            if let Some(tap) = &self.tap {
                tap.record(HistoryEvent::Watermark(self.sink_watermark));
            }
        }
        Ok(())
    }

    /// Declare the pipeline complete: workers flush all gated
    /// materialization, the merge drains entirely, sinks flush, and the
    /// workers stop. Idempotent on success; a failed finish
    /// poisons the driver (it does NOT report finished), so callers can't
    /// mistake a half-flushed pipeline for a completed one.
    pub fn finish(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.complete()?;
        self.publish_snapshot();
        Ok(())
    }

    /// [`ShardedPipelineDriver::finish`] without the hub snapshot: a round
    /// that finishes the pipeline publishes once, at the end of the round.
    fn complete(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(Error::exec(
                "pipeline is poisoned by an earlier failure; \
                 restore the last checkpoint into a fresh driver",
            ));
        }
        match self.finish_inner() {
            Ok(()) => {
                self.finished = true;
                self.metrics.pending_depth = 0;
                if let Some(tap) = &self.tap {
                    tap.record(HistoryEvent::Finished);
                }
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn finish_inner(&mut self) -> Result<()> {
        if observe::enabled() {
            observe::set_thread_pipeline(self.label.as_deref().unwrap_or(""));
        }
        let _finish_span = observe::TraceSpan::root("driver.finish");
        let clock = self.clock;
        self.broadcast(|| Cmd::Finish(clock))?;
        self.drain_workers()?;
        self.flush(true)?;
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        // Every event is materialized in the sinks: acknowledge the final
        // offsets so upstream processes holding a replay spool for this
        // pipeline know they can drain and exit.
        for slot in &mut self.sources {
            for part in 0..slot.parts.len() {
                let offset = slot.source.offset(part);
                slot.source.ack(part, offset)?;
            }
        }
        for worker in std::mem::take(&mut self.workers) {
            self.final_queries.push(worker.join()?);
        }
        self.refresh_metrics();
        Ok(())
    }

    /// Run until every partition finishes. All-idle rounds yield the
    /// thread; `max_idle_rounds` bounds the wait, erroring on exhaustion
    /// so a stuck pipeline is loud.
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
                if let Some(limit) = self.config.driver.max_idle_rounds {
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

    /// The merged final table: the disjoint union of the workers' result
    /// partitions, in row order. Only available after the pipeline
    /// finished (before that the rows live in the workers), and only with
    /// [`ShardedPipelineDriver::retain_table`]; otherwise it fails with
    /// [`Error::NotRetained`].
    pub fn table(&self) -> Result<Vec<Row>> {
        if !self.finished {
            return Err(Error::exec("table() requires a finished pipeline"));
        }
        let mut rows = Vec::new();
        for query in &self.final_queries {
            rows.extend(query.table()?);
        }
        rows.sort();
        Ok(rows)
    }

    /// The merged table view **as of** processing time `at` (a temporal
    /// `AS OF` probe): the union of the workers' `table_at` snapshots, in
    /// sorted row order. Requires [`ShardedPipelineDriver::retain_table`].
    /// Unlike [`ShardedPipelineDriver::table`] this works mid-run — the
    /// probe barriers each worker, so it reflects every event routed
    /// before the call. A probe at `at` strictly below
    /// the current [`ShardedPipelineDriver::clock`] is *stable*: future
    /// events are stamped at or above the clock, so re-reading the same
    /// `at` later returns identical rows.
    ///
    /// After a restore the workers' changelogs restart, so the probe only
    /// covers changes since the restore point — probes are meaningful
    /// within one incarnation.
    pub fn table_at(&mut self, at: Ts) -> Result<Vec<Row>> {
        if self.finished {
            let mut rows = Vec::new();
            for query in &self.final_queries {
                rows.extend(query.table_at(at)?);
            }
            rows.sort();
            return Ok(rows);
        }
        if self.poisoned {
            return Err(Error::exec(
                "pipeline is poisoned by an earlier failure; \
                 restore the last checkpoint into a fresh driver",
            ));
        }
        let mut rows = Vec::new();
        for part in
            self.gather(|_| move |state: &mut WorkerState| state.checked(|s| s.query.table_at(at)))?
        {
            rows.extend(part);
        }
        rows.sort();
        Ok(rows)
    }

    /// The driver's monotone processing-time clock: the max ptime stamped
    /// onto any routed event so far. Changelog entries strictly below the
    /// clock are final (see the module docs' determinism argument), which
    /// is what makes [`ShardedPipelineDriver::table_at`] probes below it
    /// stable.
    pub fn clock(&self) -> Ts {
        self.clock
    }

    /// Take a consistent whole-pipeline snapshot: barrier the workers,
    /// capture their operator state, and record source offsets plus the
    /// driver's merge cursors. The pipeline keeps running afterwards.
    ///
    /// The snapshot is only in memory; once the caller has persisted it,
    /// [`ShardedPipelineDriver::ack_checkpoint`] tells the sources (and
    /// any remote producers behind them) that everything below it may be
    /// garbage-collected.
    pub fn checkpoint(&mut self) -> Result<PipelineCheckpoint> {
        if self.finished {
            return Err(Error::exec("cannot checkpoint a finished pipeline"));
        }
        if self.poisoned {
            // The recorded source offsets would include events that never
            // reached a worker: such a checkpoint replays with gaps.
            return Err(Error::exec(
                "cannot checkpoint a poisoned pipeline (a step failed after \
                 its sources were polled)",
            ));
        }
        // Barrier first: all in-flight commands processed, pending buffers
        // current, so the captured cursors and state agree.
        self.drain_workers()?;
        let worker_states =
            self.gather(|_| |state: &mut WorkerState| state.checked(|s| s.query.checkpoint()))?;
        // Stage the sinks under the new epoch *before* handing the
        // checkpoint to the caller: a transactional sink durably records
        // "everything written so far is epoch E" now, so whether or not
        // the caller ever persists E, a restore of any persisted epoch
        // finds its staging boundary on disk.
        self.epoch += 1;
        for sink in &mut self.sinks {
            sink.on_checkpoint(self.epoch)?;
        }
        if let Some(tap) = &self.tap {
            tap.record(HistoryEvent::CheckpointTaken { epoch: self.epoch });
        }
        let checkpoint = PipelineCheckpoint {
            workers: worker_states,
            offsets: self
                .sources
                .iter()
                .map(|s| (0..s.parts.len()).map(|p| s.source.offset(p)).collect())
                .collect(),
            finished: self
                .sources
                .iter()
                .map(|s| s.parts.iter().map(|p| p.finished).collect())
                .collect(),
            feeders: self.ledger.feeder_watermarks().to_vec(),
            clock: self.clock,
            batch_size: self.controller.size(),
            pending: self
                .pending
                .iter()
                .map(|p| p.iter().cloned().collect())
                .collect(),
            next_seq: self.next_seq.clone(),
            renderer_versions: self.renderer.versions(),
            sink_watermark: self.sink_watermark,
            output_watermark: self.output_watermark,
            events_out: self.metrics.events_out,
            watermarks_in: self.metrics.watermarks_in,
            source_bytes: self
                .sources
                .iter()
                .map(|s| s.parts.iter().map(|p| p.bytes).collect())
                .collect(),
            epoch: self.epoch,
        };
        Ok(checkpoint)
    }

    /// Acknowledge a checkpoint the caller has made **durable**: forward
    /// its per-partition offsets to every source's
    /// [`PartitionedSource::ack`] hook, declaring them the new resume
    /// floor — no future restore will ever ask for earlier events, so
    /// sources (and, through them, remote producers holding a replay
    /// spool) may release replay resources below it.
    ///
    /// Deliberately separate from [`ShardedPipelineDriver::checkpoint`]:
    /// taking a checkpoint only builds an in-memory struct, and acking it
    /// before it is persisted would let the upstream trim away the only
    /// data that could rebuild it — a crash in that window would leave
    /// every surviving (older) checkpoint unrestorable. Call this after
    /// the checkpoint is safely stored; skipping it entirely is always
    /// correct, just less memory-frugal upstream.
    pub fn ack_checkpoint(&mut self, checkpoint: &PipelineCheckpoint) -> Result<()> {
        if checkpoint.offsets.len() != self.sources.len() {
            return Err(Error::exec(format!(
                "checkpoint has {} sources, driver has {}",
                checkpoint.offsets.len(),
                self.sources.len()
            )));
        }
        for (slot, offsets) in checkpoint.offsets.iter().enumerate() {
            if offsets.len() != self.sources[slot].parts.len() {
                return Err(Error::exec(format!(
                    "checkpoint source {slot} has {} partitions, driver has {}",
                    offsets.len(),
                    self.sources[slot].parts.len()
                )));
            }
            for (part, &offset) in offsets.iter().enumerate() {
                self.sources[slot].source.ack(part, offset)?;
            }
        }
        // Second phase for two-phase sinks: the epoch is durable, staged
        // rows below it are committed.
        for sink in &mut self.sinks {
            sink.commit_checkpoint(checkpoint.epoch)?;
        }
        Ok(())
    }

    /// Resume from a [`PipelineCheckpoint`]: restore every worker's
    /// operator state, seek every source partition to its recorded offset,
    /// and reload the merge/render/watermark cursors. Requires a fresh
    /// driver (same SQL, worker count, and source shapes, attached in the
    /// same order) that has not yet stepped.
    pub fn restore(&mut self, checkpoint: &PipelineCheckpoint) -> Result<()> {
        if self.metrics.rounds > 0 || self.metrics.events_in > 0 || self.restored {
            return Err(Error::exec("restore requires a fresh pipeline driver"));
        }
        if checkpoint.workers.len() != self.workers.len() {
            return Err(Error::exec(format!(
                "checkpoint has {} workers, driver has {}",
                checkpoint.workers.len(),
                self.workers.len()
            )));
        }
        if checkpoint.offsets.len() != self.sources.len() {
            return Err(Error::exec(format!(
                "checkpoint has {} sources, driver has {}",
                checkpoint.offsets.len(),
                self.sources.len()
            )));
        }
        for (slot, offsets) in checkpoint.offsets.iter().enumerate() {
            if offsets.len() != self.sources[slot].parts.len() {
                return Err(Error::exec(format!(
                    "checkpoint source {slot} has {} partitions, driver has {}",
                    offsets.len(),
                    self.sources[slot].parts.len()
                )));
            }
        }
        // The fields are public (checkpoints may round-trip through
        // external storage), so validate every vec we will index rather
        // than panicking on a truncated one.
        if checkpoint.finished.len() != checkpoint.offsets.len()
            || checkpoint
                .finished
                .iter()
                .zip(&checkpoint.offsets)
                .any(|(f, o)| f.len() != o.len())
        {
            return Err(Error::exec(
                "checkpoint finished-flags do not match its offsets shape",
            ));
        }
        if checkpoint.source_bytes.len() != checkpoint.offsets.len()
            || checkpoint
                .source_bytes
                .iter()
                .zip(&checkpoint.offsets)
                .any(|(b, o)| b.len() != o.len())
        {
            return Err(Error::exec(
                "checkpoint byte counters do not match its offsets shape",
            ));
        }
        if checkpoint.pending.len() != self.workers.len()
            || checkpoint.next_seq.len() != self.workers.len()
        {
            return Err(Error::exec(format!(
                "checkpoint pending/next_seq cover {}/{} workers, driver has {}",
                checkpoint.pending.len(),
                checkpoint.next_seq.len(),
                self.workers.len()
            )));
        }
        let feeder_count = self.ledger.feeder_watermarks().len();
        if checkpoint.feeders.len() != feeder_count {
            return Err(Error::exec(format!(
                "checkpoint has {} feeders, driver has {feeder_count}",
                checkpoint.feeders.len()
            )));
        }

        // Validation is done; from here on state mutates, and a partial
        // failure (e.g. one partition's seek) would leave workers holding
        // checkpoint state over half-reset cursors — poison rather than
        // let a caller step a Frankenstein pipeline.
        match self.restore_inner(checkpoint) {
            Ok(()) => {
                self.restored = true;
                self.refresh_metrics();
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn restore_inner(&mut self, checkpoint: &PipelineCheckpoint) -> Result<()> {
        // Workers first (operator state), then sources (replay position).
        self.gather(|w| {
            let checkpoint = checkpoint.workers[w].clone();
            move |state: &mut WorkerState| state.query.restore(&checkpoint)
        })?;
        // Sinks next: a transactional sink truncates everything staged
        // after this epoch, so the replayed rows append exactly where the
        // uninterrupted run had them.
        for sink in &mut self.sinks {
            sink.on_restore(checkpoint.epoch)?;
        }
        for (slot, offsets) in checkpoint.offsets.iter().enumerate() {
            for (part, &offset) in offsets.iter().enumerate() {
                // Seek unconditionally — even to offset 0. For local
                // replayable sources that is a no-op, but a source whose
                // upstream is another process uses the seek to learn the
                // resume position it must announce in its handshake, and
                // "resume from the beginning" is as real a position as any.
                self.sources[slot].source.seek(part, offset)?;
                let state = &mut self.sources[slot].parts[part];
                state.events = offset;
                state.bytes = checkpoint.source_bytes[slot][part];
                state.finished = checkpoint.finished[slot][part];
            }
        }
        // Re-observe the feeder watermarks; the advances this generates
        // are discarded — the workers' restored state already reflects
        // every watermark that was delivered before the checkpoint.
        let mut discard = Vec::new();
        for (feeder, wm) in checkpoint.feeders.iter().enumerate() {
            self.ledger.observe(feeder, *wm, &mut discard);
        }
        self.clock = checkpoint.clock;
        self.controller.set_size(checkpoint.batch_size);
        self.pending = checkpoint
            .pending
            .iter()
            .map(|p| p.iter().cloned().collect())
            .collect();
        self.next_seq = checkpoint.next_seq.clone();
        self.renderer
            .set_versions(checkpoint.renderer_versions.clone());
        self.sink_watermark = checkpoint.sink_watermark;
        self.output_watermark = checkpoint.output_watermark;
        self.epoch = checkpoint.epoch;
        self.metrics.events_in = checkpoint.offsets.iter().flatten().sum();
        self.metrics.events_out = checkpoint.events_out;
        self.metrics.watermarks_in = checkpoint.watermarks_in;
        self.metrics.bytes_in = checkpoint.source_bytes.iter().flatten().sum();
        self.metrics.checkpoint_epoch = checkpoint.epoch;
        self.metrics.restores += 1;
        observe::counter("driver.restores", 1);
        if let Some(tap) = &self.tap {
            tap.record(HistoryEvent::Restored {
                epoch: checkpoint.epoch,
            });
        }
        Ok(())
    }
}

impl Drop for ShardedPipelineDriver {
    fn drop(&mut self) {
        // Reap the worker threads; leaking threads from an abandoned
        // (e.g. crashed-and-dropped) pipeline would accumulate in tests.
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ShardedPipelineDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPipelineDriver")
            .field("workers", &self.workers.len().max(self.final_queries.len()))
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
    use crate::connect::{SourceBatch, SourceEvent};
    use crate::engine::StreamBuilder;
    use onesql_types::{row, DataType};

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register_stream(
            "Bid",
            StreamBuilder::new()
                .column("auction", DataType::Int)
                .column("price", DataType::Int)
                .event_time_column("ts"),
        );
        e
    }

    /// A replayable partitioned source: each partition emits its scripted
    /// events in order, asserting a watermark at its max event time.
    struct ScriptPartitions {
        name: String,
        streams: Vec<String>,
        parts: Vec<Vec<(Ts, Row)>>,
        cursors: Vec<usize>,
    }

    impl ScriptPartitions {
        fn new(parts: Vec<Vec<(Ts, Row)>>) -> ScriptPartitions {
            ScriptPartitions {
                name: "script".to_string(),
                streams: vec!["Bid".to_string()],
                cursors: vec![0; parts.len()],
                parts,
            }
        }
    }

    impl PartitionedSource for ScriptPartitions {
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
            let cursor = self.cursors[partition];
            let script = &self.parts[partition];
            let take = max_events.min(script.len() - cursor);
            let mut batch = SourceBatch::empty(SourceStatus::Ready);
            for (ptime, row) in &script[cursor..cursor + take] {
                batch.events.push(SourceEvent {
                    stream: 0,
                    ptime: *ptime,
                    change: Change::insert(row.clone()),
                });
                batch.watermark = Some(batch.watermark.map_or(*ptime, |w: Ts| w.max(*ptime)));
            }
            self.cursors[partition] += take;
            if self.cursors[partition] == script.len() {
                batch.status = SourceStatus::Finished;
            }
            Ok(batch)
        }
        fn offset(&self, partition: usize) -> u64 {
            self.cursors[partition] as u64
        }
    }

    fn bids(n: i64, salt: i64) -> Vec<(Ts, Row)> {
        (0..n)
            .map(|i| (Ts(i * 10 + salt), row!(i % 5, i + salt, Ts(i * 10 + salt))))
            .collect()
    }

    const AGG: &str = "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction";

    #[test]
    fn sharded_matches_unsharded_table() {
        let e = engine();
        let parts = vec![bids(40, 0), bids(40, 3), bids(40, 7)];
        let mut tables = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut driver =
                ShardedPipelineDriver::new(&e, AGG, ShardedConfig::new(workers)).unwrap();
            driver
                .attach_partitioned_source(Box::new(ScriptPartitions::new(parts.clone())))
                .unwrap();
            driver.retain_table().unwrap();
            driver.run().unwrap();
            tables.push(driver.table().unwrap());
        }
        assert_eq!(tables[0], tables[1], "2 workers diverged");
        assert_eq!(tables[0], tables[2], "4 workers diverged");
    }

    #[test]
    fn zero_workers_rejected() {
        let e = engine();
        assert!(ShardedPipelineDriver::new(&e, AGG, ShardedConfig::new(0)).is_err());
    }

    #[test]
    fn table_requires_finish() {
        let e = engine();
        let mut driver = ShardedPipelineDriver::new(&e, AGG, ShardedConfig::new(2)).unwrap();
        driver
            .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(5, 0)])))
            .unwrap();
        driver.retain_table().unwrap();
        assert!(driver.table().is_err());
        driver.run().unwrap();
        assert!(driver.table().is_ok());
    }

    #[test]
    fn restore_validates_shapes() {
        // One worker runs inline, two run as threads: both must validate.
        for workers in [1usize, 2] {
            let e = engine();
            // Small fixed batches so one step leaves the source mid-stream.
            let config = ShardedConfig::new(workers).with_driver(DriverConfig {
                batch_size: 4,
                adaptive: None,
                ..DriverConfig::default()
            });
            let mut driver = ShardedPipelineDriver::new(&e, AGG, config).unwrap();
            driver
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(20, 0)])))
                .unwrap();
            driver.step().unwrap();
            let cp = driver.checkpoint().unwrap();

            // Wrong worker count.
            let mut other = ShardedPipelineDriver::new(&e, AGG, ShardedConfig::new(3)).unwrap();
            other
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(20, 0)])))
                .unwrap();
            assert!(other.restore(&cp).is_err(), "workers = {workers}");

            // Wrong partition count.
            let mut other =
                ShardedPipelineDriver::new(&e, AGG, ShardedConfig::new(workers)).unwrap();
            other
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![
                    bids(10, 0),
                    bids(10, 1),
                ])))
                .unwrap();
            assert!(other.restore(&cp).is_err(), "workers = {workers}");

            // A driver that already ran refuses restore.
            let mut other = ShardedPipelineDriver::new(&e, AGG, config).unwrap();
            other
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(20, 0)])))
                .unwrap();
            other.step().unwrap();
            assert!(other.restore(&cp).is_err(), "workers = {workers}");

            // A restored driver seals its source set and refuses a second
            // restore: attaching would rebuild the watermark trackers and
            // wipe the state the restore just loaded.
            let mut other = ShardedPipelineDriver::new(&e, AGG, config).unwrap();
            other
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(20, 0)])))
                .unwrap();
            other.restore(&cp).unwrap();
            assert!(other
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(20, 0)])))
                .is_err());
            assert!(other.restore(&cp).is_err(), "workers = {workers}");
            // But it still runs to completion normally.
            other.run().unwrap();
            assert!(other.is_finished());
        }
    }

    #[test]
    fn failed_step_poisons_the_pipeline() {
        for workers in [1usize, 2] {
            let e = engine();
            // Partition column out of range: the first step fails after
            // the source was polled, so the driver must refuse to continue
            // or checkpoint (the polled events never reached a worker).
            let config = ShardedConfig::new(workers).with_partition_col(9);
            let mut driver = ShardedPipelineDriver::new(&e, AGG, config).unwrap();
            driver
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(5, 0)])))
                .unwrap();
            assert!(driver.step().is_err(), "workers = {workers}");
            let err = driver.step().unwrap_err().to_string();
            assert!(err.contains("poisoned"), "workers = {workers}: {err}");
            let err = driver.checkpoint().unwrap_err().to_string();
            assert!(err.contains("poisoned"), "workers = {workers}: {err}");
        }
    }

    #[test]
    fn worker_failure_surfaces_at_the_next_barrier() {
        // A query error inside the worker (not in routing) is held until
        // the round's drain barrier reports it, then poisons the driver —
        // the same whether the worker runs inline or on a thread.
        for workers in [1usize, 2] {
            let e = engine();
            let mut driver =
                ShardedPipelineDriver::new(&e, AGG, ShardedConfig::new(workers)).unwrap();
            // Rows with the wrong arity fail inside `RunningQuery::change`.
            let bad = vec![(Ts(1), row!(1i64)), (Ts(2), row!(2i64))];
            driver
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bad])))
                .unwrap();
            assert!(driver.step().is_err(), "workers = {workers}");
            let err = driver.table_at(Ts(0)).unwrap_err().to_string();
            assert!(err.contains("poisoned"), "workers = {workers}: {err}");
        }
    }

    #[test]
    fn mid_run_table_at_is_stable_inline() {
        // `table_at` barriers the inline worker exactly as it barriers
        // threads: a probe below the clock answers the same mid-run, after
        // more input, after finish, and at any worker count.
        let probe = |workers: usize| {
            let e = engine();
            let config = ShardedConfig::new(workers).with_driver(DriverConfig {
                batch_size: 4,
                adaptive: None,
                ..DriverConfig::default()
            });
            let mut driver = ShardedPipelineDriver::new(&e, AGG, config).unwrap();
            driver
                .attach_partitioned_source(Box::new(ScriptPartitions::new(vec![bids(40, 0)])))
                .unwrap();
            driver.retain_table().unwrap();
            for _ in 0..3 {
                driver.step().unwrap();
            }
            let at = Ts(driver.clock().0 - 1);
            let mid = driver.table_at(at).unwrap();
            driver.step().unwrap();
            assert_eq!(driver.table_at(at).unwrap(), mid, "re-read after a step");
            driver.run().unwrap();
            assert_eq!(driver.table_at(at).unwrap(), mid, "re-read after finish");
            (at, mid)
        };
        let (at, inline) = probe(1);
        assert!(!inline.is_empty(), "the probe saw the first rounds' rows");
        assert_eq!(probe(2), (at, inline), "threaded workers agree");
    }

    #[test]
    fn single_partition_adapter_reports_offsets() {
        struct Counting {
            name: String,
            streams: Vec<String>,
            left: usize,
        }
        impl Source for Counting {
            fn name(&self) -> &str {
                &self.name
            }
            fn streams(&self) -> &[String] {
                &self.streams
            }
            fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
                let take = max_events.min(self.left);
                self.left -= take;
                let mut batch = SourceBatch::empty(if self.left == 0 {
                    SourceStatus::Finished
                } else {
                    SourceStatus::Ready
                });
                for i in 0..take {
                    batch.events.push(SourceEvent {
                        stream: 0,
                        ptime: Ts(i as i64),
                        change: Change::insert(row!(1i64, 1i64, Ts(i as i64))),
                    });
                }
                Ok(batch)
            }
        }
        let mut adapted = SinglePartition::new(Box::new(Counting {
            name: "counting".to_string(),
            streams: vec!["Bid".to_string()],
            left: 10,
        }));
        assert_eq!(adapted.partitions(), 1);
        assert_eq!(adapted.offset(0), 0);
        adapted.poll_partition(0, 4).unwrap();
        assert_eq!(adapted.offset(0), 4);
        // Default seek replays forward and refuses to rewind.
        adapted.seek(0, 8).unwrap();
        assert_eq!(adapted.offset(0), 8);
        assert!(adapted.seek(0, 2).is_err());
        assert!(adapted.seek(0, 100).is_err(), "exhausts at 10");
    }
}

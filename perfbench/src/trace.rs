//! Tracing from outside the program: spans around calls into each layer's
//! public functions, recorded by the benchmark itself.
//!
//! Connectors are timed by re-registering the `file` and `net` factories
//! of [`onesql_connect::default_registry`] under their own names. Each
//! replacement delegates to the original factory and wraps what it builds
//! in an adapter that forwards every trait method, so the SQL script is
//! unchanged and the program takes the same paths (dropping
//! `poll_columns`, say, would silently turn off the columnar file path).
//!
//! Spans are kept in memory with parent links and read out when the run
//! ends; self time is a span's duration minus its children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use onesql_connect::{
    default_registry, AnySource, ConnectorRegistry, Exports, OptionBag, PartitionedSource, Sink,
    SinkConnector, SinkSpec, Source, SourceBatch, SourceConnector, SourceSpec,
};
use onesql_core::connect::ColumnarBatch;
use onesql_core::StreamRow;
use onesql_time::Watermark;
use onesql_types::{Result, SchemaRef};

use crate::stats::Weighted;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique, never zero.
    pub id: u64,
    /// The enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `source.poll_batch`.
    pub name: &'static str,
    /// Small per-thread number, in order of first span.
    pub tid: u64,
    /// Start, in nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Work the call did: events polled, rows written.
    pub count: u64,
}

impl SpanRecord {
    /// Wall-clock length of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; [`Open::close`] names and records it. Spans on one
/// thread must close in reverse order of opening.
pub struct Open {
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// Open a span as a child of the innermost open span on this thread.
pub fn open() -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Open {
        id,
        parent,
        start_ns: now_ns(),
    }
}

impl Open {
    /// Close the span, naming it now that the call's outcome is known.
    pub fn close(self, name: &'static str, count: u64) {
        let end_ns = now_ns();
        OPEN.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order");
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name,
            tid: TID.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            count,
        };
        RECORDS
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(record);
    }
}

/// Run `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = open();
    let out = f();
    open.close(name, 0);
    out
}

/// Drain every span recorded so far.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *RECORDS.lock().expect("span recorder poisoned"))
}

/// Per span name: calls, total and self time, summed work counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part child spans cover.
    pub self_ns: u64,
    /// Summed [`SpanRecord::count`].
    pub count: u64,
}

/// Aggregate spans by name. Children run on their parent's thread inside
/// its call, so they never overlap and their durations simply subtract.
pub fn layers(spans: &[SpanRecord]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.dur_ns();
        layer.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        layer.count += s.count;
    }
    out
}

/// A fixed-width self-time table, one row per span name.
pub fn self_time_table(layers: &BTreeMap<&'static str, Layer>) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms", "count"
    );
    for (name, l) in layers {
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>12}",
            name,
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.count
        );
    }
    out
}

/// Chrome trace-event JSON (the array form `TRACE PIPELINE ... TO`
/// writes): one complete (`"ph":"X"`) event per span, times in
/// microseconds, span and parent IDs as hex strings in `args`.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"perfbench\"}}");
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":\"{:#x}\",\"parent\":\"{:#x}\",\"count\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.count
        );
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Result latency: the one instrument of an untraced run.
// ---------------------------------------------------------------------------

/// When results were due and when the sink saw them.
///
/// Open-loop runs stamp each event's processing time with its scheduled
/// send time in microseconds since [`LatencyLog::origin`], so an output
/// row's `ptime` is the due time of the event that triggered it.
/// Closed-loop runs have all input available at the origin, so every row
/// is due there.
#[derive(Debug, Default)]
pub struct LatencyLog {
    origin: OnceLock<Instant>,
    due_from_ptime: bool,
    samples: Mutex<Weighted>,
}

impl LatencyLog {
    /// A log whose rows are due at their `ptime` (open loop) or at the
    /// origin (closed loop).
    pub fn new(due_from_ptime: bool) -> LatencyLog {
        LatencyLog {
            due_from_ptime,
            ..LatencyLog::default()
        }
    }

    /// Fix the instant due times count from; later calls are ignored.
    pub fn set_origin(&self, at: Instant) {
        let _ = self.origin.set(at);
    }

    fn record(&self, rows: &[StreamRow]) {
        // The single clock read of this write call.
        let now = Instant::now();
        let Some(origin) = self.origin.get() else {
            return;
        };
        let now_us = now.duration_since(*origin).as_micros() as i64;
        let mut samples = self.samples.lock().expect("latency log poisoned");
        if self.due_from_ptime {
            for row in rows.iter().filter(|r| !r.undo) {
                samples.push((now_us - row.ptime.millis()).max(0) as u64, 1);
            }
        } else {
            let inserts = rows.iter().filter(|r| !r.undo).count() as u64;
            samples.push(now_us.max(0) as u64, inserts);
        }
    }

    /// The samples recorded so far.
    pub fn samples(&self) -> Weighted {
        self.samples.lock().expect("latency log poisoned").clone()
    }
}

// ---------------------------------------------------------------------------
// Adapters.
// ---------------------------------------------------------------------------

/// A plain source, every method forwarded; polls are spans when traced.
struct TimedSource(Box<dyn Source>);

impl Source for TimedSource {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn streams(&self) -> &[String] {
        self.0.streams()
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        let open = open();
        let batch = self.0.poll_batch(max_events);
        open.close("source.poll_batch", events_of(&batch));
        batch
    }

    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        let open = open();
        let batch = self.0.poll_columns(max_events);
        match &batch {
            Ok(Some(b)) => open.close("source.poll_columns", b.columns.len() as u64),
            _ => open.close("source.poll_columns.none", 0),
        }
        batch
    }
}

/// A partitioned source, every method forwarded.
struct TimedPartitioned(Box<dyn PartitionedSource>);

impl PartitionedSource for TimedPartitioned {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn streams(&self) -> &[String] {
        self.0.streams()
    }

    fn partitions(&self) -> usize {
        self.0.partitions()
    }

    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        let open = open();
        let batch = self.0.poll_partition(partition, max_events);
        open.close("source.poll_partition", events_of(&batch));
        batch
    }

    fn offset(&self, partition: usize) -> u64 {
        self.0.offset(partition)
    }

    fn seek(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.0.seek(partition, offset)
    }

    fn ack(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.0.ack(partition, offset)
    }
}

fn events_of(batch: &Result<SourceBatch>) -> u64 {
    batch.as_ref().map_or(0, |b| b.events.len() as u64)
}

/// A sink, every method forwarded. Always feeds the latency log; spans
/// each call when traced.
struct RecordingSink {
    inner: Box<dyn Sink>,
    latency: Arc<LatencyLog>,
    traced: bool,
}

impl RecordingSink {
    fn timed<T>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut dyn Sink) -> T,
    ) -> T {
        if !self.traced {
            return f(self.inner.as_mut());
        }
        let open = open();
        let out = f(self.inner.as_mut());
        open.close(name, count);
        out
    }
}

impl Sink for RecordingSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bind(&mut self, schema: SchemaRef) -> Result<()> {
        self.inner.bind(schema)
    }

    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        let out = self.timed("sink.write", rows.len() as u64, |s| s.write(rows));
        self.latency.record(rows);
        out
    }

    fn on_watermark(&mut self, wm: Watermark) -> Result<()> {
        self.timed("sink.on_watermark", 0, |s| s.on_watermark(wm))
    }

    fn on_checkpoint(&mut self, epoch: u64) -> Result<()> {
        self.timed("sink.on_checkpoint", 0, |s| s.on_checkpoint(epoch))
    }

    fn commit_checkpoint(&mut self, epoch: u64) -> Result<()> {
        self.timed("sink.commit_checkpoint", 0, |s| s.commit_checkpoint(epoch))
    }

    fn on_restore(&mut self, epoch: u64) -> Result<()> {
        self.inner.on_restore(epoch)
    }

    fn flush(&mut self) -> Result<()> {
        self.timed("sink.flush", 0, |s| s.flush())
    }
}

/// Delegates to the original source factory, wrapping what it builds.
struct WrapSource(Arc<dyn SourceConnector>);

impl SourceConnector for WrapSource {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        self.0.declare(spec, options)
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<AnySource> {
        Ok(match self.0.build(spec, options, exports)? {
            AnySource::Plain(s) => AnySource::Plain(Box::new(TimedSource(s))),
            AnySource::Partitioned(p) => AnySource::Partitioned(Box::new(TimedPartitioned(p))),
        })
    }
}

/// Delegates to the original sink factory, wrapping what it builds.
struct WrapSink {
    inner: Arc<dyn SinkConnector>,
    latency: Arc<LatencyLog>,
    traced: bool,
}

impl SinkConnector for WrapSink {
    fn declare(&self, spec: &SinkSpec, options: &mut OptionBag) -> Result<()> {
        self.inner.declare(spec, options)
    }

    fn build(
        &self,
        spec: &SinkSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn Sink>> {
        Ok(Box::new(RecordingSink {
            inner: self.inner.build(spec, options, exports)?,
            latency: self.latency.clone(),
            traced: self.traced,
        }))
    }
}

/// The default registry with the `file` sink feeding `latency`; when
/// `traced`, the `file` and `net` sources and the `file` sink are also
/// timed.
pub fn registry(latency: Arc<LatencyLog>, traced: bool) -> Result<ConnectorRegistry> {
    let mut registry = default_registry();
    let file_sink = registry.sink("file")?;
    registry.register_sink(
        "file",
        WrapSink {
            inner: file_sink,
            latency,
            traced,
        },
    );
    if traced {
        for name in ["file", "net"] {
            let original = registry.source(name)?;
            registry.register_source(name, WrapSource(original));
        }
    }
    Ok(registry)
}

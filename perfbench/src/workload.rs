//! The three workloads: their inputs, their SQL scripts, and one measured
//! repetition run through `Session::execute_script`.
//!
//! All three read NEXMark `Bid(auction, bidder, price, dateTime)` from
//! `onesql_nexmark`'s seeded generator. The engine is reached only through
//! the SQL front door: scripts, `SqlPipeline::{step, run, checkpoint_to,
//! metrics}`, and connector factories.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use onesql_connect::{NetAddr, NetConfig, NetPublisher, Session, SqlPipeline};
use onesql_core::Engine;
use onesql_nexmark::model::Bid;
use onesql_nexmark::{GeneratorConfig, NexmarkEvent, NexmarkGenerator};
use onesql_types::{Row, Ts};

use crate::stats::{self, Weighted};
use crate::sys;
use crate::trace::{self, LatencyLog, Layer, SpanRecord};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stateless filter over one CSV file into an appends-mode CSV sink.
    Scan,
    /// Keyed tumbling-window aggregate over four CSV partitions, two
    /// workers, checkpointed, into a transactional CSV sink.
    KeyedWindow,
    /// Un-gated `EMIT STREAM` window aggregate fed over loopback TCP at a
    /// fixed rate, checkpointed, into a transactional changelog-mode CSV
    /// sink.
    NetUpdates,
}

impl Workload {
    /// Every workload the command runs. `keyed_window` is not listed in
    /// BENCHMARK.json: on a 2-vCPU host its two workers plus the control
    /// thread need both CPUs, so CPU stolen from either one moved its
    /// throughput far beyond any regression bound.
    pub const ALL: [Workload; 3] = [Workload::Scan, Workload::KeyedWindow, Workload::NetUpdates];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::KeyedWindow => "keyed_window",
            Workload::NetUpdates => "net_updates",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input events of one repetition.
    pub fn events(self) -> u64 {
        match self {
            Workload::Scan => SCAN_EVENTS,
            Workload::KeyedWindow => WINDOW_EVENTS,
            Workload::NetUpdates => NET_EVENTS,
        }
    }

    /// Whether the bench sends on a schedule (open loop) rather than
    /// handing the program all input up front (closed loop).
    pub fn open_loop(self) -> bool {
        self == Workload::NetUpdates
    }

    /// The query, as both the script and the driver-free replay run it.
    pub fn query(self) -> String {
        match self {
            Workload::Scan => {
                format!("SELECT auction, bidder, price FROM bids WHERE price > {SCAN_PRICE_FLOOR}")
            }
            Workload::KeyedWindow => "SELECT wend, auction, COUNT(*), SUM(price), MAX(price) \
                 FROM Tumble(data => TABLE(bids), timecol => DESCRIPTOR(dateTime), \
                 dur => INTERVAL '1' MINUTE) GROUP BY wend, auction EMIT AFTER WATERMARK"
                .to_string(),
            Workload::NetUpdates => "SELECT wend, auction, COUNT(*), MAX(price) \
                 FROM Tumble(data => TABLE(bids), timecol => DESCRIPTOR(dateTime), \
                 dur => INTERVAL '10' SECOND) GROUP BY wend, auction EMIT STREAM"
                .to_string(),
        }
    }
}

/// `scan`: bids in the one input file.
pub const SCAN_EVENTS: u64 = 250_000;
/// `scan`: prices are uniform in `[1, 10000)`, so ~90% of rows pass.
pub const SCAN_PRICE_FLOOR: i64 = 1_000;
/// `keyed_window`: bids over all partitions.
pub const WINDOW_EVENTS: u64 = 300_000;
/// `keyed_window`: partition files; bid `i` goes to file `i % 4`.
pub const WINDOW_PARTITIONS: usize = 4;
/// `keyed_window`: `SET workers`.
pub const WINDOW_WORKERS: usize = 2;
/// `keyed_window`: input events between `checkpoint_to` calls.
pub const WINDOW_CHECKPOINT_EVERY: u64 = 50_000;
/// `net_updates`: offered rate, events per second.
pub const NET_RATE: u64 = 2_000;
/// `net_updates`: events per repetition (five seconds at [`NET_RATE`]).
pub const NET_EVENTS: u64 = 10_000;
/// `net_updates`: input events between `checkpoint_to` calls; well below
/// `NetConfig::spool_events` (65,536), past which the publisher blocks.
pub const NET_CHECKPOINT_EVERY: u64 = 4_096;
/// `net_updates`: events between watermarks the generator sends.
pub const NET_WATERMARK_EVERY: u64 = 1_000;
/// A repetition whose input is not in by then is an error (reported
/// before the parent's own timeout kills the process).
const DEADLINE: StdDuration = StdDuration::from_secs(45);

const BID_COLUMNS: &str =
    "auction INT, bidder INT, price INT, dateTime TIMESTAMP, WATERMARK FOR dateTime";

/// The generator's event-time skew bound. File sources declare it as
/// their lateness so no event is late.
fn max_skew_ms() -> i64 {
    GeneratorConfig::default().max_skew.millis()
}

/// The first `n` bids of the seeded NEXMark stream, each with the
/// generator's processing time.
pub fn bids(seed: u64, n: u64) -> impl Iterator<Item = (Ts, Bid)> {
    let mut generator = NexmarkGenerator::seeded(seed);
    std::iter::from_fn(move || loop {
        if let (ptime, NexmarkEvent::Bid(bid)) = generator.next_event() {
            return Some((ptime, bid));
        }
    })
    .take(n as usize)
}

/// Write the input files of `workload` into `dir` (the open-loop
/// workload has none: its generator streams onto the wire).
pub fn write_inputs(workload: Workload, seed: u64, events: u64, dir: &Path) -> Result<(), String> {
    let parts = match workload {
        Workload::Scan => 1,
        Workload::KeyedWindow => WINDOW_PARTITIONS,
        Workload::NetUpdates => return Ok(()),
    };
    let mut files = (0..parts)
        .map(|p| {
            let path = input_path(dir, p);
            std::fs::File::create(&path)
                .map(BufWriter::new)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (i, (_, b)) in bids(seed, events).enumerate() {
        writeln!(
            files[i % parts],
            "{},{},{},{}",
            b.auction,
            b.bidder,
            b.price,
            b.date_time.millis()
        )
        .map_err(|e| format!("cannot write input: {e}"))?;
    }
    for mut f in files {
        f.flush().map_err(|e| format!("cannot write input: {e}"))?;
    }
    Ok(())
}

fn input_path(dir: &Path, partition: usize) -> PathBuf {
    dir.join(format!("bids-{partition}.csv"))
}

fn sql_path(path: &Path) -> Result<String, String> {
    let text = path.display().to_string();
    if text.contains('\'') || text.contains(',') {
        return Err(format!("path {text} cannot be quoted into the script"));
    }
    Ok(text)
}

/// The SQL script of one repetition.
fn script(workload: Workload, inputs: &Path, out: &Path) -> Result<String, String> {
    let out = sql_path(out)?;
    let lateness = max_skew_ms();
    let query = workload.query();
    Ok(match workload {
        Workload::Scan => format!(
            "CREATE SOURCE bids ({BID_COLUMNS})
               WITH (connector = 'file', path = '{}', lateness_ms = {lateness});
             CREATE SINK out WITH (connector = 'file', path = '{out}', mode = 'appends');
             INSERT INTO out {query};",
            sql_path(&input_path(inputs, 0))?
        ),
        Workload::KeyedWindow => {
            let paths = (0..WINDOW_PARTITIONS)
                .map(|p| sql_path(&input_path(inputs, p)))
                .collect::<Result<Vec<_>, _>>()?
                .join(",");
            format!(
                "SET workers = {WINDOW_WORKERS};
                 CREATE PARTITIONED SOURCE bids ({BID_COLUMNS})
                   WITH (connector = 'file', path = '{paths}', lateness_ms = {lateness});
                 CREATE SINK out WITH (connector = 'file', path = '{out}', mode = 'appends',
                                       transactional = TRUE);
                 INSERT INTO out {query};"
            )
        }
        Workload::NetUpdates => format!(
            "CREATE PARTITIONED SOURCE bids ({BID_COLUMNS})
               WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', partitions = 1);
             CREATE SINK out WITH (connector = 'file', path = '{out}', mode = 'changelog',
                                   transactional = TRUE);
             INSERT INTO out {query};"
        ),
    })
}

/// One repetition: which workload, on which inputs, where it may write.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Input events (the workload's size unless a test shrinks it).
    pub events: u64,
    /// Where [`write_inputs`] put the input files.
    pub inputs: PathBuf,
    /// This repetition's own directory: sink file, checkpoints, trace.
    pub dir: PathBuf,
    /// Time every layer boundary (the separate traced run).
    pub traced: bool,
}

impl Rep {
    /// The sink file.
    pub fn out_path(&self) -> PathBuf {
        self.dir.join("out.csv")
    }

    /// Chrome trace-event JSON of a traced repetition.
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.json")
    }

    /// Per-layer self-time table of a traced repetition.
    pub fn table_path(&self) -> PathBuf {
        self.dir.join("selftime.txt")
    }
}

/// Measurements of one repetition, by metric name.
pub type Measured = BTreeMap<&'static str, f64>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Wrap `f` in a span named `name` when `traced`.
fn call<T>(traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if traced {
        trace::span(name, f)
    } else {
        f()
    }
}

/// What driving the pipeline observed.
#[derive(Default)]
struct Drive {
    wall_s: f64,
    cpu_s: f64,
    checkpoint_ms: Vec<f64>,
    pending_depth_max: u64,
    generator: Option<GeneratorStats>,
}

/// Run one repetition and measure it.
pub fn run_rep(rep: &Rep) -> Result<Measured, String> {
    let latency = Arc::new(LatencyLog::new(rep.workload.open_loop()));
    let registry = trace::registry(latency.clone(), rep.traced).map_err(err)?;
    let script = script(rep.workload, &rep.inputs, &rep.out_path())?;
    let mut session = Session::new(registry);
    let mut m = Measured::new();
    if rep.traced {
        let t = Instant::now();
        onesql_sql::parse_script(&script).map_err(err)?;
        m.insert("sql.parse_us", t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(session.lint_script(&script));
        m.insert("plan.lint_us", t.elapsed().as_secs_f64() * 1e6);
    }

    let t = Instant::now();
    let outcome = call(rep.traced, "setup.execute_script", || {
        session.execute_script(&script)
    })
    .map_err(err)?;
    let mut pipeline = outcome.into_pipeline().map_err(err)?;
    m.insert("setup_s", t.elapsed().as_secs_f64());

    let checkpoints = rep.dir.join("checkpoints");
    let drive = match rep.workload {
        Workload::Scan => drive(&mut pipeline, rep, &latency, None)?,
        Workload::KeyedWindow => drive(
            &mut pipeline,
            rep,
            &latency,
            Some((WINDOW_CHECKPOINT_EVERY, &checkpoints)),
        )?,
        Workload::NetUpdates => {
            let addr = session
                .take_handle::<NetAddr>("bids")
                .ok_or("the net source exported no address")?;
            let (seed, events, traced) = (rep.seed, rep.events, rep.traced);
            let log = latency.clone();
            let generator = std::thread::spawn(move || generate(addr, seed, events, traced, &log));
            let driven = drive(
                &mut pipeline,
                rep,
                &latency,
                Some((NET_CHECKPOINT_EVERY, &checkpoints)),
            );
            let stats = generator
                .join()
                .map_err(|_| "generator thread panicked".to_string())??;
            let mut driven = driven?;
            driven.cpu_s -= stats.cpu_s;
            driven.generator = Some(stats);
            driven
        }
    };
    m.insert("peak_rss_mb", sys::peak_rss_mb());

    let metrics = pipeline.metrics();
    if metrics.events_in != rep.events {
        return Err(format!(
            "pipeline ingested {} events, {} were input",
            metrics.events_in, rep.events
        ));
    }
    let events = rep.events as f64;
    m.insert("events_per_s", events / drive.wall_s);
    m.insert("wall_s", drive.wall_s);
    m.insert("cpu_s_per_mevent", drive.cpu_s / (events / 1e6));
    let samples = latency.samples();
    let quantile_ms = |q| samples.quantile_us(q).map_or(0.0, |us| us as f64 / 1e3);
    m.insert("latency_p50_ms", quantile_ms(0.5));
    m.insert("latency_p99_ms", quantile_ms(0.99));
    m.insert("latency_samples", samples.count() as f64);
    if let Some(g) = &drive.generator {
        m.insert("bench.generator_late_ms_p99", g.late_ms_p99);
    }
    if !rep.traced {
        return Ok(m);
    }

    // Per-layer figures of the traced run.
    let rounds = metrics.rounds.max(1) as f64;
    m.insert("core.driver.rounds", metrics.rounds as f64);
    m.insert(
        "core.driver.idle_round_frac",
        metrics.idle_rounds as f64 / rounds,
    );
    m.insert(
        "core.driver.vectorized_round_frac",
        metrics.vectorized_rounds as f64 / rounds,
    );
    m.insert(
        "core.driver.pending_depth_max",
        drive.pending_depth_max.max(metrics.pending_depth) as f64,
    );
    drop(pipeline);
    let spans = trace::take();
    let layers = trace::layers(&spans);
    layer_metrics(&spans, &layers, rep, &drive, &mut m)?;
    let table = trace::self_time_table(&layers);
    std::fs::write(rep.table_path(), table).map_err(err)?;
    std::fs::write(rep.trace_path(), trace::chrome_trace_json(&spans)).map_err(err)?;

    let (ns_per_event, state_keys, retained) = replay(rep.workload, rep.seed, rep.events)?;
    m.insert("exec.replay_ns_per_event", ns_per_event);
    m.insert("exec.state_keys", state_keys as f64);
    m.insert("exec.changelog_retained", retained as f64);
    Ok(m)
}

/// Step the pipeline (checkpointing every `checkpoint.0` input events
/// into `checkpoint.1`) until the input is in, then run it to the end.
fn drive(
    pipeline: &mut SqlPipeline,
    rep: &Rep,
    latency: &LatencyLog,
    checkpoint: Option<(u64, &Path)>,
) -> Result<Drive, String> {
    let mut drive = Drive::default();
    let start = Instant::now();
    if !rep.workload.open_loop() {
        latency.set_origin(start);
    }
    let cpu0 = sys::process_cpu_s();
    if let Some((every, dir)) = checkpoint {
        let mut next = every;
        loop {
            call(rep.traced, "pipeline.step", || pipeline.step()).map_err(err)?;
            if rep.traced {
                let depth = pipeline.metrics().pending_depth;
                drive.pending_depth_max = drive.pending_depth_max.max(depth);
            }
            let ingested = pipeline.events_in();
            if ingested >= rep.events {
                break;
            }
            if ingested >= next {
                let t = Instant::now();
                call(rep.traced, "durable.checkpoint_to", || {
                    pipeline.checkpoint_to(dir)
                })
                .map_err(err)?;
                drive.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                next = (ingested / every + 1) * every;
            }
            if start.elapsed() > DEADLINE {
                return Err(format!(
                    "only {ingested} of {} events ingested after {DEADLINE:?}",
                    rep.events
                ));
            }
        }
    }
    call(rep.traced, "pipeline.run", || pipeline.run()).map_err(err)?;
    drive.wall_s = start.elapsed().as_secs_f64();
    drive.cpu_s = sys::process_cpu_s() - cpu0;
    Ok(drive)
}

/// Derive the per-layer metrics from the spans of a traced repetition.
fn layer_metrics(
    spans: &[SpanRecord],
    layers: &BTreeMap<&'static str, Layer>,
    rep: &Rep,
    drive: &Drive,
    m: &mut Measured,
) -> Result<(), String> {
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let events = rep.events.max(1) as f64;

    // Sources: a poll is a row poll, or a columnar poll that returned a
    // batch; a columnar poll that declined still costs busy time.
    let polls: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "source.poll_batch" | "source.poll_columns" | "source.poll_partition"
            )
        })
        .collect();
    let source_busy_ns: u64 = [
        "source.poll_batch",
        "source.poll_columns",
        "source.poll_columns.none",
        "source.poll_partition",
    ]
    .iter()
    .map(|n| get(n).total_ns)
    .sum();
    let n_polls = polls.len().max(1) as f64;
    m.insert("connect.source.busy_us", source_busy_ns as f64 / 1e3);
    m.insert(
        "connect.source.ns_per_event",
        source_busy_ns as f64 / events,
    );
    m.insert("connect.source.polls", polls.len() as f64);
    m.insert(
        "connect.source.empty_poll_frac",
        polls.iter().filter(|s| s.count == 0).count() as f64 / n_polls,
    );
    m.insert(
        "connect.source.columnar_poll_frac",
        get("source.poll_columns").calls as f64 / n_polls,
    );

    let driver_ns = get("pipeline.step").self_ns + get("pipeline.run").self_ns;
    m.insert("core.driver.busy_us", driver_ns as f64 / 1e3);
    m.insert("core.driver.ns_per_event", driver_ns as f64 / events);

    let write = get("sink.write");
    let rows = write.count.max(1) as f64;
    let bytes = std::fs::metadata(rep.out_path()).map_err(err)?.len();
    m.insert("connect.sink.busy_us", write.total_ns as f64 / 1e3);
    m.insert("connect.sink.ns_per_row", write.total_ns as f64 / rows);
    m.insert("connect.sink.rows", write.count as f64);
    m.insert("connect.sink.bytes_per_row", bytes as f64 / rows);
    m.insert(
        "connect.sink.flush_us",
        get("sink.flush").total_ns as f64 / 1e3,
    );
    let txn_ns = get("sink.on_checkpoint").total_ns + get("sink.commit_checkpoint").total_ns;
    m.insert("connect.sink.txn_us", txn_ns as f64 / 1e3);

    let ck = &drive.checkpoint_ms;
    m.insert("core.durable.checkpoints", ck.len() as f64);
    m.insert(
        "core.durable.checkpoint_ms_p50",
        stats::median(ck).unwrap_or(0.0),
    );
    m.insert(
        "core.durable.checkpoint_ms_max",
        stats::max(ck).unwrap_or(0.0),
    );
    m.insert(
        "core.durable.checkpoint_bytes",
        newest_checkpoint_bytes(&rep.dir.join("checkpoints")) as f64,
    );

    if let Some(g) = &drive.generator {
        let frames = g.frames.max(1) as f64;
        m.insert("connect.net.send_ns_per_event", g.send_ns as f64 / events);
        m.insert("connect.net.frames", g.frames as f64);
        m.insert("connect.net.bytes_per_event", g.bytes as f64 / events);
        m.insert("connect.net.events_per_frame", events / frames);
    }
    Ok(())
}

/// Size of the newest `epoch-N.ckpt` in a checkpoint store, 0 if none.
fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let epoch: u64 = name
                .strip_prefix("epoch-")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()?;
            Some((epoch, e.metadata().ok()?.len()))
        })
        .max()
        .map_or(0, |(_, len)| len)
}

// ---------------------------------------------------------------------------
// The open-loop generator.
// ---------------------------------------------------------------------------

/// What the generator thread observed.
#[derive(Debug, Default)]
struct GeneratorStats {
    late_ms_p99: f64,
    send_ns: u64,
    frames: u64,
    bytes: u64,
    cpu_s: f64,
}

/// Publish `events` bids over one connection at [`NET_RATE`], each
/// stamped with its scheduled send time in microseconds since the
/// schedule's origin, with a watermark every [`NET_WATERMARK_EVERY`].
fn generate(
    addr: NetAddr,
    seed: u64,
    events: u64,
    traced: bool,
    latency: &LatencyLog,
) -> Result<GeneratorStats, String> {
    let cpu0 = sys::thread_cpu_s();
    let config = NetConfig {
        keepalive: Some(StdDuration::from_secs(3600)),
        ..NetConfig::default()
    };
    let mut publisher = NetPublisher::new(addr, 0, vec!["bids".to_string()], config);
    // Connect and claim the partition before the schedule starts.
    publisher.keepalive().map_err(err)?;
    let origin = Instant::now() + StdDuration::from_millis(5);
    latency.set_origin(origin);
    let skew = max_skew_ms();
    let mut late = Weighted::default();
    let mut send_ns = 0u64;
    for (i, (gen_ptime, bid)) in (0u64..).zip(bids(seed, events)) {
        let due_ns = i * 1_000_000_000 / NET_RATE;
        let due = origin + StdDuration::from_nanos(due_ns);
        if Instant::now() < due {
            // Ahead of schedule: put what was sent on the wire, then wait.
            if i > 0 {
                let t = Instant::now();
                publisher.flush().map_err(err)?;
                send_ns += t.elapsed().as_nanos() as u64;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let sent = Instant::now();
        late.push(sent.saturating_duration_since(due).as_micros() as u64, 1);
        let ptime = Ts((due_ns / 1_000) as i64);
        publisher.insert(0, ptime, bid.to_row()).map_err(err)?;
        if (i + 1) % NET_WATERMARK_EVERY == 0 {
            // Every later bid has event time >= its generator time - skew,
            // and generator time only grows: none is late.
            publisher
                .watermark(Ts(gen_ptime.millis() - skew - 1))
                .map_err(err)?;
        }
        if traced {
            send_ns += sent.elapsed().as_nanos() as u64;
        }
    }
    publisher.finish().map_err(err)?;
    publisher
        .wait_drained(StdDuration::from_secs(60))
        .map_err(err)?;
    let stats = publisher.stats();
    Ok(GeneratorStats {
        late_ms_p99: late.quantile_us(0.99).unwrap_or(0) as f64 / 1e3,
        send_ns,
        frames: stats.frames,
        bytes: stats.bytes,
        cpu_s: sys::thread_cpu_s() - cpu0,
    })
}

// ---------------------------------------------------------------------------
// The driver-free replay.
// ---------------------------------------------------------------------------

/// Replay the same bids single-threaded through `Engine::execute` and
/// `RunningQuery`: the kernel baseline of the same job, with no driver,
/// connector, or sink. Returns ns per event, the most state keys held at
/// any watermark, and the changelog entries retained at the end.
fn replay(workload: Workload, seed: u64, events: u64) -> Result<(f64, usize, usize), String> {
    const WATERMARK_EVERY: u64 = 1_000;
    let mut engine = Engine::new();
    engine.register_stream_schema("bids", Bid::schema());
    let mut query = engine.execute(&workload.query()).map_err(err)?;
    let skew = max_skew_ms();
    // Processing times as the program sees them: the file sources replay
    // event time (clamped monotone by the driver); the generator stamps
    // the scheduled send time in microseconds.
    let mut clock = i64::MIN;
    let mut max_et = i64::MIN;
    let input: Vec<(Ts, Row, Option<Ts>)> = (0u64..)
        .zip(bids(seed, events))
        .map(|(i, (gen_ptime, bid))| {
            let et = bid.date_time.millis();
            max_et = max_et.max(et);
            let (ptime, wm) = if workload.open_loop() {
                (
                    (i * 1_000_000 / NET_RATE) as i64,
                    gen_ptime.millis() - skew - 1,
                )
            } else {
                clock = clock.max(et);
                (clock, max_et - skew)
            };
            let wm = ((i + 1) % WATERMARK_EVERY == 0).then_some(Ts(wm));
            (Ts(ptime), bid.to_row(), wm)
        })
        .collect();
    let mut busy = StdDuration::ZERO;
    let mut state_keys = 0;
    let mut last = Ts(0);
    let mut input = input.into_iter().peekable();
    while input.peek().is_some() {
        let t = Instant::now();
        for (ptime, row, wm) in input.by_ref().take(WATERMARK_EVERY as usize * 16) {
            query.insert("bids", ptime, row).map_err(err)?;
            if let Some(wm) = wm {
                query.watermark("bids", ptime, wm).map_err(err)?;
            }
            last = ptime;
        }
        busy += t.elapsed();
        // Sampled outside the timed stretch: state_metrics encodes state.
        state_keys = state_keys.max(query.state_metrics().keys);
    }
    let t = Instant::now();
    query.finish(last).map_err(err)?;
    busy += t.elapsed();
    let retained = query.changelog().len();
    Ok((
        busy.as_nanos() as f64 / events.max(1) as f64,
        state_keys,
        retained,
    ))
}

/// Render measurements as `name value` lines (the child-to-parent wire).
pub fn render(m: &Measured) -> String {
    let mut out = String::new();
    for (k, v) in m {
        let _ = writeln!(out, "{k} {v:?}");
    }
    out
}

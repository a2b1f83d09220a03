//! The command: generate a workload's inputs, run repetitions in fresh
//! processes for the requested time, check every repetition's sink file
//! against the reference, and report medians.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant};

use crate::reference::{self, Verdict};
use crate::stats;
use crate::workload::{self, Measured, Workload};

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s_per_mevent", "s"),
];

/// Result latency, measured by the untraced repetitions of every run and
/// stated in the run record. On a shared host whose CPUs are stolen for
/// milliseconds at a time, sub-millisecond open-loop latency moves far
/// more between runs than any regression bound could absorb, so it is
/// reported with the per-layer metrics, which are not gated.
pub const LATENCY: [(&str, &str); 2] = [("latency_p50_ms", "ms"), ("latency_p99_ms", "ms")];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("sql.parse_us", "us"),
    ("plan.lint_us", "us"),
    ("connect.source.busy_us", "us"),
    ("connect.source.ns_per_event", "ns"),
    ("connect.source.polls", "count"),
    ("connect.source.empty_poll_frac", "frac"),
    ("connect.source.columnar_poll_frac", "frac"),
    ("core.driver.busy_us", "us"),
    ("core.driver.ns_per_event", "ns"),
    ("core.driver.rounds", "count"),
    ("core.driver.idle_round_frac", "frac"),
    ("core.driver.vectorized_round_frac", "frac"),
    ("core.driver.pending_depth_max", "count"),
    ("exec.replay_ns_per_event", "ns"),
    ("exec.state_keys", "count"),
    ("exec.changelog_retained", "count"),
    ("connect.sink.busy_us", "us"),
    ("connect.sink.ns_per_row", "ns"),
    ("connect.sink.rows", "count"),
    ("connect.sink.bytes_per_row", "B"),
    ("connect.sink.flush_us", "us"),
    ("connect.sink.txn_us", "us"),
    ("core.durable.checkpoint_ms_p50", "ms"),
    ("core.durable.checkpoint_ms_max", "ms"),
    ("core.durable.checkpoint_bytes", "B"),
    ("core.durable.checkpoints", "count"),
    ("connect.net.send_ns_per_event", "ns"),
    ("connect.net.frames", "count"),
    ("connect.net.bytes_per_event", "B"),
    ("connect.net.events_per_frame", "count"),
    ("trace.overhead_frac", "frac"),
    ("bench.generator_late_ms_p99", "ms"),
];

/// Fewest repetitions a run makes, however short `--seconds` is; a
/// traced run alternates untraced and traced ones.
const MIN_REPS: usize = 3;
const MIN_REPS_TRACED: usize = 4;
/// A repetition still running after this is killed and counted failed.
const REP_TIMEOUT: StdDuration = StdDuration::from_secs(60);
/// No repetition starts or keeps running past this point of a run, even
/// below the minimum count, so a run that keeps failing still ends.
const RUN_BUDGET: StdDuration = StdDuration::from_secs(150);
/// Scratch space under the checkout root; every run makes and removes
/// its own subdirectory.
const SCRATCH: &str = ".perfbench_runs";
/// Where traced runs leave their Chrome trace.
const TRACE_OUT: &str = ".perfbench_out";

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to keep starting repetitions.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions.
    pub trace: bool,
}

/// A directory name no other run or repetition shares: the pid plus a
/// process-wide counter.
fn unique_dir(parent: &Path, prefix: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    parent.join(format!("{prefix}{}-{n}", std::process::id()))
}

/// One repetition's outcome.
struct RepResult {
    traced: bool,
    measured: Option<Measured>,
    verdict: Verdict,
}

/// The result of a whole run.
pub struct Outcome {
    /// Units checked over all repetitions.
    pub attempted: u64,
    /// Units wrong, missing, or errored.
    pub failed: u64,
    /// `(name, value, unit)` for every metric the run reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The run record, as a JSON object.
    pub record: String,
    /// Human-readable summary and self-time table.
    pub report: String,
}

/// Run the benchmark from the checkout root `root`.
pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let base = root.join(SCRATCH);
    let scratch = unique_dir(&base, "run-");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let outcome = run_in(args, root, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // Removes the parent only when no concurrent run still uses it.
    let _ = std::fs::remove_dir(&base);
    outcome
}

fn run_in(args: &Args, root: &Path, scratch: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let events = w.events();
    let inputs = scratch.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| e.to_string())?;
    workload::write_inputs(w, args.seed, events, &inputs)?;
    let expected = reference::expected(w, args.seed, events);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let start = Instant::now();
    let min_reps = if args.trace {
        MIN_REPS_TRACED
    } else {
        MIN_REPS
    };
    let mut results: Vec<RepResult> = Vec::new();
    let mut untraced_output: Option<Vec<u8>> = None;
    let mut trace_files: Option<(String, String)> = None;
    let mut report = String::new();
    while (results.len() < min_reps || start.elapsed().as_secs_f64() < args.seconds)
        && start.elapsed() < RUN_BUDGET
    {
        let traced = args.trace && results.len() % 2 == 1;
        let rep = workload::Rep {
            workload: w,
            seed: args.seed,
            events,
            inputs: inputs.clone(),
            dir: unique_dir(scratch, "rep-"),
            traced,
        };
        std::fs::create_dir_all(&rep.dir).map_err(|e| e.to_string())?;
        let timeout = REP_TIMEOUT.min(RUN_BUDGET.saturating_sub(start.elapsed()));
        let measured = spawn_rep(&exe, &rep, timeout);
        let mut verdict = match &measured {
            Ok(_) => reference::check(&expected, w, events, &rep.out_path()),
            Err(e) => {
                let _ = writeln!(report, "repetition {} failed: {e}", results.len());
                let attempted = reference::attempted(w, events);
                Verdict {
                    attempted,
                    failed: attempted,
                }
            }
        };
        if measured.is_ok() && args.trace {
            // Tracing must not change what the program writes.
            let bytes = std::fs::read(rep.out_path()).unwrap_or_default();
            match &untraced_output {
                None if !traced => untraced_output = Some(bytes),
                Some(untraced) if traced && *untraced != bytes => {
                    let _ = writeln!(
                        report,
                        "repetition {}: traced sink file differs from the untraced one",
                        results.len()
                    );
                    verdict.failed = verdict.attempted;
                }
                _ => {}
            }
            if traced {
                let read = |p: PathBuf| std::fs::read_to_string(p).unwrap_or_default();
                trace_files = Some((read(rep.trace_path()), read(rep.table_path())));
            }
        }
        if let Ok(m) = &measured {
            let _ = writeln!(
                report,
                "repetition {}{}: wall {:.4} s, {:.0} events/s, {:.3} CPU s/Mevent",
                results.len(),
                if traced { " (traced)" } else { "" },
                m.get("wall_s").unwrap_or(&0.0),
                m.get("events_per_s").unwrap_or(&0.0),
                m.get("cpu_s_per_mevent").unwrap_or(&0.0),
            );
        }
        let _ = std::fs::remove_dir_all(&rep.dir);
        results.push(RepResult {
            traced,
            measured: measured.ok(),
            verdict,
        });
    }

    let attempted: u64 = results.iter().map(|r| r.verdict.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.verdict.failed).sum();
    let values = |traced: bool, name: &str| -> Vec<f64> {
        results
            .iter()
            .filter(|r| r.traced == traced)
            .filter_map(|r| r.measured.as_ref()?.get(name).copied())
            .collect()
    };
    let median_of = |traced: bool, name: &str| stats::median(&values(traced, name)).unwrap_or(0.0);

    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in LATENCY {
            metrics.push((name, median_of(false, name), unit));
        }
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_frac" => {
                    let untraced = median_of(false, "wall_s");
                    let traced = median_of(true, "wall_s");
                    if untraced > 0.0 {
                        traced / untraced - 1.0
                    } else {
                        0.0
                    }
                }
                _ => median_of(true, name),
            };
            metrics.push((name, value, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name, median_of(false, name), unit));
        }
    }

    let trace_file = match &trace_files {
        Some((json, table)) => {
            let path =
                Path::new(TRACE_OUT).join(format!("{}-seed{}.trace.json", w.name(), args.seed));
            std::fs::create_dir_all(root.join(TRACE_OUT)).map_err(|e| e.to_string())?;
            std::fs::write(root.join(&path), json).map_err(|e| e.to_string())?;
            let _ = writeln!(
                report,
                "per-layer self time, {} (last traced repetition):\n{table}",
                w.name()
            );
            Some(path)
        }
        None => None,
    };

    let reps_traced = results.iter().filter(|r| r.traced).count();
    let latency_samples = median_of(false, "latency_samples");
    let mut record = BTreeMap::new();
    record.insert("workload", json_str(w.name()));
    record.insert("seed", args.seed.to_string());
    record.insert("seconds", json_num(args.seconds));
    record.insert("trace", args.trace.to_string());
    record.insert(
        "statistic",
        json_str("median over repetitions, each a fresh process; latency percentiles are nearest-rank within a repetition"),
    );
    record.insert("repetitions", results.len().to_string());
    record.insert("repetitions_traced", reps_traced.to_string());
    record.insert(
        "failed_frac",
        json_num(failed as f64 / attempted.max(1) as f64),
    );
    record.insert("latency_samples_per_repetition", json_num(latency_samples));
    for (name, _) in LATENCY {
        record.insert(name, json_num(median_of(false, name)));
    }
    record.insert("input_events", events.to_string());
    record.insert("sizes", json_str(&sizes(w)));
    record.insert("cpus_available", cpus_available().to_string());
    record.insert("git_revision", json_str(&git_revision(root)));
    record.insert("rustc", json_str(&rustc_version()));
    record.insert(
        "workspace_rust_loc_without_shims",
        rust_loc(root).to_string(),
    );
    if let Some(path) = &trace_file {
        record.insert("trace_file", json_str(&path.display().to_string()));
    }
    let record = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let _ = writeln!(
        report,
        "{}: {} repetitions ({} traced), failed {failed} of {attempted}",
        w.name(),
        results.len(),
        reps_traced
    );
    for (name, value, unit) in &metrics {
        let _ = writeln!(report, "  {name:<36} {value:>14.4} {unit}");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        record,
        report,
    })
}

/// Run one repetition in a fresh process of this executable.
fn spawn_rep(exe: &Path, rep: &workload::Rep, timeout: StdDuration) -> Result<Measured, String> {
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(rep.workload.name())
        .args(["--seed", &rep.seed.to_string()])
        .args(["--events", &rep.events.to_string()])
        .arg("--inputs")
        .arg(&rep.inputs)
        .arg("--dir")
        .arg(&rep.dir)
        .args(["--traced", if rep.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start repetition: {e}"))?;
    let started = Instant::now();
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(_) => break,
            None if started.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("repetition killed after {timeout:?}"));
            }
            None => std::thread::sleep(StdDuration::from_millis(2)),
        }
    }
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("repetition exited with {}", output.status));
    }
    parse_measured(&String::from_utf8_lossy(&output.stdout))
}

/// Inverse of [`workload::render`], keeping only the names this module
/// reports or derives from.
fn parse_measured(text: &str) -> Result<Measured, String> {
    let known = END_TO_END
        .iter()
        .chain(LATENCY.iter())
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .chain(["wall_s", "latency_samples"]);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for line in text.lines() {
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed repetition output line '{line}'"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("malformed value in line '{line}'"))?;
        by_name.insert(name, value);
    }
    Ok(known
        .filter_map(|name| Some((name, *by_name.get(name)?)))
        .collect())
}

fn sizes(w: Workload) -> String {
    match w {
        Workload::Scan => format!(
            "{} bids in one CSV file, filter price > {}",
            workload::SCAN_EVENTS,
            workload::SCAN_PRICE_FLOOR
        ),
        Workload::KeyedWindow => format!(
            "{} bids over {} CSV partitions, {} workers, checkpoint every {} events",
            workload::WINDOW_EVENTS,
            workload::WINDOW_PARTITIONS,
            workload::WINDOW_WORKERS,
            workload::WINDOW_CHECKPOINT_EVERY
        ),
        Workload::NetUpdates => format!(
            "{} bids at {} events/s over one loopback TCP connection, watermark every {}, checkpoint every {} events",
            workload::NET_EVENTS,
            workload::NET_RATE,
            workload::NET_WATERMARK_EVERY,
            workload::NET_CHECKPOINT_EVERY
        ),
    }
}

/// CPUs this process may run on (Linux reads its sched affinity mask).
fn cpus_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root`, or `unknown` outside a git checkout
/// of exactly this directory.
fn git_revision(root: &Path) -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .args(args)
            .current_dir(root)
            .stderr(Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let top = git(&["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    match (
        top.and_then(|t| t.canonicalize().ok()),
        root.canonicalize().ok(),
    ) {
        (Some(top), Some(root)) if top == root => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
        }
        _ => "unknown".to_string(),
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Command::new(rustc)
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Lines of Rust in the workspace (`src`, `tests`, `examples`, `crates`)
/// without `crates/shims`.
fn rust_loc(root: &Path) -> u64 {
    fn walk(dir: &Path, skip: &Path, total: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path == skip {
                continue;
            }
            if path.is_dir() {
                walk(&path, skip, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    *total += text.lines().count() as u64;
                }
            }
        }
    }
    let skip = root.join("crates").join("shims");
    let mut total = 0;
    for dir in ["src", "tests", "examples", "crates"] {
        walk(&root.join(dir), &skip, &mut total);
    }
    total
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value has; non-finite becomes 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

//! The benchmark's own checks: the reference check catches a corrupted
//! sink file, and tracing does not change what the program writes.
//!
//! Each workload runs in-process at a small size.

use std::path::PathBuf;

use onesql_perfbench::reference::{self, Verdict};
use onesql_perfbench::workload::{self, Rep, Workload};

fn small(workload: Workload) -> u64 {
    match workload {
        Workload::Scan => 3_000,
        Workload::KeyedWindow => 6_000,
        Workload::NetUpdates => 2_000,
    }
}

/// A fresh directory for one test's inputs and repetitions.
fn scratch(test: &str, workload: Workload) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{test}-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one untraced or traced repetition over inputs already in `dir`.
fn rep(workload: Workload, dir: &std::path::Path, traced: bool) -> Rep {
    let rep = Rep {
        workload,
        seed: 5,
        events: small(workload),
        inputs: dir.join("inputs"),
        dir: dir.join(if traced { "traced" } else { "untraced" }),
        traced,
    };
    std::fs::create_dir_all(&rep.dir).unwrap();
    workload::run_rep(&rep).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    rep
}

fn setup(test: &str, workload: Workload) -> PathBuf {
    let dir = scratch(test, workload);
    std::fs::create_dir_all(dir.join("inputs")).unwrap();
    workload::write_inputs(workload, 5, small(workload), &dir.join("inputs")).unwrap();
    dir
}

fn failed_frac(v: Verdict) -> f64 {
    v.failed as f64 / v.attempted as f64
}

#[test]
fn corrupted_output_is_caught() {
    for w in Workload::ALL {
        let dir = setup("corrupt", w);
        let rep = rep(w, &dir, false);
        let expected = reference::expected(w, rep.seed, rep.events);
        let out = rep.out_path();
        let clean = reference::check(&expected, w, rep.events, &out);
        assert_eq!(failed_frac(clean), 0.0, "{}: clean output fails", w.name());

        // Corrupt the second field of the last data row.
        let text = std::fs::read_to_string(&out).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let last = lines.last_mut().unwrap();
        let mut fields: Vec<String> = last.split(',').map(str::to_string).collect();
        fields[1] = format!("{}9", fields[1]);
        *last = fields.join(",");
        std::fs::write(&out, lines.join("\n") + "\n").unwrap();

        let corrupted = reference::check(&expected, w, rep.events, &out);
        assert!(
            failed_frac(corrupted) > 0.0,
            "{}: corrupted row went unnoticed",
            w.name()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn traced_and_untraced_outputs_are_identical() {
    for w in Workload::ALL {
        let dir = setup("identical", w);
        let untraced = std::fs::read(rep(w, &dir, false).out_path()).unwrap();
        let traced_rep = rep(w, &dir, true);
        let traced = std::fs::read(traced_rep.out_path()).unwrap();
        assert!(!untraced.is_empty());
        assert!(
            untraced == traced,
            "{}: tracing changed the sink file",
            w.name()
        );
        assert!(
            traced_rep.trace_path().exists(),
            "{}: no trace written",
            w.name()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

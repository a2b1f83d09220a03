//! Command-line entry point; see the crate docs and README.md.

use std::path::PathBuf;
use std::process::ExitCode;

use onesql_perfbench::bench::{self, Args};
use onesql_perfbench::workload::{self, Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <scan|keyed_window|net_updates> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// `--name value` pairs after the program name.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(USAGE.to_string());
    }
    args.chunks(2)
        .map(|pair| match pair[0].strip_prefix("--") {
            Some(name) => Ok((name, pair[1].as_str())),
            None => Err(format!("unexpected argument '{}'\n{USAGE}", pair[0])),
        })
        .collect()
}

fn get<'a>(flags: &[(&str, &'a str)], name: &str) -> Result<&'a str, String> {
    flags
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
}

fn number<T: std::str::FromStr>(flags: &[(&str, &str)], name: &str) -> Result<T, String> {
    let text = get(flags, name)?;
    text.parse()
        .map_err(|_| format!("--{name}: '{text}' is not a valid number"))
}

fn workload_flag(flags: &[(&str, &str)], name: &str) -> Result<Workload, String> {
    let text = get(flags, name)?;
    Workload::parse(text).ok_or_else(|| format!("unknown workload '{text}'\n{USAGE}"))
}

fn switch(flags: &[(&str, &str)], name: &str) -> Result<bool, String> {
    match get(flags, name)? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--{name} takes 0 or 1, got '{other}'")),
    }
}

/// One repetition, in this fresh process; prints its measurements.
fn child(flags: &[(&str, &str)]) -> Result<(), String> {
    let rep = Rep {
        workload: workload_flag(flags, "child")?,
        seed: number(flags, "seed")?,
        events: number(flags, "events")?,
        inputs: PathBuf::from(get(flags, "inputs")?),
        dir: PathBuf::from(get(flags, "dir")?),
        traced: switch(flags, "traced")?,
    };
    let measured = workload::run_rep(&rep)?;
    print!("{}", workload::render(&measured));
    Ok(())
}

fn main_inner() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = flags(&argv)?;
    if flags.iter().any(|(n, _)| *n == "child") {
        return child(&flags);
    }
    let args = Args {
        workload: workload_flag(&flags, "workload")?,
        seed: number(&flags, "seed")?,
        seconds: number(&flags, "seconds")?,
        trace: switch(&flags, "trace")?,
    };
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let outcome = bench::run(&args, &root)?;
    eprint!("{}", outcome.report);
    println!("{{\"record\": {}}}", outcome.record);
    println!("{}", bench::result_json(&outcome));
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

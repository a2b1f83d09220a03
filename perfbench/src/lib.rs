//! End-to-end and per-layer benchmark of onesql SQL scripts.
//!
//! `perfbench --workload <scan|keyed_window|net_updates> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload as a SQL script through
//! `Session::execute_script`, checks every sink file against a reference
//! computed in plain Rust, and prints one JSON result line. See README.md.

pub mod bench;
pub mod reference;
mod stats;
mod sys;
mod trace;
pub mod workload;

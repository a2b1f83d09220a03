//! Process accounting from the kernel: CPU time and peak resident set.
//!
//! `getrusage` is declared here directly because the build is offline and
//! has no `libc` crate; the C library is linked by `std` on every Unix
//! target this benchmark runs on.

use std::os::raw::{c_int, c_long};

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs of which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage(who: c_int) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the whole
    // call, and `who` is one of the two selectors Linux defines.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage with a valid selector cannot fail");
    usage
}

fn cpu_seconds(usage: &Rusage) -> f64 {
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// User + system CPU seconds of the whole process so far.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(&rusage(RUSAGE_SELF))
}

/// User + system CPU seconds of the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(&rusage(RUSAGE_THREAD))
}

/// The process's peak resident set in MiB: `ru_maxrss`, the same
/// high-water counter `/proc/self/status` reports as `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

//! Process CPU time, read through the C library that `std` already links
//! (the benchmark has no `libc` dependency), and peak resident set.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// User plus system CPU nanoseconds consumed so far by every thread of
/// this process.
pub fn cpu_nanos() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit words
    // on 64-bit Linux), and the clock id is a valid POSIX clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process image so far, in MB (10^6 bytes):
/// the kernel's `VmHWM`. Unlike `getrusage`'s `ru_maxrss`, it restarts at
/// `exec`, so it does not report the peak of a launcher such as
/// `cargo run` that exec'd the benchmark.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib * 1024.0 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time and peak RSS through 64-bit Linux interfaces");

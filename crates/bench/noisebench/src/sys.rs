//! Process resource usage: CPU time from `getrusage(2)` and peak resident
//! set size from `/proc/self/status`.
//!
//! Linux layout of `struct rusage`: two `timeval`s followed by fourteen
//! `long`s. Its `ru_maxrss` is not used: `execve` carries the parent's
//! high-water mark over (under `cargo run`, cargo's), whereas `VmHWM`
//! belongs to the current program image alone.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// User plus system CPU seconds of `who`.
fn cpu_s(who: c_int) -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` with the Linux
    // layout declared above, and `who` is one of the two documented
    // selectors; getrusage writes only within the struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// CPU seconds of this process (all threads) and of its terminated,
/// waited-for children (fleet workers) together.
pub fn total_cpu_s() -> f64 {
    cpu_s(RUSAGE_SELF) + cpu_s(RUSAGE_CHILDREN)
}

/// Peak resident set size of this process in KiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Usable cores, as `std::thread::available_parallelism` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = total_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(total_cpu_s() > before);
    }

    #[test]
    fn peak_rss_covers_a_touched_allocation() {
        let buf = vec![1u8; 64 << 20];
        std::hint::black_box(&buf);
        assert!(peak_rss_kib() >= 64 << 10);
    }
}

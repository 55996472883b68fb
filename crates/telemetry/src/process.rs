//! Process-level gauges: peak RSS and cpu time.
//!
//! Peak RSS comes from the kernel (`VmHWM` in `/proc/self/status`), which
//! covers everything the process ever held — key material and allocator
//! slack included; `repro throughput` reports it in
//! `BENCH_throughput.json`. Cpu time (`utime + stime` from
//! `/proc/self/stat`, summed over every thread of the process) lets the
//! `/metrics` endpoint expose utilisation without any wall clock
//! arithmetic in-process.
//!
//! Everything procfs-backed degrades gracefully off Linux: the readers
//! return `None`, the recorders record nothing, and callers treat the
//! value as *unknown*, never zero.

use crate::registry::global;

/// Gauge name for the process's peak resident set size, in bytes.
pub const PEAK_RSS_GAUGE: &str = "process.peak_rss_bytes";

/// Gauge name for cumulative process cpu time (all threads), in
/// nanoseconds.
pub const CPU_TIME_GAUGE: &str = "process.cpu_time_ns";

/// Reads the process's peak resident set size in bytes from
/// `/proc/self/status` (`VmHWM`). Returns `None` on platforms without
/// procfs or if the field is missing — callers must treat the budget as
/// unchecked rather than zero.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Samples [`peak_rss_bytes`] and records it into the global
/// [`PEAK_RSS_GAUGE`] (when telemetry is enabled), returning the sample
/// so callers can also report it out-of-band (JSON artifacts).
pub fn record_peak_rss() -> Option<u64> {
    let bytes = peak_rss_bytes()?;
    if crate::enabled() {
        global().gauge(PEAK_RSS_GAUGE).set(bytes);
    }
    Some(bytes)
}

/// Linux reports `utime` and `stime` in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
#[cfg(target_os = "linux")]
const NS_PER_TICK: u64 = 10_000_000;

/// Reads cumulative cpu time for this process in nanoseconds: `utime +
/// stime` of `/proc/self/stat`, which sums every thread the process has
/// run, joined ones included. The resolution is one `USER_HZ` tick
/// (10 ms). Returns `None` on platforms without procfs — callers must
/// treat cpu time as unknown, not zero.
pub fn cpu_time_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        stat_cpu_ns("/proc/self/stat")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// `utime + stime` of a procfs `stat` file, in nanoseconds.
#[cfg(target_os = "linux")]
fn stat_cpu_ns(path: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // The command name (field 2) may contain spaces and parentheses; the
    // fields after its closing parenthesis start at field 3, so utime
    // and stime (fields 14 and 15) sit at indices 11 and 12.
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * NS_PER_TICK)
}

/// Samples [`cpu_time_ns`] and records it into the global
/// [`CPU_TIME_GAUGE`] (when telemetry is enabled), returning the sample
/// so callers can also report it out-of-band.
pub fn record_cpu_time() -> Option<u64> {
    let ns = cpu_time_ns()?;
    if crate::enabled() {
        global().gauge(CPU_TIME_GAUGE).set(ns);
    }
    Some(ns)
}

/// Samples every procfs-backed process gauge that is available on this
/// platform (peak RSS, cpu time). Intended for periodic calls from the
/// metrics endpoint or epoch loop; missing sources are skipped.
pub fn record_process_gauges() {
    let _ = record_peak_rss();
    let _ = record_cpu_time();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_plausible_value() {
        let rss = peak_rss_bytes().expect("procfs available on linux");
        // Any running test binary holds at least 100 KiB and (sanity
        // ceiling) under 1 TiB.
        assert!(rss > 100 * 1024, "peak RSS {rss} implausibly small");
        assert!(rss < 1 << 40, "peak RSS {rss} implausibly large");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn cpu_time_is_monotone_and_plausible() {
        let a = cpu_time_ns().expect("procfs available on linux");
        // Burn a little cpu so the second sample can only be >=.
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = cpu_time_ns().unwrap();
        assert!(b >= a, "cpu time went backwards: {a} -> {b}");
        // A running test process has burned under an hour of cpu.
        assert!(b < 3_600_000_000_000_000, "cpu time {b} implausible");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn cpu_time_counts_joined_worker_threads() {
        // The work runs on a spawned thread only, so a reader that sees
        // just the main thread would not rise at all.
        const BURN: std::time::Duration = std::time::Duration::from_millis(50);
        let before = cpu_time_ns().expect("procfs available on linux");
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            let mut x = 1u64;
            // Busy-spin until the thread itself has burned BURN of cpu;
            // wall time bounds the loop if the thread is descheduled.
            while start.elapsed() < BURN * 200 {
                for i in 0..100_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                let own = stat_cpu_ns("/proc/thread-self/stat").unwrap();
                if own >= BURN.as_nanos() as u64 + NS_PER_TICK {
                    break;
                }
            }
            std::hint::black_box(x);
        })
        .join()
        .unwrap();
        let after = cpu_time_ns().unwrap();
        assert!(
            after - before >= BURN.as_nanos() as u64,
            "a joined thread burned >= 50 ms of cpu but the reading rose {} ns",
            after - before
        );
    }

    #[test]
    fn record_process_gauges_never_panics() {
        record_process_gauges();
    }
}

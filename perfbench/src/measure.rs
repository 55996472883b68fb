//! Measurement helpers: quantiles, process counters read from `/proc`,
//! the host header, and the one-line JSON result.

use crate::calib::Reference;
use std::collections::BTreeMap;
use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
/// Returns 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean over consecutive windows of `window` samples (the last one may
/// be shorter) of each window's median: a median that weighs every
/// stretch of the run alike, where a pooled median jumps between the
/// modes of a run whose host alternates fast and slow phases.
pub fn window_median(samples: &[f64], window: usize) -> f64 {
    let medians: Vec<f64> = samples.chunks(window.max(1)).map(median).collect();
    mean(&medians)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Set-up timing: `timed` builds, build `i` from `crate::setup_seed(i)`,
/// each timed together with `finish`, which creates (and drops) what the
/// deployment needs borrowed, such as its engine. Each build is dropped
/// before the next, so peak RSS stays one deployment's, and the host
/// `reference` is sampled after each. Before them, an
/// untimed build from `seed` warms lazy process-wide state (lane
/// dispatch, IFMA detection), which users pay once per process, not per
/// deployment; after them, another from `seed` is returned for the
/// measured loop. Returns the timed builds' seconds and that build.
pub fn timed_builds<T>(
    timed: usize,
    seed: u64,
    build: impl Fn(u64) -> T,
    finish: impl Fn(&T),
    reference: &mut Reference,
) -> (Vec<f64>, T) {
    if timed > 0 {
        drop(build(seed));
    }
    let seconds = (1..=timed as u64)
        .map(|i| {
            let t0 = std::time::Instant::now();
            let built = build(crate::setup_seed(i));
            finish(&built);
            let dt = t0.elapsed().as_secs_f64();
            drop(built);
            reference.sample();
            dt
        })
        .collect();
    (seconds, build(seed))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Events recorded into the telemetry journal so far, evicted ones
/// included.
fn telemetry_events() -> u64 {
    let j = sies_telemetry::journal();
    j.len() as u64 + j.dropped()
}

/// Process CPU and telemetry events over the engine's epoch calls, for
/// `parallel.cpu_util` and `telemetry.events_per_epoch`. Only traced runs
/// read them, so the end-to-end loop does no `/proc` reads.
#[derive(Default)]
pub struct CallCounters {
    cpu_s: f64,
    wall_s: f64,
    events: u64,
}

impl CallCounters {
    /// Readings before one call, when `traced`.
    pub fn before(traced: bool) -> Option<(f64, u64)> {
        traced.then(|| (process_cpu_s(), telemetry_events()))
    }

    /// Adds one call that took `wall`, given its `before` readings.
    pub fn after(&mut self, before: Option<(f64, u64)>, wall: Duration) {
        if let Some((cpu0, events0)) = before {
            self.cpu_s += process_cpu_s() - cpu0;
            self.wall_s += wall.as_secs_f64();
            self.events += telemetry_events() - events0;
        }
    }

    /// Process CPU over wall time across the calls.
    pub fn cpu_util(&self) -> f64 {
        self.cpu_s / self.wall_s
    }

    /// Telemetry events per call, over `calls` calls.
    pub fn events_per(&self, calls: f64) -> f64 {
        self.events as f64 / calls
    }
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used so far, summed over all of its
/// threads (`utime + stime` of `/proc/self/stat`).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Git revision of the checkout, read from `.git` in the working
/// directory without leaving it; `"unknown"` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_feature(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            "avx512ifma" => std::arch::is_x86_feature_detected!("avx512ifma"),
            "sha" => std::arch::is_x86_feature_detected!("sha"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

/// One JSON line describing the host the result was taken on: cores,
/// the run's median reference unit times (see `calib`; a timing in the
/// result times its unit time gives the measured wall time), the hash
/// lane width the crypto dispatch chose, the CPU features the kernels
/// dispatch on, git revision, and whether telemetry is on.
pub fn host_header(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    (serial_unit_ms, parallel_unit_ms): (f64, f64),
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \
         \"reference_unit_ms\": {{\"serial\": {serial_unit_ms}, \"parallel\": {parallel_unit_ms}}}, \
         \"lane_width\": {lanes}, \
         \"avx2\": {avx2}, \"avx512f\": {avx512f}, \"avx512ifma\": {ifma}, \"sha_ni\": {sha}, \
         \"git_rev\": \"{rev}\", \"telemetry\": {tel}}}}}",
        lanes = sies_crypto::lanes::effective_lane_width(),
        avx2 = cpu_feature("avx2"),
        avx512f = cpu_feature("avx512f"),
        ifma = cpu_feature("avx512ifma"),
        sha = cpu_feature("sha"),
        rev = git_revision(),
        tel = sies_telemetry::enabled(),
    )
}

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epoch_ms.p50", "ms"),
    ("epoch_ms.p90", "ms"),
    ("epochs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("radio_bytes_per_epoch", "bytes"),
    ("availability", "ratio"),
    ("resume_ms.p50", "ms"),
];

/// Every per-layer metric, with its unit (`--trace 1`). A layer that
/// does no work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.source_init_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.epoch_crypto_us", "us"),
    ("secoa.source_init_ms", "ms"),
    ("secoa.merge_ms", "ms"),
    ("secoa.sink_ms", "ms"),
    ("secoa.evaluate_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.explained_share", "ratio"),
    ("engine.recovering_epoch_us", "us"),
    ("crypto.hm1_ns_per_key", "ns"),
    ("crypto.hm256_ns_per_key", "ns"),
    ("parallel.source_speedup", "x"),
    ("parallel.cpu_util", "ratio"),
    ("telemetry.events_per_epoch", "count"),
    ("receipts.record_us", "us"),
    ("receipts.bytes_per_epoch", "bytes"),
    ("receipts.replay_records_per_s", "1/s"),
    ("recovery.overhead_us", "us"),
    ("recovery.retransmit_bytes_per_epoch", "bytes"),
    ("recovery.control_bytes_per_epoch", "bytes"),
    ("recovery.resolicitations_per_epoch", "count"),
    ("recovery.useful_ratio", "ratio"),
    ("trace.untraced_epoch_ms", "ms"),
    ("trace.traced_epoch_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Timing metrics of work that runs on one thread whatever the
/// workload's thread count: deployment builds, journal resume and
/// replay, receipt records, and the PRF kernels. The others time the
/// epoch's work, split over the workload's threads.
const SERIAL: &[&str] = &[
    "setup_s",
    "resume_ms.p50",
    "crypto.hm1_ns_per_key",
    "crypto.hm256_ns_per_key",
    "receipts.record_us",
    "receipts.replay_records_per_s",
];

/// The result of one run: correctness, epoch accounting, and metrics.
pub struct Report {
    trace: bool,
    /// Cleared once any correctness check fails.
    correct: bool,
    /// Epochs attempted in the measured (or traced) loop.
    attempted: u64,
    /// Epochs that failed a correctness check.
    failed: u64,
    /// Values as measured, before scaling to the nominal host speed.
    values: BTreeMap<&'static str, f64>,
    /// The run's median reference unit times in ms (see `calib`), for
    /// serial work and for work split over the epoch's threads.
    serial_unit_ms: f64,
    parallel_unit_ms: f64,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            serial_unit_ms: 1.0,
            parallel_unit_ms: 1.0,
        }
    }

    /// Sets the run's median reference unit times, by which every
    /// timing is stated at the nominal host speed.
    pub fn set_reference(&mut self, reference: &Reference) {
        self.serial_unit_ms = reference.serial_unit_ms();
        self.parallel_unit_ms = reference.parallel_unit_ms();
    }

    /// The run's median reference unit times in ms: serial, parallel.
    pub fn reference_unit_ms(&self) -> (f64, f64) {
        (self.serial_unit_ms, self.parallel_unit_ms)
    }

    /// A measured value of metric `name` in `unit` at the nominal host
    /// speed, where one reference unit takes 1 ms: times shrink and
    /// rates grow by the run's unit time (the serial one for the
    /// metrics in [`SERIAL`]); counts, sizes and ratios stay as they
    /// are.
    fn at_nominal_speed(&self, name: &str, value: f64, unit: &str) -> f64 {
        let unit_ms = if SERIAL.contains(&name) {
            self.serial_unit_ms
        } else {
            self.parallel_unit_ms
        };
        match unit {
            "s" | "ms" | "us" | "ns" => value / unit_ms,
            "1/s" => value * unit_ms,
            _ => value,
        }
    }

    fn schema(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records a metric of this run's kind, as measured.
    ///
    /// # Panics
    /// Panics on a name outside the run's metric list: that is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.schema().iter().any(|&(n, _)| n == name),
            "metric {name} is not a {} metric",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        self.values.insert(name, value);
    }

    /// Counts one attempted epoch, failed when `ok` is false.
    pub fn epoch(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks a run-level correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("correctness check failed: {what}");
            self.correct = false;
        }
    }

    /// The result line, every timing at the nominal host speed.
    /// End-to-end runs must have set every metric; per-layer runs report
    /// 0 for layers the workload never enters.
    pub fn to_json(&self) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in self.schema() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if self.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = self.at_nominal_speed(name, value, unit);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.correct && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&xs), 3.0);
        assert_eq!(window_median(&xs, 2), (2.5 + 2.5 + 5.0) / 3.0);
        assert_eq!(window_median(&xs, 5), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn timings_scale_to_the_nominal_host_speed() {
        let mut r = Report::new(false);
        r.serial_unit_ms = 2.0;
        r.parallel_unit_ms = 4.0;
        assert_eq!(r.at_nominal_speed("epoch_ms.p50", 10.0, "ms"), 2.5);
        assert_eq!(r.at_nominal_speed("setup_s", 3.0, "s"), 1.5);
        assert_eq!(r.at_nominal_speed("epochs_per_s", 100.0, "1/s"), 400.0);
        assert_eq!(
            r.at_nominal_speed("radio_bytes_per_epoch", 7.0, "bytes"),
            7.0
        );
        assert_eq!(r.at_nominal_speed("availability", 0.8, "ratio"), 0.8);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = process_cpu_s();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() >= t0);
    }
}

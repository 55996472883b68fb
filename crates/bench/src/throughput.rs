//! Parallel epoch-engine throughput: epochs/sec vs thread count, with
//! a built-in determinism oracle.
//!
//! For each population size `N` the suite runs the same seeded epoch
//! sequence through the engine at every requested thread count and
//! reports wall-clock throughput plus the per-phase CPU breakdown. A
//! SHA-256 digest over every epoch's final PSR bytes, verdict, and
//! contributor set is computed per configuration; the suite *asserts*
//! the digests are identical across thread counts, so a throughput run
//! that completes is itself a proof that parallelism changed no byte of
//! the results.
//!
//! The same digest doubles as the lane-width oracle: before the thread
//! sweep the suite replays the smallest population serially at every
//! multi-lane hash width (W ∈ {1, 4, 8, 16}) and asserts the digests
//! agree, so neither worker count nor hash lane width can change a
//! result byte.
//!
//! The scale sweep ([`scale_suite`]) runs the same engine and oracle at
//! N ∈ {10k, 100k, 1M} on threads 1, 2 and 8, so the digest check
//! reaches the million-sensor population too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sies_core::SystemParams;
use sies_crypto::hash::HashFunction;
use sies_crypto::lanes;
use sies_crypto::sha256::Sha256;
use sies_net::engine::Engine;
use sies_net::scheme::SchemeError;
use sies_net::{SiesDeployment, Threads, Topology};
use std::time::Instant;

/// The population sizes the throughput sweep covers.
pub const THROUGHPUT_N: [u64; 3] = [100, 500, 1000];

/// Default thread counts to sweep (1 is always measured first as the
/// serial baseline).
pub const DEFAULT_THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The populations of the scale sweep (`repro throughput` caps this
/// with `--max-n`).
pub const SCALE_N: [u64; 3] = [10_000, 100_000, 1_000_000];

/// Thread counts the scale sweep digest-asserts at every population.
pub const SCALE_THREADS: [usize; 3] = [1, 2, 8];

/// One measured configuration, ready for `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputPoint {
    /// Source population size.
    pub n: u64,
    /// Worker threads in the sharded source phase.
    pub threads: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Wall-clock time for the whole run, ms.
    pub wall_ms: f64,
    /// Epochs completed per wall-clock second.
    pub epochs_per_sec: f64,
    /// Summed in-worker CPU time of the source phase, ms.
    pub source_cpu_ms: f64,
    /// Summed aggregator merge CPU, ms.
    pub aggregator_cpu_ms: f64,
    /// Summed querier evaluation CPU, ms.
    pub querier_cpu_ms: f64,
    /// Wall-clock speedup vs the serial (threads = 1) run of the same
    /// `n`; 1.0 for the baseline itself.
    pub speedup_vs_serial: f64,
    /// SHA-256 over every epoch's final PSR, verdict, and contributor
    /// set — equal across thread counts by the determinism oracle.
    pub result_digest: String,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Folds one epoch's outcome into the running SHA-256 — the serial
/// equivalence oracle's byte layout: final PSR bytes (when one exists),
/// verdict, then the contributor set.
fn digest_epoch(
    digest: &mut Sha256,
    final_psr: Option<&sies_core::scheme::Psr>,
    result: &Result<sies_net::EvaluatedSum, SchemeError>,
    contributors: &[u32],
) {
    if let Some(psr) = final_psr {
        digest.update(&psr.to_bytes());
    }
    match result {
        Ok(sum) => {
            digest.update(&[1, u8::from(sum.integrity_checked)]);
            digest.update(&sum.sum.to_bits().to_le_bytes());
        }
        Err(SchemeError::VerificationFailed(m)) => {
            digest.update(&[2]);
            digest.update(m.as_bytes());
        }
        Err(SchemeError::Malformed(m)) => {
            digest.update(&[3]);
            digest.update(m.as_bytes());
        }
    }
    for sid in contributors {
        digest.update(&sid.to_le_bytes());
    }
}

/// A seeded `N`-source SIES deployment on the complete fanout-4 tree.
fn deployment(seed: u64, n: u64) -> (SiesDeployment, Topology) {
    let mut rng = StdRng::seed_from_u64(seed ^ n);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    (dep, Topology::complete_tree(n, 4))
}

/// Runs `epochs` clean epochs through the [`Engine`] at one thread
/// count, timing and digesting every result. Values come from the
/// canonical per-N RNG (`seed ^ n ^ 0xEB0C`), so every thread count
/// replays the same readings.
fn measure_point(
    dep: &SiesDeployment,
    topo: &Topology,
    seed: u64,
    threads: usize,
    epochs: u64,
) -> ThroughputPoint {
    let n = dep.num_sources();
    let mut engine = Engine::new(dep, topo).with_threads(Threads::fixed(threads));
    let mut values_rng = StdRng::seed_from_u64(seed ^ n ^ 0xEB0C);
    let mut digest = Sha256::new();
    let mut source_cpu = 0.0f64;
    let mut merge_cpu = 0.0f64;
    let mut querier_cpu = 0.0f64;

    let wall_start = Instant::now();
    for epoch in 0..epochs {
        let values: Vec<u64> = (0..n).map(|_| values_rng.random_range(0..5000)).collect();
        let out = engine.run_epoch(epoch, &values);
        source_cpu += out.stats.source_cpu.as_secs_f64() * 1e3;
        merge_cpu += out.stats.aggregator_cpu.as_secs_f64() * 1e3;
        querier_cpu += out.stats.querier_cpu.as_secs_f64() * 1e3;
        digest_epoch(
            &mut digest,
            engine.last_final_psr(),
            &out.result,
            &out.stats.contributors,
        );
    }
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    ThroughputPoint {
        n,
        threads,
        epochs,
        wall_ms,
        epochs_per_sec: epochs as f64 / (wall_ms / 1e3),
        source_cpu_ms: source_cpu,
        aggregator_cpu_ms: merge_cpu,
        querier_cpu_ms: querier_cpu,
        speedup_vs_serial: 1.0, // patched by `sweep_population`
        result_digest: hex(&digest.finalize()),
    }
}

/// Runs `epochs` clean epochs of a seeded `N`-source SIES deployment at
/// one thread count, digesting every result.
fn run_config(seed: u64, n: u64, threads: usize, epochs: u64) -> ThroughputPoint {
    let (dep, topo) = deployment(seed, n);
    measure_point(&dep, &topo, seed, threads, epochs)
}

/// Measures one population at every thread count in `threads` (serial
/// first) on a single deployment, and asserts every digest equals the
/// serial run's.
///
/// # Panics
/// Panics when a thread count's digest diverges from the serial run.
fn sweep_population(seed: u64, n: u64, threads: &[usize], epochs: u64) -> Vec<ThroughputPoint> {
    assert_eq!(threads.first(), Some(&1), "serial baseline must run first");
    let (dep, topo) = deployment(seed, n);
    let mut points: Vec<ThroughputPoint> = Vec::with_capacity(threads.len());
    for &t in threads {
        let mut point = measure_point(&dep, &topo, seed, t, epochs);
        if let Some(serial) = points.first() {
            assert_eq!(
                point.result_digest, serial.result_digest,
                "determinism oracle violated: N={n}, {t} threads diverged from the serial engine"
            );
            point.speedup_vs_serial = serial.wall_ms / point.wall_ms;
        }
        points.push(point);
    }
    points
}

/// Replays the smallest sweep population serially at each forced hash
/// lane width and asserts the result digests are byte-identical; returns
/// the `(width, digest)` pairs. The in-process counterpart of CI's
/// `SIES_LANES` matrix leg. Clears the width override before returning.
///
/// # Panics
/// Panics when any width's digest diverges from W = 1.
pub fn lane_width_sweep(seed: u64, epochs: u64) -> Vec<(usize, String)> {
    let digests: Vec<(usize, String)> = [1usize, 4, 8, 16]
        .iter()
        .map(|&w| {
            lanes::set_lane_width(w);
            (
                w,
                run_config(seed, THROUGHPUT_N[0], 1, epochs).result_digest,
            )
        })
        .collect();
    lanes::clear_lane_width();
    for (w, digest) in &digests[1..] {
        assert_eq!(
            digest, &digests[0].1,
            "lane-width oracle violated: W={w} diverged from the scalar engine"
        );
    }
    digests
}

/// Runs the throughput sweep: every `n` in [`THROUGHPUT_N`] at every
/// thread count in `thread_sweep` (deduplicated, serial first), each for
/// `epochs` epochs. Runs [`lane_width_sweep`] first.
///
/// Panics if any configuration's result digest differs from the serial
/// baseline's — the determinism oracle.
pub fn throughput_suite(seed: u64, epochs: u64, thread_sweep: &[usize]) -> Vec<ThroughputPoint> {
    lane_width_sweep(seed, epochs);
    let mut sweep: Vec<usize> = thread_sweep.iter().map(|&t| t.max(1)).collect();
    if !sweep.contains(&1) {
        sweep.insert(0, 1);
    }
    sweep.sort_unstable();
    sweep.dedup();

    THROUGHPUT_N
        .iter()
        .flat_map(|&n| sweep_population(seed, n, &sweep, epochs))
        .collect()
}

/// Runs the scale sweep: every population in `ns` at every thread count
/// in [`SCALE_THREADS`], one deployment per population, with the same
/// digest oracle as [`throughput_suite`]. `epochs_for(n)` lets callers
/// shrink the epoch count as `n` grows.
///
/// # Panics
/// Panics when any thread count's digest diverges from the serial run.
pub fn scale_suite(seed: u64, ns: &[u64], epochs_for: impl Fn(u64) -> u64) -> Vec<ThroughputPoint> {
    ns.iter()
        .flat_map(|&n| sweep_population(seed, n, &SCALE_THREADS, epochs_for(n).max(1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_digests_agree_across_thread_counts() {
        // The suite panics internally if any digest diverges; this run is
        // the small-scale differential oracle. Keep it tiny — larger
        // sweeps run from `repro throughput`.
        let points = throughput_suite(42, 2, &[1, 2, 4]);
        assert_eq!(points.len(), THROUGHPUT_N.len() * 3);
        for chunk in points.chunks(3) {
            assert!(chunk
                .iter()
                .all(|p| p.result_digest == chunk[0].result_digest));
            assert!(chunk.iter().all(|p| p.epochs_per_sec > 0.0));
            assert_eq!(chunk[0].threads, 1);
            assert_eq!(chunk[0].speedup_vs_serial, 1.0);
        }
        // Distinct populations must produce distinct aggregates.
        assert_ne!(points[0].result_digest, points[3].result_digest);
    }

    #[test]
    fn lane_widths_do_not_change_results() {
        let digests = lane_width_sweep(3, 2);
        assert_eq!(digests.len(), 4);
        assert_eq!(digests[3].0, 16, "the AVX-512 request is swept too");
        assert!(digests.iter().all(|(_, d)| d == &digests[0].1));
    }

    #[test]
    fn scale_suite_digests_agree_across_thread_counts() {
        // The internal assert_eq! is the oracle; the shape checks are
        // bookkeeping.
        let points = scale_suite(11, &[200, 300], |_| 3);
        assert_eq!(points.len(), 2 * SCALE_THREADS.len());
        for chunk in points.chunks(SCALE_THREADS.len()) {
            let threads: Vec<usize> = chunk.iter().map(|p| p.threads).collect();
            assert_eq!(threads, SCALE_THREADS);
            assert!(chunk
                .iter()
                .all(|p| p.result_digest == chunk[0].result_digest && p.epochs == 3));
        }
        assert_ne!(points[0].result_digest, points[3].result_digest);
    }

    #[test]
    fn run_config_is_seed_stable() {
        let a = run_config(7, 100, 1, 2);
        let b = run_config(7, 100, 2, 2);
        assert_eq!(a.result_digest, b.result_digest);
        let c = run_config(8, 100, 1, 2);
        assert_ne!(a.result_digest, c.result_digest, "seed must matter");
    }
}

//! The traced run's view of one epoch: the same work the engine does,
//! driven from outside through the public layer calls
//! (`batch_source_init`, `try_merge`, `sink_finalize`, `evaluate_par`)
//! over `FlatTopology::post_order`, with a timer around each call.
//! Spans live here, in the benchmark, never inside the program.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sies_core::{parallel, Epoch, SourceId};
use sies_crypto::prf::{self, KeyedPrf};
use sies_net::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use sies_net::FlatTopology;
use std::time::{Duration, Instant};

/// Wall time spent in each layer during one outside-driven epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub source_init: Duration,
    pub merge: Duration,
    pub sink: Duration,
    pub evaluate: Duration,
}

impl LayerTimes {
    /// Time in the scheme's layers, all four together.
    pub fn crypto(&self) -> Duration {
        self.source_init + self.merge + self.sink + self.evaluate
    }
}

/// One outside-driven epoch: its layer times, the final PSR the querier
/// received, and the querier's verdict.
pub struct Driven<P> {
    pub times: LayerTimes,
    pub final_psr: Option<P>,
    pub result: Result<EvaluatedSum, SchemeError>,
}

/// Runs `epoch` layer by layer over every source, as a clean engine
/// epoch does.
pub fn drive_epoch<S: AggregationScheme>(
    scheme: &S,
    flat: &FlatTopology,
    threads: usize,
    epoch: Epoch,
    values: &[u64],
) -> Driven<S::Psr> {
    let mut times = LayerTimes::default();
    let post = flat.post_order();

    let mut job_nodes = Vec::new();
    let mut jobs = Vec::new();
    for &id32 in post {
        let id = id32 as usize;
        if let Some(sid) = flat.source_id(id) {
            job_nodes.push(id);
            jobs.push((sid, values[sid as usize]));
        }
    }
    let t0 = Instant::now();
    let shards = parallel::map_chunks(threads, &jobs, |chunk| {
        scheme.batch_source_init(epoch, chunk)
    });
    times.source_init = t0.elapsed();

    let mut outputs: Vec<Vec<S::Psr>> = vec![Vec::new(); flat.num_nodes()];
    for (&id, res) in job_nodes.iter().zip(shards.into_iter().flatten()) {
        match res {
            Ok(psr) => outputs[id].push(psr),
            Err(e) => {
                return Driven {
                    times,
                    final_psr: None,
                    result: Err(e),
                }
            }
        }
    }

    let mut inputs = Vec::new();
    for &id32 in post {
        let id = id32 as usize;
        if flat.is_source(id) {
            continue;
        }
        inputs.clear();
        for &c in flat.children(id) {
            inputs.append(&mut outputs[c as usize]);
        }
        if inputs.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let merged = scheme.try_merge(&inputs);
        times.merge += t0.elapsed();
        match merged {
            Ok(psr) => outputs[id].push(psr),
            Err(e) => {
                return Driven {
                    times,
                    final_psr: None,
                    result: Err(e),
                }
            }
        }
    }

    let Some(root_psr) = outputs[flat.root()].pop() else {
        return Driven {
            times,
            final_psr: None,
            result: Err(SchemeError::Malformed("no PSR reached the sink".into())),
        };
    };
    let t0 = Instant::now();
    let final_psr = scheme.sink_finalize(root_psr);
    times.sink = t0.elapsed();

    let t0 = Instant::now();
    let contributors: Vec<SourceId> = jobs.iter().map(|&(sid, _)| sid).collect();
    let result = scheme.evaluate_par(&final_psr, epoch, &contributors, threads);
    times.evaluate = t0.elapsed();

    Driven {
        times,
        final_psr: Some(final_psr),
        result,
    }
}

/// The `(source, value)` jobs of a clean epoch in post-order, as the
/// engine's source phase builds them.
pub fn clean_jobs(flat: &FlatTopology, values: &[u64]) -> Vec<(SourceId, u64)> {
    flat.post_order()
        .iter()
        .filter_map(|&id| flat.source_id(id as usize))
        .map(|sid| (sid, values[sid as usize]))
        .collect()
}

/// Median wall time of the source phase at one worker count, over
/// `reps` repetitions.
fn source_phase_ms<S: AggregationScheme>(
    scheme: &S,
    threads: usize,
    epoch: Epoch,
    jobs: &[(SourceId, u64)],
    reps: usize,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = parallel::map_chunks(threads, jobs, |chunk| {
                scheme.batch_source_init(epoch, chunk)
            });
            let dt = t0.elapsed();
            std::hint::black_box(out);
            crate::measure::ms(dt)
        })
        .collect();
    crate::measure::median(&samples)
}

/// 1-worker over `threads`-worker source phase on the same jobs: the
/// speed-up the sharded source phase gets from more cores.
pub fn source_speedup<S: AggregationScheme>(
    scheme: &S,
    threads: usize,
    epoch: Epoch,
    jobs: &[(SourceId, u64)],
    reps: usize,
) -> f64 {
    let serial = source_phase_ms(scheme, 1, epoch, jobs, reps);
    let sharded = source_phase_ms(scheme, threads, epoch, jobs, reps);
    serial / sharded
}

/// Cores the sharded runs use: all the host has.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median nanoseconds per key of `prf::hm1_epoch_many` and
/// `prf::hm256_epoch_many` over `n` cached keys. Each sample hashes at
/// least 20,000 keys, in batches of `n`.
pub fn prf_ns_per_key(seed: u64, n: usize, samples: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let prfs: Vec<KeyedPrf> = (0..n)
        .map(|_| {
            let mut key = [0u8; 20];
            rng.fill_bytes(&mut key);
            KeyedPrf::new(&key)
        })
        .collect();
    let batches = (20_000 / n).max(1);
    let time = |f: &dyn Fn(u64)| -> f64 {
        let per_key: Vec<f64> = (0..samples)
            .map(|s| {
                let t0 = Instant::now();
                for b in 0..batches {
                    f((s * batches + b) as u64);
                }
                t0.elapsed().as_nanos() as f64 / (batches * n) as f64
            })
            .collect();
        crate::measure::median(&per_key)
    };
    let hm1 = time(&|epoch| {
        std::hint::black_box(prf::hm1_epoch_many(prfs.iter(), epoch));
    });
    let hm256 = time(&|epoch| {
        std::hint::black_box(prf::hm256_epoch_many(prfs.iter(), epoch));
    });
    (hm1, hm256)
}

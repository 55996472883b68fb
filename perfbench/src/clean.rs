//! The clean workloads, `sum_100k` (SIES) and `secoa_256` (the SECOA_S
//! baseline): closed loop, one querier, one epoch in flight, every epoch
//! through `Engine::run_epoch`.

use crate::calib::Reference;
use crate::layers::{self, LayerTimes};
use crate::measure::{
    median, ms, peak_rss_mb, quantile, timed_builds, window_median, CallCounters, Report,
};
use crate::Run;
use sies_net::engine::Engine;
use sies_net::journal::{JournalConfig, ReceiptJournal};
use sies_net::scheme::{AggregationScheme, EvaluatedSum};
use sies_net::{Threads, Topology};
use sies_workload::{DomainScale, IntelLabGenerator};
use std::time::{Duration, Instant};

/// The scheme a clean workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// SIES: an accepted sum must equal the readings' exact total; the
    /// traced run reports `core.*` (sink finalisation is the identity).
    Sies,
    /// SECOA_S: the sum is an estimate and only has to verify; the traced
    /// run reports `secoa.*`.
    Secoa,
}

/// A clean workload's shape.
pub struct Spec {
    pub sources: u64,
    pub fanout: usize,
    pub threads: usize,
    pub scale: DomainScale,
    /// Timed deployment builds behind `setup_s`.
    pub setups: usize,
    /// Fewest measured epochs, so `epoch_ms.p90` has ten samples above it.
    pub min_epochs: usize,
    pub scheme: Scheme,
}

/// Whether one clean epoch's outcome is right: accepted, verified, and
/// for an exact scheme equal to the sum of every reading.
fn epoch_ok(
    result: &Result<EvaluatedSum, impl std::fmt::Debug>,
    values: &[u64],
    exact: bool,
) -> bool {
    match result {
        Ok(sum) => {
            sum.integrity_checked && (!exact || sum.sum == values.iter().sum::<u64>() as f64)
        }
        Err(e) => {
            eprintln!("clean epoch rejected: {e:?}");
            false
        }
    }
}

/// The querier's restart journal. The clean workloads journal no
/// receipts, so it holds only its session header, and a restart
/// rebuilds the μTesla chain and reopens the file.
struct RestartProbe {
    path: std::path::PathBuf,
    cfg: JournalConfig,
}

impl RestartProbe {
    fn new(run: &Run) -> Self {
        let path = run.work_dir.join("querier.journal");
        let cfg = crate::journal_config(run);
        let mut journal = ReceiptJournal::create(&path, &cfg).expect("create journal");
        journal.finish().expect("sync journal");
        RestartProbe { path, cfg }
    }

    /// Milliseconds one restart (`ReceiptJournal::resume`) takes.
    fn resume_ms(&self) -> f64 {
        let t0 = Instant::now();
        let (journal, state) =
            ReceiptJournal::resume(&self.path, &self.cfg).expect("resume journal");
        let dt = t0.elapsed();
        assert!(state.summary.receipts.is_empty());
        drop(journal);
        ms(dt)
    }
}

/// The readings repeat every this many epochs. SECOA's cost depends on
/// the readings, so a stream that kept drifting (the generator follows a
/// diurnal cycle) would make the epoch mix depend on how many epochs fit
/// in the run, and so on the host's speed.
const READING_PERIOD: u64 = 16;

/// Epochs per window of `window_median`. The host runs the same epoch
/// up to 1.8 times slower in phases lasting a few seconds (161–304 ms
/// within one `sum_100k` run), so a median pooled over the run jumps
/// with the phases' mix; a window spans about one phase.
const WINDOW: usize = 8;

/// Engine epochs per block of the traced run.
const TRACE_BLOCK: usize = 4;

pub fn run<S: AggregationScheme>(spec: &Spec, build: &dyn Fn(u64) -> S, run: &Run) -> Report
where
    S::Psr: PartialEq,
{
    let mut report = Report::new(run.trace);
    let threads = Threads::fixed(spec.threads);
    let exact = spec.scheme == Scheme::Sies;
    let mut reference = Reference::new(spec.threads);

    // The measured deployment draws its keys from the run's seed.
    let (setup_s, (scheme, topo)) = timed_builds(
        if run.trace { 0 } else { spec.setups },
        run.sub_seed(100),
        |seed| {
            (
                build(seed),
                Topology::complete_tree(spec.sources, spec.fanout),
            )
        },
        |(scheme, topo)| drop(Engine::new(scheme, topo).with_threads(threads)),
        &mut reference,
    );
    let mut engine = Engine::new(&scheme, &topo).with_threads(threads);

    let new_readings = || IntelLabGenerator::new(run.sub_seed(2), spec.sources as usize);
    let mut readings = new_readings();

    // One untimed warm-up epoch grows the engine's reusable buffers.
    let values = readings.epoch_values(0, spec.scale);
    let warm = engine.run_epoch(0, &values);
    report.check(epoch_ok(&warm.result, &values, exact), "warm-up epoch");

    let mut epoch_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layer_times: Vec<LayerTimes> = Vec::new();
    let (mut data, mut all_bytes, mut accepted) = (0u64, 0u64, 0u64);
    let mut counters = CallCounters::default();

    let (hm1_ns, hm256_ns, speedup) = if run.trace {
        let (hm1, hm256) = layers::prf_ns_per_key(run.sub_seed(8), spec.sources as usize, 15);
        let jobs = layers::clean_jobs(engine.flat(), &values);
        let speedup = layers::source_speedup(&scheme, layers::cores(), 0, &jobs, 5);
        (hm1, hm256, speedup)
    } else {
        (0.0, 0.0, 0.0)
    };

    // The traced run alternates blocks: TRACE_BLOCK engine epochs, then
    // the same epochs again driven from outside, so the two kinds of
    // epoch see the same host conditions without sharing warm caches
    // epoch by epoch.
    let min_epochs = if run.trace { 10 } else { spec.min_epochs };
    let mut block = Vec::new();
    let probe = (!run.trace).then(|| RestartProbe::new(run));
    let mut resume_ms = Vec::new();
    let start = Instant::now();
    let mut epoch = 1u64;
    loop {
        let done = start.elapsed() >= run.seconds && epoch_ms.len() >= min_epochs;
        if !done {
            if epoch.is_multiple_of(READING_PERIOD) {
                readings = new_readings();
            }
            let values = readings.epoch_values(epoch % READING_PERIOD, spec.scale);
            let before = CallCounters::before(run.trace);
            let t0 = Instant::now();
            let out = engine.run_epoch(epoch, &values);
            let dt = t0.elapsed();
            counters.after(before, dt);

            let ok = epoch_ok(&out.result, &values, exact)
                && out.stats.contributors.len() as u64 == spec.sources;
            accepted += out.result.is_ok() as u64;
            let b = out.stats.bytes;
            data += b.data_total();
            all_bytes += b.data_total() + b.retransmit + b.control;
            epoch_ms.push(ms(dt));
            if run.trace {
                let psr = engine.last_final_psr().cloned();
                block.push((epoch, values, psr, out.result.ok(), ok));
            } else {
                report.epoch(ok);
            }
            // The querier restarts after every epoch, so the restart
            // samples spread over the whole run; so do the host's.
            if let Some(probe) = &probe {
                resume_ms.push(probe.resume_ms());
            }
            reference.sample();
            epoch += 1;
        }
        if done || block.len() == TRACE_BLOCK {
            for (epoch, values, psr, result, engine_ok) in block.drain(..) {
                let t0 = Instant::now();
                let d = layers::drive_epoch(&scheme, engine.flat(), spec.threads, epoch, &values);
                traced_ms.push(ms(t0.elapsed()));
                layer_times.push(d.times);
                // Fidelity: the outside-driven epoch must land on the
                // engine's final PSR and sum exactly.
                let same = d.final_psr == psr && d.result.ok() == result;
                if !same {
                    eprintln!("epoch {epoch}: outside-driven epoch differs from the engine's");
                }
                report.epoch(engine_ok && same);
            }
        }
        if done {
            break;
        }
    }

    let epochs = epoch_ms.len() as f64;
    report.set_reference(&reference);
    if !run.trace {
        report.set("setup_s", median(&setup_s));
        report.set("epoch_ms.p50", window_median(&epoch_ms, WINDOW));
        report.set("epoch_ms.p90", quantile(&epoch_ms, 0.9));
        report.set(
            "epochs_per_s",
            epochs / (epoch_ms.iter().sum::<f64>() / 1e3),
        );
        report.set("radio_bytes_per_epoch", all_bytes as f64 / epochs);
        report.set("availability", accepted as f64 / epochs);
        report.set("resume_ms.p50", window_median(&resume_ms, WINDOW));
        report.set("peak_rss_mb", peak_rss_mb());
        return report;
    }

    let p50 = |f: fn(&LayerTimes) -> Duration| {
        median(&layer_times.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    let source = p50(|t| t.source_init);
    let merge = p50(|t| t.merge);
    let sink = p50(|t| t.sink);
    let evaluate = p50(|t| t.evaluate);
    let crypto = p50(|t| t.crypto());
    let untraced = median(&epoch_ms);
    let traced = median(&traced_ms);
    let explained = match spec.scheme {
        Scheme::Sies => {
            report.set("core.source_init_ms", source);
            report.set("core.merge_ms", merge);
            report.set("core.evaluate_ms", evaluate);
            report.set("core.epoch_crypto_us", crypto * 1e3);
            source + merge + evaluate
        }
        Scheme::Secoa => {
            report.set("secoa.source_init_ms", source);
            report.set("secoa.merge_ms", merge);
            report.set("secoa.sink_ms", sink);
            report.set("secoa.evaluate_ms", evaluate);
            source + merge + sink + evaluate
        }
    };
    report.set("engine.overhead_ms", untraced - explained);
    report.set("engine.explained_share", explained / untraced);
    report.set("crypto.hm1_ns_per_key", hm1_ns);
    report.set("crypto.hm256_ns_per_key", hm256_ns);
    report.set("parallel.source_speedup", speedup);
    report.set("parallel.cpu_util", counters.cpu_util());
    report.set("telemetry.events_per_epoch", counters.events_per(epochs));
    report.set("recovery.useful_ratio", data as f64 / all_bytes as f64);
    report.set("trace.untraced_epoch_ms", untraced);
    report.set("trace.traced_epoch_ms", traced);
    report.set("trace.overhead_share", traced / untraced - 1.0);
    report
}

//! The `chaos_64` workload: adversarial, lossy SIES epochs through
//! `Engine::run_epoch_recovering`, each journaled as a signed receipt
//! (fsynced every 32 epochs), and a querier killed and resumed from its
//! journal at a fixed cadence.
//!
//! The journal is rotated every [`ROUND`] epochs and the querier is
//! killed every [`SEGMENT`] epochs inside a round, so every resume
//! replays 256, 512 or 768 receipts however many epochs fit in the run.
//!
//! An epoch takes a few hundred microseconds, and the host alternates
//! between fast and slow phases about a second long in which the same
//! epoch takes up to twice as long. A median pooled over a whole run
//! falls in the gap between the two modes and jumps with their mix, so
//! the timing metrics are taken per segment (or per round) and averaged
//! over the run, which weighs every phase by its length.

use crate::calib::Reference;
use crate::layers::{self, LayerTimes};
use crate::measure::{mean, median, ms, peak_rss_mb, quantile, CallCounters, Report};
use crate::Run;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sies_core::SystemParams;
use sies_crypto::sha256::Sha256;
use sies_crypto::HashFunction;
use sies_net::chaos::{absorb, ChaosConfig, ChaosMetrics};
use sies_net::engine::{Attack, Engine};
use sies_net::journal::{fold_receipt, replay, JournalConfig, ReceiptJournal};
use sies_net::radio::LossyRadio;
use sies_net::scheme::EvaluatedSum;
use sies_net::{NodeId, SiesDeployment, Topology};
use sies_receipts::{EpochReceipt, Verdict};
use sies_workload::{DomainScale, IntelLabGenerator};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

const SOURCES: u64 = 64;
const FANOUT: usize = 4;
/// Epochs per journal; the journal's μTesla chain is sized to match.
pub const ROUND: u64 = 1024;
/// Epochs per segment: the querier is killed between segments, a fresh
/// set-up is timed at the start of each, and the epoch quantiles are
/// taken within each.
const SEGMENT: u64 = 256;
/// Epochs between two samples of the host reference.
const REFERENCE_EVERY: u64 = 64;

/// One epoch's injected faults, drawn before the epoch is timed.
struct Faults {
    crashed: HashSet<NodeId>,
    attacks: Vec<Attack>,
    /// Seeds the radio's per-frame loss draws.
    radio_seed: u64,
}

/// Draws faults with the `ChaosConfig::default()` mix: crash 0.2 (one
/// to three non-root nodes), attack 0.2 (tamper, drop, duplicate or
/// replay, on a live non-root node).
fn draw_faults(rng: &mut StdRng, cfg: &ChaosConfig, candidates: &[NodeId]) -> Faults {
    let mut crashed = HashSet::new();
    if rng.random_range(0.0..1.0) < cfg.crash_prob {
        for _ in 0..rng.random_range(1..=3usize) {
            crashed.insert(candidates[rng.random_range(0..candidates.len())]);
        }
    }
    let mut attacks = Vec::new();
    if rng.random_range(0.0..1.0) < cfg.attack_prob {
        let live: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|id| !crashed.contains(id))
            .collect();
        let target = live[rng.random_range(0..live.len())];
        attacks.push(match rng.random_range(0..4u32) {
            0 => Attack::TamperAtNode(target),
            1 => Attack::DropAtNode(target),
            2 => Attack::DuplicateAtNode(target),
            _ => Attack::ReplayFinal,
        });
    }
    Faults {
        crashed,
        attacks,
        radio_seed: rng.next_u64(),
    }
}

/// Whether a receipt is a correct outcome: no corrupted aggregate
/// accepted, no clean one rejected, and an accepted verified sum equal
/// to the readings of exactly its contributors.
fn receipt_ok(r: &EpochReceipt, values: &[u64]) -> bool {
    match r.verdict {
        Verdict::Accepted => {
            let expected: u64 = r.contributors.iter().map(|&s| values[s as usize]).sum();
            !r.corrupted
                && !r.sum_mismatch
                && (!r.integrity_checked || f64::from_bits(r.sum_bits) == expected as f64)
        }
        Verdict::Rejected => r.corrupted,
        Verdict::Lost => true,
    }
}

/// Seconds the `i`-th fresh set-up takes: deployment keys, topology, the
/// serial engine and the querier's journal at `path`, each dropped before
/// the next set-up.
fn setup_s(i: u64, cfg: &ChaosConfig, path: &Path, jcfg: &JournalConfig) -> f64 {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(crate::setup_seed(i));
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(SOURCES).expect("N=64 is valid"));
    let topo = Topology::complete_tree(SOURCES, FANOUT);
    let engine = Engine::new(&dep, &topo).with_threads(cfg.threads);
    let journal = ReceiptJournal::create(path, jcfg).expect("create journal");
    drop((engine, journal));
    t0.elapsed().as_secs_f64()
}

/// Median records per second of a cold `journal::replay` of `path`.
fn replay_records_per_s(path: &Path, cfg: &JournalConfig, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let state = replay(path, cfg).expect("replay the last journal");
            state.summary.receipts.len() as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Traced-run samples of one fault-free epoch (no crash, no attack, every
/// source counted): the engine's recovering call and the same epoch
/// driven from outside, which must reproduce its final PSR and sum.
struct Split {
    recovering_us: f64,
    layers: LayerTimes,
}

pub fn run(run: &Run) -> Report {
    let mut report = Report::new(run.trace);
    let cfg = ChaosConfig::default();
    let jcfg = crate::journal_config(run);
    let path = run.work_dir.join("chaos.journal");
    let setup_path = run.work_dir.join("setup.journal");

    // The measured deployment, built once untimed: it warms process-wide
    // lazy state (lane dispatch), which users pay once per process.
    let mut rng = StdRng::seed_from_u64(run.sub_seed(100));
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(SOURCES).expect("N=64 is valid"));
    let topo = Topology::complete_tree(SOURCES, FANOUT);
    let mut engine = Engine::new(&dep, &topo).with_threads(cfg.threads);
    let radio = LossyRadio::new(cfg.loss_rate, cfg.max_retries);
    let root = engine.flat().root();
    let candidates: Vec<NodeId> = (0..engine.flat().num_nodes())
        .filter(|&id| id != root)
        .collect();
    let mut readings = IntelLabGenerator::new(run.sub_seed(2), SOURCES as usize);
    let mut fault_rng = StdRng::seed_from_u64(run.sub_seed(3));

    let (hm1_ns, hm256_ns, speedup) = if run.trace {
        let values = readings.epoch_values(0, DomainScale::DEFAULT);
        let jobs = layers::clean_jobs(engine.flat(), &values);
        let (hm1, hm256) = layers::prf_ns_per_key(run.sub_seed(8), SOURCES as usize, 15);
        let speedup = layers::source_speedup(&dep, layers::cores(), 0, &jobs, 101);
        (hm1, hm256, speedup)
    } else {
        (0.0, 0.0, 0.0)
    };

    let mut total = ChaosMetrics::default();
    let mut setups = Vec::new();
    // Per segment: the epoch p50 and p90; per round: the median resume.
    let (mut seg_p50, mut seg_p90, mut round_resume) = (Vec::new(), Vec::new(), Vec::new());
    let mut seg_ms = Vec::with_capacity(SEGMENT as usize);
    let mut busy_ms = 0.0f64;
    let mut record_us = Vec::new();
    let mut splits: Vec<Split> = Vec::new();
    let mut counters = CallCounters::default();
    let (mut journal_bytes, mut journal_records) = (0u64, 0u64);
    let mut reference = Reference::new(cfg.threads.resolve());

    let start = Instant::now();
    let mut epoch = 0u64;
    while start.elapsed() < run.seconds {
        // A new journal session per round (rotation).
        let mut journal = ReceiptJournal::create(&path, &jcfg).expect("create journal");
        let mut round = ChaosMetrics::default();
        let mut digest = Sha256::new();
        let mut resume_ms = Vec::new();
        for k in 0..ROUND {
            if k % SEGMENT == 0 {
                if !run.trace {
                    let i = setups.len() as u64 + 1;
                    setups.push(setup_s(i, &cfg, &setup_path, &jcfg));
                }
                if k > 0 {
                    seg_p50.push(median(&seg_ms));
                    seg_p90.push(quantile(&seg_ms, 0.9));
                    seg_ms.clear();

                    // Kill the querier: its journal handle, counters and
                    // digest are lost; only the file survives.
                    drop(journal);
                    let t0 = Instant::now();
                    let (resumed, state) =
                        ReceiptJournal::resume(&path, &jcfg).expect("resume journal");
                    let dt = ms(t0.elapsed());
                    resume_ms.push(dt);
                    busy_ms += dt;
                    let mut rebuilt = ChaosMetrics::default();
                    for r in &state.summary.receipts {
                        absorb(&mut rebuilt, r);
                    }
                    report.check(
                        state.digest.clone().finalize() == digest.clone().finalize(),
                        "replayed digest equals the live fold_receipt digest",
                    );
                    report.check(rebuilt == round, "replayed metrics equal the live metrics");
                    report.check(
                        state.next_epoch == epoch && state.summary.receipts.len() as u64 == k,
                        "resume continues at the killed epoch",
                    );
                    journal = resumed;
                }
            }

            let values = readings.epoch_values(epoch, DomainScale::DEFAULT);
            let faults = draw_faults(&mut fault_rng, &cfg, &candidates);
            let mut radio_rng = StdRng::seed_from_u64(faults.radio_seed);

            let before = CallCounters::before(run.trace);
            let t0 = Instant::now();
            let out = engine.run_epoch_recovering(
                epoch,
                &values,
                &faults.crashed,
                &faults.attacks,
                &radio,
                &cfg.recovery,
                &mut radio_rng,
            );
            let t1 = Instant::now();
            let mut receipt = out.receipt(
                epoch,
                &values,
                !faults.crashed.is_empty(),
                !faults.attacks.is_empty(),
            );
            let t2 = Instant::now();
            journal.record(&mut receipt);
            let t3 = Instant::now();
            counters.after(before, t3 - t0);
            seg_ms.push(ms(t3 - t0));
            busy_ms += ms(t3 - t0);

            fold_receipt(&mut digest, &receipt);
            absorb(&mut round, &receipt);
            absorb(&mut total, &receipt);
            let ok = receipt_ok(&receipt, &values) && total.sound();
            report.epoch(ok);

            if run.trace {
                record_us.push(ms(t3 - t2) * 1e3);
                let fault_free = faults.crashed.is_empty()
                    && faults.attacks.is_empty()
                    && receipt.verdict == Verdict::Accepted
                    && receipt.contributors.len() as u64 == SOURCES;
                if fault_free {
                    let d = layers::drive_epoch(&dep, engine.flat(), 1, epoch, &values);
                    let engine_sum = EvaluatedSum {
                        sum: f64::from_bits(receipt.sum_bits),
                        integrity_checked: receipt.integrity_checked,
                    };
                    report.check(
                        d.final_psr.as_ref() == engine.last_final_psr()
                            && d.result.ok() == Some(engine_sum),
                        "the outside-driven fault-free epoch reproduces the engine's",
                    );
                    splits.push(Split {
                        recovering_us: ms(t1 - t0) * 1e3,
                        layers: d.times,
                    });
                }
            }
            epoch += 1;
            if epoch.is_multiple_of(REFERENCE_EVERY) {
                reference.sample();
            }
        }
        seg_p50.push(median(&seg_ms));
        seg_p90.push(quantile(&seg_ms, 0.9));
        seg_ms.clear();
        round_resume.push(median(&resume_ms));
        journal.finish().expect("sync journal");
        let stats = journal.stats();
        report.check(stats.io_errors == 0, "journal wrote without I/O errors");
        journal_bytes += stats.bytes_written;
        journal_records += stats.records;
    }
    total.epochs = epoch;
    report.check(total.sound(), "chaos metrics are sound");
    let _ = std::fs::remove_file(&setup_path);

    report.set_reference(&reference);
    let epochs = epoch as f64;
    let radio_bytes = (total.data_bytes + total.retransmit_bytes + total.control_bytes) as f64;
    let epoch_p50 = mean(&seg_p50);
    if !run.trace {
        report.set("setup_s", median(&setups));
        report.set("epoch_ms.p50", epoch_p50);
        report.set("epoch_ms.p90", mean(&seg_p90));
        report.set("epochs_per_s", epochs / (busy_ms / 1e3));
        report.set("radio_bytes_per_epoch", radio_bytes / epochs);
        report.set("availability", total.availability());
        report.set("resume_ms.p50", mean(&round_resume));
        report.set("peak_rss_mb", peak_rss_mb());
        let _ = std::fs::remove_file(&path);
        return report;
    }

    let p50 = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let source = p50(|s| ms(s.layers.source_init));
    let merge = p50(|s| ms(s.layers.merge));
    let evaluate = p50(|s| ms(s.layers.evaluate));
    let crypto_us = p50(|s| ms(s.layers.crypto()) * 1e3);
    let recovering_us = p50(|s| s.recovering_us);
    report.set("core.source_init_ms", source);
    report.set("core.merge_ms", merge);
    report.set("core.evaluate_ms", evaluate);
    report.set("core.epoch_crypto_us", crypto_us);
    report.set(
        "engine.overhead_ms",
        epoch_p50 - (source + merge + evaluate),
    );
    report.set(
        "engine.explained_share",
        (source + merge + evaluate) / epoch_p50,
    );
    report.set("engine.recovering_epoch_us", recovering_us);
    report.set("recovery.overhead_us", recovering_us - crypto_us);
    report.set("crypto.hm1_ns_per_key", hm1_ns);
    report.set("crypto.hm256_ns_per_key", hm256_ns);
    report.set("parallel.source_speedup", speedup);
    report.set("parallel.cpu_util", counters.cpu_util());
    report.set("telemetry.events_per_epoch", counters.events_per(epochs));
    report.set("receipts.record_us", median(&record_us));
    report.set(
        "receipts.bytes_per_epoch",
        journal_bytes as f64 / journal_records as f64,
    );
    report.set(
        "receipts.replay_records_per_s",
        replay_records_per_s(&path, &jcfg, 5),
    );
    report.set(
        "recovery.retransmit_bytes_per_epoch",
        total.retransmit_bytes as f64 / epochs,
    );
    report.set(
        "recovery.control_bytes_per_epoch",
        total.control_bytes as f64 / epochs,
    );
    report.set(
        "recovery.resolicitations_per_epoch",
        total.resolicitations as f64 / epochs,
    );
    report.set(
        "recovery.useful_ratio",
        total.data_bytes as f64 / radio_bytes,
    );
    // The outside-driven epoch covers only the scheme's calls (the
    // engine's recovery protocol has no public per-layer entry points),
    // so it is no traced copy of the whole chaos epoch and no tracing
    // overhead is reported here.
    report.set("trace.untraced_epoch_ms", epoch_p50);
    let _ = std::fs::remove_file(&path);
    report
}

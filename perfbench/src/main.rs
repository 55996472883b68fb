//! End-to-end and per-layer benchmark of SIES epochs.
//!
//! ```text
//! perfbench --workload <sum_100k|chaos_64|secoa_256> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one querier and one epoch in
//! flight, driven through the production path (`Engine::run_epoch`,
//! `Engine::run_epoch_recovering` and `ReceiptJournal`). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` a
//! separate traced run times the public calls into each layer on the
//! same inputs. Readings come from `IntelLabGenerator` and faults from
//! the benchmark's own RNG, both seeded from `--seed` and drawn before
//! the timed call. The last line of standard output is the result as
//! one JSON object; the line before it describes the host.

mod calib;
mod chaos;
mod clean;
mod layers;
mod measure;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sies_baselines::SecoaSum;
use sies_core::SystemParams;
use sies_net::journal::{FsyncPolicy, JournalConfig};
use sies_net::SiesDeployment;
use sies_workload::DomainScale;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One invocation's settings, shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Working directory for journal files, inside the current directory.
    pub work_dir: PathBuf,
}

impl Run {
    /// An independent seed for one input stream (keys, readings,
    /// faults, ...), so streams never share draws.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        mix(self.seed, stream)
    }
}

/// SplitMix64 finaliser over (seed, stream).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key seed of the `i`-th timed set-up build. It is the same in every
/// run, whatever `--seed`: one SECOA build's RSA prime search took from
/// 27 to 862 ms depending on the draw, so with per-seed draws `setup_s`
/// measured the seed's luck more than the code.
pub fn setup_seed(i: u64) -> u64 {
    mix(0, 1_000 + i)
}

/// The querier's receipt-journal session: keys from the seed, a μTesla
/// chain as long as one journal rotation, and an fsync every 32
/// committed epochs (per-epoch fsyncs on a shared disk made the epoch
/// tail unrepeatable; see README.md).
pub fn journal_config(run: &Run) -> JournalConfig {
    let mut hmac_key = [0u8; 32];
    StdRng::seed_from_u64(run.sub_seed(5)).fill_bytes(&mut hmac_key);
    JournalConfig {
        session: run.sub_seed(6),
        hmac_key,
        mutesla_seed: run.sub_seed(7),
        capacity: chaos::ROUND,
        mutesla_delay: 1,
        fsync: FsyncPolicy::EveryN(32),
    }
}

const WORKLOADS: [&str; 3] = ["sum_100k", "chaos_64", "secoa_256"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn sum_100k(run: &Run) -> measure::Report {
    let spec = clean::Spec {
        sources: 100_000,
        fanout: 4,
        threads: 2,
        scale: DomainScale::DEFAULT,
        setups: 9,
        min_epochs: 100,
        scheme: clean::Scheme::Sies,
    };
    let build = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        SiesDeployment::new(
            &mut rng,
            SystemParams::new(100_000).expect("N=100k is valid"),
        )
    };
    clean::run(&spec, &build, run)
}

fn secoa_256(run: &Run) -> measure::Report {
    let spec = clean::Spec {
        sources: 256,
        fanout: 4,
        threads: 2,
        scale: DomainScale { power: 0 },
        setups: 41,
        min_epochs: 100,
        scheme: clean::Scheme::Secoa,
    };
    let build = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        SecoaSum::new(&mut rng, 256, 20, 1024)
    };
    clean::run(&spec, &build, run)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work_dir,
    };

    let report = match args.workload.as_str() {
        "sum_100k" => sum_100k(&run),
        "chaos_64" => chaos::run(&run),
        _ => secoa_256(&run),
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");

    println!(
        "{}",
        measure::host_header(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            report.reference_unit_ms()
        )
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

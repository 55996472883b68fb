//! Host speed reference: a fixed unit of work owned by the benchmark,
//! timed over and over between the measured calls, so that every timing
//! can be stated at one nominal host speed.
//!
//! The shared host this benchmark runs on drifts: the same binary ran
//! 20–40% slower in some stretches of minutes than in others, with
//! little steal time, so no statistic over one run's own samples can
//! tell a slower program from a slower host. The reference unit slows
//! with the host but never with the program (it shares no code with
//! it). It mixes scalar multiply chains, a read chain over an
//! L2-sized table and SHA-256-style vector rounds, because in slow host
//! phases the program's hashing and cache-bound control code slowed
//! about twice as much as a purely scalar unit did. The report divides
//! every timing by a median unit time of the run: a timing in ms reads
//! as ms on a host where one unit takes 1 ms. The raw unit times are
//! printed in the host header.

use crate::measure::{mean, median};
use std::time::Instant;

/// Words in the scalar part's lookup table: 16 KiB, which stays in L1
/// once touched, so the unit's time depends on the core's speed and not
/// on how much of the cache the program left it.
const TABLE_WORDS: usize = 1 << 11;
/// Rounds of the scalar part of a unit: about 0.5 ms on the host this
/// benchmark was written on.
const ROUNDS: u64 = 75_000;
/// Words in the table of the cache part of a unit: 1 MiB, which fits
/// a core's L2 but not its L1, like the working set of a chaos epoch.
const CACHE_WORDS: usize = 1 << 17;
/// Dependent reads of the cache part of a unit: about 0.3 ms on the
/// host this benchmark was written on.
const CACHE_READS: u64 = 60_000;
/// Rounds of the vector part of a unit: about 0.5 ms with AVX2 on the
/// host this benchmark was written on (ten times that without it).
const VECTOR_ROUNDS: u32 = 60_000;

/// The reference kernel, its thread count, and the unit times sampled
/// so far.
pub struct Reference {
    table: Vec<u64>,
    cache_table: Vec<u64>,
    threads: usize,
    /// Per sample, the mean of the threads' unit times.
    mean_ms: Vec<f64>,
    /// Per sample, the slowest thread's unit time.
    max_ms: Vec<f64>,
}

impl Reference {
    /// A reference sampled on `threads` threads at once: the measured
    /// epochs' worker count.
    pub fn new(threads: usize) -> Self {
        let mut z = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let table = (0..TABLE_WORDS).map(|_| next()).collect();
        let cache_table = (0..CACHE_WORDS).map(|_| next()).collect();
        Reference {
            table,
            cache_table,
            threads: threads.max(1),
            mean_ms: Vec::new(),
            max_ms: Vec::new(),
        }
    }

    /// One unit: [`Self::scalar_part`], [`Self::cache_part`], then
    /// [`vector_part`].
    fn unit(&self, start: u64) -> u64 {
        let x = self.cache_part(self.scalar_part(start));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { vector_part_avx2(x) };
        }
        vector_part(x)
    }

    /// Scalar part of a unit. Each round advances a dependent chain (a
    /// table word it chose, a multiply, a rotate: latency-bound) and
    /// four independent multiply lanes (throughput-bound), as the
    /// bignum and bookkeeping code does.
    fn scalar_part(&self, start: u64) -> u64 {
        let mask = TABLE_WORDS as u64 - 1;
        let mut chain = start;
        let mut lanes = [start ^ 1, start ^ 2, start ^ 3, start ^ 4];
        for _ in 0..ROUNDS {
            let w = self.table[(chain & mask) as usize];
            chain = (chain ^ w)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .rotate_left(23);
            for (k, x) in lanes.iter_mut().enumerate() {
                let p = (*x as u128) * ((w | 1) as u128 + k as u128);
                *x = (p as u64) ^ ((p >> 64) as u64);
            }
        }
        lanes.iter().fold(chain, |a, &x| a ^ x)
    }

    /// Cache part of a unit: a chain of reads over the 1 MiB table,
    /// each at an index the previous one chose (latency-bound on L2).
    fn cache_part(&self, start: u64) -> u64 {
        let mask = CACHE_WORDS as u64 - 1;
        let mut x = start;
        for _ in 0..CACHE_READS {
            x = (x ^ self.cache_table[(x & mask) as usize]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        x
    }

    /// Milliseconds of one unit on the calling thread, its tables
    /// touched first.
    fn timed_unit(&self, start: u64) -> f64 {
        std::hint::black_box(self.table.iter().fold(0, |a, &w| a ^ w));
        std::hint::black_box(self.cache_table.iter().fold(0, |a, &w| a ^ w));
        let t0 = Instant::now();
        std::hint::black_box(self.unit(std::hint::black_box(start)));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Runs one unit on each thread at once and keeps their mean and
    /// slowest time. Each thread times only its own unit, so the time
    /// the host takes to start a thread is not counted.
    pub fn sample(&mut self) {
        let this = &*self;
        let start = self.mean_ms.len() as u64;
        let times: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..this.threads as u64)
                .map(|t| s.spawn(move || this.timed_unit(start ^ (t << 32))))
                .collect();
            let mut times = vec![this.timed_unit(start)];
            times.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("reference thread")),
            );
            times
        });
        self.mean_ms.push(mean(&times));
        self.max_ms.push(times.iter().copied().fold(0.0, f64::max));
    }

    /// Median unit time for serial work, which runs on whichever core
    /// it lands: the threads' mean.
    pub fn serial_unit_ms(&self) -> f64 {
        median(&self.mean_ms)
    }

    /// Median unit time for work split evenly over the threads, which
    /// ends with its slowest part: the slowest thread's.
    pub fn parallel_unit_ms(&self) -> f64 {
        median(&self.max_ms)
    }
}

/// Vector part of a unit: SHA-256-style rounds (rotates, choose,
/// majority, adds) over eight independent 32-bit lanes, the shape of
/// the program's multi-lane hash kernels, which the compiler turns into
/// vector instructions where the target allows.
#[inline(always)]
fn vector_part(start: u64) -> u64 {
    let mut v = [[0u32; 8]; 8];
    for (i, word) in v.iter_mut().enumerate() {
        for (l, x) in word.iter_mut().enumerate() {
            *x = (start as u32) ^ ((i * 8 + l) as u32).wrapping_mul(0x9E37_79B9);
        }
    }
    for r in 0..VECTOR_ROUNDS {
        let k = r.wrapping_mul(0x428A_2F98);
        let [a, b, c, d, e, f, g, h] = v;
        let mut t1 = [0u32; 8];
        let mut t2 = [0u32; 8];
        for l in 0..8 {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l].wrapping_add(s1).wrapping_add(ch).wrapping_add(k);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = s0.wrapping_add(maj);
        }
        let mut new_a = [0u32; 8];
        let mut new_e = [0u32; 8];
        for l in 0..8 {
            new_a[l] = t1[l].wrapping_add(t2[l]);
            new_e[l] = d[l].wrapping_add(t1[l]);
        }
        v = [new_a, a, b, c, new_e, e, f, g];
    }
    v.iter()
        .flatten()
        .fold(0, |acc, &x| acc.rotate_left(5) ^ u64::from(x))
}

/// [`vector_part`] compiled with AVX2, as the program's hash lanes are
/// on hosts that have it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn vector_part_avx2(start: u64) -> u64 {
    vector_part(start)
}

//! Order-preserving scoped-thread sharding for the epoch engine.
//!
//! The engine shards the per-sensor work of one epoch (PRF derivation,
//! encryption, share generation) across a pool of `std::thread::scope`
//! workers. Determinism is preserved *by construction*: every helper here
//! assigns each worker a contiguous, disjoint slice of the input and
//! writes results into the matching slice of the output, so the caller
//! observes exactly the sequence a serial loop would have produced —
//! regardless of thread count or scheduling. No runtime dependency is
//! involved; workers live only for the duration of the call.

use sies_telemetry as tel;
use std::num::NonZeroUsize;

/// Worker-pool sizing for the parallel epoch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Use [`std::thread::available_parallelism`] (falls back to 1 when
    /// the host does not report it).
    Auto,
    /// Exactly this many workers; `Fixed(1)` runs inline with no spawns.
    Fixed(NonZeroUsize),
}

impl Threads {
    /// Builds a fixed thread count, mapping `0` to `Auto`.
    pub fn fixed(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) => Threads::Fixed(n),
            None => Threads::Auto,
        }
    }

    /// A single-worker (serial) configuration.
    pub const fn serial() -> Self {
        // SAFETY-free const construction: 1 is non-zero.
        match NonZeroUsize::new(1) {
            Some(n) => Threads::Fixed(n),
            None => unreachable!(),
        }
    }

    /// Resolves to a concrete worker count (≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Threads::Fixed(n) => n.get(),
        }
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::serial()
    }
}

/// Splits `items` into at most `threads` contiguous chunks, applies `f`
/// to each chunk on its own scoped worker, and returns the per-chunk
/// results **in input order**.
///
/// With `threads <= 1` (or a single chunk) `f` runs inline on the calling
/// thread — the serial and parallel paths execute the same closure over
/// the same chunk boundaries only when `threads` matches, so callers that
/// need byte-identical output across thread counts must combine chunk
/// results with an exactly associative operation (modular addition,
/// integer sums, ordered concatenation — not floating-point folds).
pub fn map_chunks<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = threads.max(1).min(items.len());
    let chunk_len = items.len().div_ceil(workers);
    if workers == 1 {
        let _shard = tel::span!("parallel.shard");
        return vec![f(items)];
    }
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let mut out: Vec<Option<U>> = Vec::with_capacity(chunks.len());
    out.resize_with(chunks.len(), || None);
    std::thread::scope(|scope| {
        for (chunk, slot) in chunks.iter().zip(out.iter_mut()) {
            let f = &f;
            scope.spawn(move || {
                // Each worker's whole shard is one span: the histogram's
                // spread across samples is the shard imbalance.
                let _shard = tel::span!("parallel.shard");
                *slot = Some(f(chunk));
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every worker fills its slot"))
        .collect()
}

/// Applies `f(index, item)` to every item across `threads` scoped
/// workers and returns the results **in input order**, exactly as the
/// serial loop `items.iter().enumerate().map(...)` would.
///
/// Unlike [`map_chunks`] the per-item closure sees the item's global
/// index, so output is independent of the chunking: any thread count
/// yields the identical `Vec`.
pub fn map_ordered<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers == 1 {
        let _shard = tel::span!("parallel.shard");
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (w, (in_chunk, out_chunk)) in items
            .chunks(chunk_len)
            .zip(out.chunks_mut(chunk_len))
            .enumerate()
        {
            let base = w * chunk_len;
            let f = &f;
            scope.spawn(move || {
                let _shard = tel::span!("parallel.shard");
                for (j, (item, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                    *slot = Some(f(base + j, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every worker fills its slots"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolve() {
        assert_eq!(Threads::serial().resolve(), 1);
        assert_eq!(Threads::fixed(4).resolve(), 4);
        assert!(Threads::fixed(0).resolve() >= 1); // 0 → Auto
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::default(), Threads::serial());
    }

    #[test]
    fn map_ordered_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 4, 7, 8, 64, 2000] {
            let par = map_ordered(threads, &items, |i, v| v * 3 + i as u64);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_ordered_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(8, &empty, |_, v| *v).is_empty());
        assert_eq!(map_ordered(8, &[9u32], |i, v| (i, *v)), vec![(0, 9)]);
    }

    #[test]
    fn map_chunks_concatenation_is_order_preserving() {
        let items: Vec<u32> = (0..257).collect();
        for threads in [1, 2, 5, 16] {
            let flat: Vec<u32> = map_chunks(threads, &items, |c| c.to_vec())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(flat, items, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_exact_sums_are_thread_count_invariant() {
        // Integer sums combine associatively, so any chunking agrees.
        let items: Vec<u64> = (1..=10_000).collect();
        let expected: u64 = items.iter().sum();
        for threads in [1, 2, 3, 8, 33] {
            let total: u64 = map_chunks(threads, &items, |c| c.iter().sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_empty_input() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunks(4, &empty, |c| c.len()).is_empty());
    }
}

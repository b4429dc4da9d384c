//! # cqc-runtime — deterministic parallel execution
//!
//! A std-only (no external dependencies) parallel runtime for the
//! embarrassingly parallel loops of the counting engines: colour-coding
//! repetitions (Lemma 22), Karp–Luby union trials (Lemma 51), batch
//! evaluation across databases, and the decomposition candidate search
//! (Lemma 43). The design goal is captured by one invariant:
//!
//! > **Determinism.** For a fixed engine seed, every estimate is
//! > bit-identical whether it is computed on 1, 2, or N threads.
//!
//! ## The seed-splitting scheme
//!
//! Sequential Monte-Carlo code conventionally threads *one* RNG stream
//! through every loop iteration, which makes the i-th draw depend on how
//! many draws iterations `0..i` consumed — and therefore on scheduling.
//! This crate removes that dependency: each logical work item (repetition
//! index, trial index, database index, candidate index) derives its own
//! RNG stream from the pair `(seed, item_index)` via [`split_seed`], a
//! SplitMix64-style bit-mix finaliser:
//!
//! ```text
//! z  = seed ⊕ (index · 0x9E3779B97F4A7C15)      // golden-ratio spacing
//! z  = (z ⊕ (z ≫ 30)) · 0xBF58476D1CE4E5B9
//! z  = (z ⊕ (z ≫ 27)) · 0x94D049BB133111EB
//! s' = z ⊕ (z ≫ 31)                             // the item's stream seed
//! ```
//!
//! The item seeds the workspace RNG (`rand::rngs::StdRng`, itself a
//! SplitMix64 generator) with `s'` and draws as much randomness as it
//! needs, in isolation. Nested loops split hierarchically with
//! [`split_seed2`] (`split_seed(split_seed(seed, a), b)`), e.g.
//! `(engine_seed, oracle_call, repetition)`. Because every item's
//! randomness is a pure function of the engine seed and the item's logical
//! coordinates, the multiset of item outcomes — and any order-insensitive
//! reduction of it (counts, sums, "any positive", first-k-by-index) — is
//! independent of thread count and scheduling.
//!
//! ## Execution model
//!
//! [`Runtime`] is a cheap `Copy` handle holding a resolved thread count
//! (requested, or the [`set_worker_cap`] override, or [`THREADS_ENV`], or
//! `std::thread::available_parallelism` — see [`resolve_threads`]).
//! [`Runtime::par_map`] / [`Runtime::par_map_n`] execute a fixed index
//! range with chunked work-stealing: the participants (the calling thread
//! plus persistent pool workers) repeatedly claim the next chunk of
//! indices from a shared atomic cursor, so a slow chunk on one participant
//! does not idle the others. Results are returned **in index order**,
//! making `par_map` a drop-in replacement for a serial `map` loop, and a
//! fold over them in index order (first minimum, floating-point sums)
//! scheduling-independent. [`Runtime::par_any_n`] evaluates an
//! order-insensitive "∃ index with predicate" with cooperative early exit.
//!
//! Work is executed by the **persistent worker pool** of [`pool`], the
//! only executor: a `par_*` call publishes its loop body as a scoped job,
//! the calling thread participates, and up to `threads − 1` long-lived
//! pool workers join in — dispatching costs a mutex lock and a wakeup
//! instead of a thread spawn per call, which is what makes fanning out
//! *small* oracle calls profitable. Nested calls (a `par_*` issued from
//! inside a helper slot) and calls that find the pool busy run inline on
//! the calling thread. The same workers run detached jobs
//! ([`pool::Pool::spawn`]): the network front end runs each request as
//! one, and its `par_*` calls get helpers like any top-level caller's, so
//! the process has one executor. The global pool's width resolves
//! exactly like an automatic thread count (`resolve_threads(0)`), so there
//! is one width knob. The pool module carries the runtime's only `unsafe`
//! (lifetime-erased scoped jobs behind a retire-before-return protocol —
//! see its docs); the rest of this crate denies `unsafe_code`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`resolve_threads`] when the caller
/// requests automatic thread selection (`0`). Used by CI to force a fixed
/// thread count (e.g. `COUNTING_THREADS=2`) so the determinism guarantee is
/// exercised on every push.
pub const THREADS_ENV: &str = "COUNTING_THREADS";

// The seed-splitting functions live in `cqc-obs` (the workspace's
// dependency root) so the tracer can derive deterministic span IDs with
// the same finaliser; the established `cqc_runtime::split_seed` path is
// preserved by re-export.
pub use cqc_obs::seed::{split_seed, split_seed2};

/// Process-wide programmatic override for automatic width (0 = unset).
static WORKER_CAP_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the automatic width process-wide: what `resolve_threads(0)`
/// returns and hence the global pool's width. Takes precedence over
/// [`THREADS_ENV`]; `0` clears it. Tests use it to vary the pool width in
/// one process. Like the thread count, it never changes estimates — only
/// wall times.
pub fn set_worker_cap(cap: usize) {
    WORKER_CAP_OVERRIDE.store(cap, Ordering::Relaxed);
}

/// Resolve a requested thread count: a positive request wins; `0` (auto)
/// falls back to the [`set_worker_cap`] override, then to [`THREADS_ENV`],
/// then to `std::thread::available_parallelism()`. The global pool's width
/// is `resolve_threads(0)`, re-read on every dispatch.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let cap = WORKER_CAP_OVERRIDE.load(Ordering::Relaxed);
    if cap > 0 {
        return cap;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A resolved parallel execution context: a thread count plus the
/// deterministic `par_*` primitives. Cheap to copy and pass down the call
/// stack; work runs on the persistent worker [`pool`] (inline on the
/// caller for nested or contended calls).
#[derive(Clone, Copy)]
pub struct Runtime {
    threads: usize,
    /// Pool to dispatch on (`None` = the process-wide [`pool::global`]).
    pool: Option<&'static pool::Pool>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .field("local_pool", &self.pool.is_some())
            .finish()
    }
}

impl PartialEq for Runtime {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
            && match (self.pool, other.pool) {
                (Some(a), Some(b)) => std::ptr::eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

impl Eq for Runtime {}

impl Default for Runtime {
    /// Equivalent to `Runtime::new(0)` (automatic thread selection).
    fn default() -> Self {
        Runtime::new(0)
    }
}

impl Runtime {
    /// A runtime with `resolve_threads(requested)` threads
    /// (`0` = automatic: [`THREADS_ENV`], else available parallelism).
    pub fn new(requested: usize) -> Self {
        Runtime {
            threads: resolve_threads(requested).max(1),
            pool: None,
        }
    }

    /// The single-threaded runtime (all `par_*` calls degenerate to serial
    /// loops on the calling thread; used to avoid nested oversubscription).
    pub const fn serial() -> Self {
        Runtime {
            threads: 1,
            pool: None,
        }
    }

    /// The resolved number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This runtime with a different resolved thread count, keeping the
    /// pool configuration (used by `count_batch` to hand leftover width to
    /// the inner per-evaluation runtime).
    pub fn with_threads(mut self, requested: usize) -> Self {
        self.threads = resolve_threads(requested).max(1);
        self
    }

    /// Dispatch `par_*` calls on the given pool instead of the process-wide
    /// [`pool::global`]. The pool (like the thread count) affects wall
    /// times only, never results; the determinism matrix in
    /// `tests/parallel_determinism.rs` runs engines against pools of width
    /// 1, 2 and 8 and requires bit-identical estimates.
    pub fn with_pool(mut self, pool: &'static pool::Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Run `body` on up to `width` participants: the calling thread plus
    /// `width − 1` pool helpers, or the caller alone when the pool is busy
    /// or the caller is a pool worker. Every participant runs `body`
    /// exactly once; `body` self-schedules over an atomic cursor, so
    /// participant count affects scheduling only.
    fn execute_wide(&self, width: usize, body: &(dyn Fn() + Sync)) {
        self.pool.unwrap_or_else(pool::global).execute(width, body);
    }

    /// Chunk size for `n` items: small enough that work can be stolen
    /// (≈ 4 chunks per worker), large enough to amortise the cursor
    /// traffic.
    fn chunk_size(&self, n: usize) -> usize {
        n.div_ceil(self.threads * 4).max(1)
    }

    /// Map `f` over `0..n` in parallel, returning results in index order —
    /// a drop-in replacement for `(0..n).map(f).collect()`. Deterministic:
    /// the output never depends on the thread count or the schedule.
    pub fn par_map_n<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let workers = self.threads.min(n);
        let chunk = self.chunk_size(n);
        let cursor = AtomicUsize::new(0);
        // Participants append their locally collected (index, result) pairs
        // here — one short lock per participant, after its work is done.
        let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        self.execute_wide(workers, &|| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                if cqc_obs::trace::enabled() && pool::on_pool_worker() {
                    // a pool helper claimed this chunk off the shared cursor
                    cqc_obs::trace::instant(
                        "steal",
                        &format!("chunk {start}..{} of {n}", (start + chunk).min(n)),
                    );
                }
                for i in start..(start + chunk).min(n) {
                    local.push((i, f(i)));
                }
            }
            if !local.is_empty() {
                sink.lock().expect("no poisoned sink").extend(local);
            }
        });
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in sink.into_inner().expect("no poisoned sink") {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every index computed exactly once"))
            .collect()
    }

    /// Map `f` over a slice in parallel, returning results in item order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_n(items.len(), |i| f(i, &items[i]))
    }

    /// Does `pred` hold for any index in `0..n`? Evaluates items in
    /// parallel with cooperative early exit once a witness is found.
    /// Deterministic because ∃ over a fixed family of independent item
    /// outcomes is order-insensitive — even though *which* items are
    /// evaluated after the first witness varies with scheduling.
    pub fn par_any_n<F>(&self, n: usize, pred: F) -> bool
    where
        F: Fn(usize) -> bool + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).any(pred);
        }
        let workers = self.threads.min(n);
        let cursor = AtomicUsize::new(0);
        let found = AtomicBool::new(false);
        self.execute_wide(workers, &|| loop {
            if found.load(Ordering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if pred(i) {
                found.store(true, Ordering::Relaxed);
                break;
            }
        });
        found.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn split_seed_is_a_pure_injective_looking_mix() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        // distinct indices give distinct streams (spot-check a window)
        let seeds: BTreeSet<u64> = (0..10_000).map(|i| split_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        // and distinct parents give distinct streams for the same index
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
        assert_ne!(split_seed2(9, 1, 2), split_seed2(9, 2, 1));
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let inputs: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = inputs.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let rt = Runtime::new(threads);
            assert_eq!(rt.par_map(&inputs, |_, &x| x * x + 1), serial);
            assert_eq!(
                rt.par_map_n(inputs.len(), |i| inputs[i] * inputs[i] + 1),
                serial
            );
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        let rt = Runtime::new(8);
        assert_eq!(rt.par_map_n(0, |i| i), Vec::<usize>::new());
        assert_eq!(rt.par_map_n(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_any_agrees_with_serial_any() {
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            assert!(rt.par_any_n(100, |i| i == 97));
            assert!(!rt.par_any_n(100, |i| i > 1000));
            assert!(!rt.par_any_n(0, |_| true));
        }
    }

    #[test]
    fn par_any_early_exit_skips_work() {
        // with a witness at index 0, an 8-thread scan of 10_000 items must
        // not evaluate all of them (cooperative cancellation)
        let evaluated = AtomicU64::new(0);
        let rt = Runtime::new(8);
        assert!(rt.par_any_n(10_000, |i| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            i == 0
        }));
        assert!(evaluated.load(Ordering::Relaxed) < 10_000);
    }

    #[test]
    fn local_pools_of_any_width_give_identical_results() {
        let serial: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for width in [1usize, 2, 8] {
            let p: &'static pool::Pool = Box::leak(Box::new(pool::Pool::new(width)));
            let rt = Runtime::new(8).with_pool(p);
            assert_eq!(
                rt.par_map_n(257, |i| i * 3 + 1),
                serial,
                "pool width {width}"
            );
        }
    }

    #[test]
    fn busy_and_nested_par_calls_run_inline_on_the_caller() {
        // Two outer items on a dedicated width-2 pool, each held until
        // both have started: one runs on the calling thread while the
        // pool is busy with the outer job, the other on a pool worker.
        // Each issues an inner `par_map_n` on the same pool, which must
        // return the serial result with every item run by the caller.
        let p: &'static pool::Pool = Box::leak(Box::new(pool::Pool::new(2)));
        let rt = Runtime::new(2).with_pool(p);
        let started = AtomicUsize::new(0);
        let outer = rt.par_map_n(2, |i| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let inner = rt.par_map_n(16, |j| {
                // slow items give helper threads, if any, time to claim
                std::thread::sleep(std::time::Duration::from_millis(1));
                (i * 100 + j, std::thread::current().id())
            });
            let me = std::thread::current().id();
            let values: Vec<usize> = inner.iter().map(|&(v, _)| v).collect();
            let inline = inner.iter().all(|&(_, id)| id == me);
            (pool::on_pool_worker(), values, inline)
        });
        let mut on_worker: Vec<bool> = outer.iter().map(|(w, _, _)| *w).collect();
        on_worker.sort();
        assert_eq!(
            on_worker,
            vec![false, true],
            "busy and nested cases both ran"
        );
        for (i, (worker, values, inline)) in outer.into_iter().enumerate() {
            let serial: Vec<usize> = (0..16).map(|j| i * 100 + j).collect();
            assert_eq!(values, serial);
            assert!(
                inline,
                "inner items left the caller (pool worker: {worker})"
            );
        }
    }

    #[test]
    fn worker_cap_override_wins() {
        // the override sets both the automatic thread count and the
        // global pool's width; restore it for other tests in this process
        set_worker_cap(3);
        assert_eq!(resolve_threads(0), 3);
        assert_eq!(Runtime::new(0).threads(), 3);
        assert_eq!(pool::global().width(), 3);
        assert_eq!(resolve_threads(5), 5, "an explicit request still wins");
        set_worker_cap(0);
    }

    #[test]
    fn traced_pool_dispatches_record_instants() {
        // a dedicated pool guarantees the dispatch is accepted (never
        // busy), so the `pool_dispatch` instant must appear; helper
        // chunk claims surface as `steal` instants. The tracer is
        // process-global, so concurrent tests may add events — the
        // assertions only require presence, never exact counts.
        let p: &'static pool::Pool = Box::leak(Box::new(pool::Pool::new(4)));
        let rt = Runtime::new(4).with_pool(p);
        cqc_obs::trace::set_enabled(true);
        let out: usize = rt.par_map_n(1024, |i| i).into_iter().sum();
        cqc_obs::trace::set_enabled(false);
        let trace = cqc_obs::trace::drain();
        assert_eq!(out, 1024 * 1023 / 2);
        let ndjson = trace.to_ndjson();
        assert!(ndjson.contains("\"name\":\"pool_dispatch\""), "{ndjson}");
        // the result is identical with the tracer off (and nothing records)
        let again: usize = rt.par_map_n(1024, |i| i).into_iter().sum();
        assert_eq!(again, out);
    }

    #[test]
    fn seeded_streams_are_schedule_independent() {
        // simulate the estimator pattern: item i draws from its own stream;
        // the order-insensitive sum is identical across thread counts
        let total = |threads: usize| -> u64 {
            Runtime::new(threads)
                .par_map_n(1000, |i| split_seed(0xC0FFEE, i as u64) >> 32)
                .into_iter()
                .sum()
        };
        assert_eq!(total(1), total(2));
        assert_eq!(total(1), total(8));
    }
}

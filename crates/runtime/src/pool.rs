//! The persistent worker pool behind [`crate::Runtime`]'s `par_*` calls.
//!
//! ## Why a pool
//!
//! Spawning worker threads *per `par_*` call* makes every small oracle call
//! pay the thread-spawn tax — tens of microseconds per worker. The pool
//! keeps **long-lived workers** that park on a condvar between jobs:
//! dispatching a job is a mutex lock plus a wakeup, two orders of magnitude
//! cheaper than a spawn.
//!
//! ## The retire-before-return protocol
//!
//! A *job* is a borrowed closure `&(dyn Fn() + Sync)` that every
//! participant runs exactly once (the closure loops over an atomic work
//! cursor internally). The closure borrows the caller's stack — results
//! sink, work cursor, the user's `f` — so handing it to threads that
//! outlive the call requires erasing its lifetime. That erasure is
//! contained in this module: its three `unsafe` regions (the `Send` impl,
//! the transmute and the worker's call) each carry an
//! `#[expect(unsafe_code, reason = …)]` under the crate's
//! `#![deny(unsafe_code)]`, so a fourth region fails to compile. It is
//! sound because of a strict protocol:
//!
//! 1. **Publish.** [`Pool::execute`] installs the erased closure under
//!    the pool mutex together with a *slot count* (how many helpers may
//!    claim it) and wakes the workers. A worker participates only by
//!    *claiming a slot* under the same mutex, which increments the job's
//!    `active` count before the worker ever touches the closure.
//! 2. **Participate.** The caller runs the closure on its own thread too —
//!    the pool contributes `width − 1` helpers to a width-`w` call.
//! 3. **Retire.** Before `execute` returns (or unwinds — the step runs
//!    in a drop guard), it re-locks the state, *cancels all unclaimed
//!    slots*, and blocks until `active == 0`. After that point no worker
//!    holds or can ever re-acquire the closure, so the borrow ends strictly
//!    after every use: the caller's stack frame outlives all accesses.
//!
//! A worker panic inside the job is caught, recorded, and re-raised on the
//! calling thread after retirement; the caller's own panic still runs
//! step 3 via the drop guard, so unwinding never leaves a dangling job
//! behind.
//!
//! ## Determinism
//!
//! The pool affects **scheduling only**. Which thread claims a slot, how
//! many helpers wake up in time to participate, and the pool width all
//! change nothing about results: the runtime's `par_*` primitives key
//! every result by work-item index and fold in index order, and every RNG
//! stream derives from `(seed, item index)` (see the crate docs). The
//! pool-width matrix in `tests/parallel_determinism.rs` pins this:
//! estimates are bit-identical for pool widths 1, 2 and 8 and equal to the
//! serial path.
//!
//! ## Nesting and contention
//!
//! A pool runs one scoped job at a time. A job the pool cannot take —
//! issued from within a helper slot (e.g. the inner per-evaluation runtime
//! of `count_batch`), or finding the pool busy with another top-level job —
//! runs inline on the calling thread. Inline execution is the width-1 case
//! of the same loop body, so it changes wall time only, never results.
//!
//! ## Detached jobs
//!
//! [`Pool::spawn`] hands the pool an owned `'static` closure to run once,
//! with nobody waiting on it — the network front end runs every dispatched
//! request this way. Detached jobs queue FIFO in the pool state; a free
//! worker prefers a claimable helper slot, then the oldest detached job,
//! then parks. A detached job is a *top-level* caller, not a helper: its
//! own `par_*` calls publish scoped jobs and get helpers like any other
//! caller's. For that the pool keeps at least two workers once anything
//! is spawned, so one long detached job never starves the rest of the
//! queue, even at width 1.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set while a pool worker runs a helper slot of a scoped job; lets
    /// nested `par_*` calls detect that they are already running on the
    /// pool. A worker running a detached job leaves it unset.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread a pool worker running a helper slot? Nested
/// parallel calls use this to run inline instead of deadlocking on their
/// own pool.
pub fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

/// Jobs currently published to a pool and not yet retired, across every
/// pool in the process. The serving layer samples this into its
/// queue-depth gauge; it is observation-only and bounds nothing.
static ACTIVE_DISPATCHES: AtomicUsize = AtomicUsize::new(0);

/// Pooled jobs currently in flight (published, not yet retired).
pub fn active_dispatches() -> u64 {
    ACTIVE_DISPATCHES.load(Ordering::Relaxed) as u64
}

/// The borrowed job closure with its lifetime erased. Soundness rests on
/// the retire-before-return protocol (module docs): the pointer is only
/// dereferenced by workers that claimed a slot under the state mutex, and
/// the publishing call does not return until every claim has retired.
#[derive(Clone, Copy)]
struct ErasedJob(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and outlives every dereference by the retire-before-return protocol; the
// raw pointer is only a lifetime-erasure device, never used for mutation.
#[expect(
    unsafe_code,
    reason = "ErasedJob crosses to pool workers; the retire-before-return protocol keeps its pointee alive"
)]
unsafe impl Send for ErasedJob {}

struct State {
    /// The in-flight job, if any. `Some` between publish and retire.
    job: Option<ErasedJob>,
    /// Bumped once per published job so a worker never claims two slots of
    /// the same job (each participant runs the closure exactly once).
    epoch: u64,
    /// Helper slots still claimable for the current job.
    slots: usize,
    /// Helpers that claimed a slot and have not yet finished the closure.
    active: usize,
    /// A helper panicked inside the current job.
    panicked: bool,
    /// Detached jobs not yet taken by a worker, oldest first.
    detached: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Worker threads spawned so far (they are spawned lazily on demand).
    spawned: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The publishing caller parks here until `active == 0`.
    done_cv: Condvar,
}

/// A persistent worker pool: long-lived threads that execute borrowed
/// scoped jobs (see the module docs for the protocol). One process-wide
/// pool serves every [`crate::Runtime`] by default ([`global`]); fixed-width
/// local pools ([`Pool::new`]) exist for tests and embedders that want
/// isolated sizing.
pub struct Pool {
    shared: Arc<Shared>,
    /// `Some(w)`: fixed total width (caller + `w − 1` helpers).
    /// `None`: dynamic — re-resolve [`crate::resolve_threads`]`(0)` per
    /// dispatch.
    fixed_width: Option<usize>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("width", &self.width())
            .field("fixed", &self.fixed_width.is_some())
            .finish()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool used by every [`crate::Runtime`] unless a local
/// pool was attached explicitly. Sized by [`crate::resolve_threads`]`(0)`,
/// re-evaluated on every dispatch (workers are spawned lazily and never
/// torn down; parked workers cost nothing).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool {
        shared: Pool::fresh_shared(),
        fixed_width: None,
        handles: Mutex::new(Vec::new()),
    })
}

impl Pool {
    fn fresh_shared() -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                slots: 0,
                active: 0,
                panicked: false,
                detached: VecDeque::new(),
                spawned: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }

    /// A pool of fixed total width: the caller plus `width − 1` persistent
    /// helper threads (spawned lazily). `width ≤ 1` gives a pool that runs
    /// every job inline on the caller. Intended for tests (the determinism
    /// matrix runs engines against pools of width 1, 2 and 8 in one
    /// process) and embedders that want isolated sizing; everything else
    /// should use [`global`].
    pub fn new(width: usize) -> Pool {
        Pool {
            shared: Pool::fresh_shared(),
            fixed_width: Some(width.max(1)),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The pool's current total width (caller + helpers): the fixed width
    /// for [`Pool::new`] pools, [`crate::resolve_threads`]`(0)` for the
    /// global one.
    pub fn width(&self) -> usize {
        self.fixed_width
            .unwrap_or_else(|| crate::resolve_threads(0))
            .max(1)
    }

    /// Run `body` with up to `width` participants (the calling thread plus
    /// at most `width − 1` pool helpers, further capped by the pool's own
    /// width). Every participant calls `body` exactly once; `body` is
    /// expected to self-schedule over an atomic cursor.
    ///
    /// When the pool cannot take the job — the caller is itself running a
    /// helper slot (nested parallelism), another job is in flight, or no
    /// helper could be spawned — `body` runs inline on the caller alone. Either
    /// way the job has fully retired on return: no worker touches `body`
    /// after this function returns.
    pub fn execute(&self, width: usize, body: &(dyn Fn() + Sync)) {
        let helpers = width.min(self.width()).saturating_sub(1);
        if helpers == 0 || on_pool_worker() || !self.publish(helpers, body) {
            body();
            return;
        }

        // Retirement runs in a drop guard so that a panic inside the
        // caller's own run of `body` still cancels unclaimed slots and
        // waits out active helpers before the stack frame unwinds.
        struct Retire<'a> {
            shared: &'a Shared,
        }
        impl Drop for Retire<'_> {
            fn drop(&mut self) {
                let mut st = self.shared.state.lock().unwrap();
                st.slots = 0; // unclaimed slots can no longer be claimed
                while st.active > 0 {
                    st = self.shared.done_cv.wait(st).unwrap();
                }
                st.job = None;
                let panicked = std::mem::replace(&mut st.panicked, false);
                drop(st);
                ACTIVE_DISPATCHES.fetch_sub(1, Ordering::Relaxed);
                if panicked && !std::thread::panicking() {
                    panic!("runtime worker panicked");
                }
            }
        }
        let retire = Retire {
            shared: &self.shared,
        };
        body();
        drop(retire);
    }

    /// Publish `body` for up to `helpers` workers and wake them. Returns
    /// `false`, publishing nothing, when another job is in flight or no
    /// worker exists and none could be spawned; on `true` the caller must
    /// retire the job before `body`'s borrow ends.
    fn publish(&self, helpers: usize, body: &(dyn Fn() + Sync)) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        if st.job.is_some() {
            return false; // busy with another top-level job
        }
        self.grow(&mut st, helpers);
        if st.spawned == 0 {
            return false;
        }
        st.job = Some(erase(body));
        st.epoch = st.epoch.wrapping_add(1);
        st.slots = helpers.min(st.spawned);
        st.active = 0;
        st.panicked = false;
        self.shared.work_cv.notify_all();
        ACTIVE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        if cqc_obs::trace::enabled() {
            cqc_obs::trace::instant(
                "pool_dispatch",
                &format!("width {} slots {}", helpers + 1, st.slots),
            );
        }
        true
    }

    /// Run `job` once on a pool worker, without waiting for it. Jobs run
    /// in FIFO order as workers come free, each as a top-level caller (its
    /// `par_*` calls get helpers; see the module docs). The pool grows to
    /// `width().max(2)` workers, so one long job never blocks the next.
    /// A panic inside `job` is caught and dropped; the worker carries on.
    /// If no worker exists and none can be spawned, `job` runs inline on
    /// the caller instead of being lost. Dropping a local pool runs every
    /// job still queued before its workers exit.
    pub fn spawn(&self, job: Box<dyn FnOnce() + Send>) {
        let mut st = self.shared.state.lock().unwrap();
        self.grow(&mut st, self.width().max(2));
        if st.spawned == 0 {
            drop(st);
            job();
            return;
        }
        st.detached.push_back(job);
        drop(st);
        self.shared.work_cv.notify_one();
    }

    /// Lazily grow the worker set to `target` threads. A failed spawn (e.g.
    /// the OS thread limit) stops the growth without panicking under the
    /// lock, which would poison the pool for every later call; the caller
    /// makes do with the workers that exist.
    fn grow(&self, st: &mut State, target: usize) {
        while st.spawned < target {
            let shared = Arc::clone(&self.shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "the pool's own workers: the one place compute threads are started"
            )]
            let spawned = std::thread::Builder::new()
                .name("cqc-pool-worker".into())
                .spawn(move || worker_loop(&shared));
            let Ok(handle) = spawned else { break };
            self.handles.lock().unwrap().push(handle);
            st.spawned += 1;
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.lock().unwrap().drain(..) {
            handle.join().expect("pool worker shut down cleanly");
        }
    }
}

/// Erase the lifetime of a borrowed job closure.
///
/// SAFETY: sound only under the retire-before-return protocol — the caller
/// ([`Pool::execute`]) must not return (or unwind) past `body`'s
/// lifetime until every claimed slot has retired and all unclaimed slots
/// are cancelled, which it enforces with its drop guard.
#[expect(
    unsafe_code,
    reason = "lifetime erasure of a scoped job, sound under the retire-before-return protocol"
)]
fn erase<'a>(body: &'a (dyn Fn() + Sync)) -> ErasedJob {
    let short: *const (dyn Fn() + Sync + 'a) = body;
    ErasedJob(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + 'a), *const (dyn Fn() + Sync + 'static)>(
            short,
        )
    })
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.job.is_some() && st.slots > 0 && st.epoch != seen_epoch {
            // Claim a slot: from here on the publisher waits for us.
            seen_epoch = st.epoch;
            st.slots -= 1;
            st.active += 1;
            let job = st.job.expect("checked above");
            drop(st);
            // SAFETY: the slot claim above happened under the mutex while
            // `job` was published, so the closure is alive until we
            // decrement `active` below (retire-before-return).
            IN_POOL_WORKER.with(|f| f.set(true));
            #[expect(
                unsafe_code,
                reason = "calls the erased job inside a claimed slot, which its publisher outlives"
            )]
            let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() })).is_ok();
            IN_POOL_WORKER.with(|f| f.set(false));
            st = shared.state.lock().unwrap();
            st.active -= 1;
            if !ok {
                st.panicked = true;
            }
            if st.active == 0 {
                shared.done_cv.notify_all();
            }
        } else if let Some(job) = st.detached.pop_front() {
            drop(st);
            // Nobody waits on a detached job, so its panic has nowhere to
            // go; catching it keeps this worker serving the queue.
            let _ = catch_unwind(AssertUnwindSafe(job));
            st = shared.state.lock().unwrap();
        } else if st.shutdown {
            return;
        } else {
            st = shared.work_cv.wait(st).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn inline_when_width_one() {
        let pool = Pool::new(1);
        let ran = AtomicU64::new(0);
        pool.execute(8, &|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        // width-1 pool: exactly one (inline) run, no helpers
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn executes_borrowed_state_and_retires() {
        let pool = Pool::new(4);
        for round in 0..50u64 {
            // borrow round-local state; retire-before-return means this is
            // sound even though the workers are long-lived
            let cursor = AtomicUsize::new(0);
            let sum = Mutex::new(0u64);
            let n = 100;
            pool.execute(4, &|| {
                let mut local = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local += i as u64 + round;
                }
                *sum.lock().unwrap() += local;
            });
            let expect: u64 = (0..n as u64).map(|i| i + round).sum();
            assert_eq!(*sum.lock().unwrap(), expect, "round {round}");
        }
    }

    #[test]
    fn nested_execute_from_worker_runs_inline() {
        let pool = Pool::new(4);
        let inner_pool = Pool::new(2);
        let participants = AtomicUsize::new(0);
        let nested = AtomicU64::new(0);
        pool.execute(4, &|| {
            // hold every participant until at least one pool helper has
            // joined, so the nested branch below is guaranteed to run
            participants.fetch_add(1, Ordering::SeqCst);
            while participants.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            if on_pool_worker() {
                // a worker asking any pool for parallelism runs the job
                // alone, on its own thread
                let me = std::thread::current().id();
                let runs = Mutex::new(Vec::new());
                inner_pool.execute(2, &|| {
                    runs.lock().unwrap().push(std::thread::current().id());
                });
                assert_eq!(*runs.lock().unwrap(), vec![me]);
                nested.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            nested.load(Ordering::Relaxed) >= 1,
            "no pool helper exercised the nested path"
        );
    }

    #[test]
    fn worker_panic_propagates_after_retirement() {
        let pool = Pool::new(4);
        let cursor = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.execute(4, &|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 64 {
                    break;
                }
                assert!(i != 17, "injected failure");
            })
        }));
        assert!(result.is_err());
        // the pool must be reusable after a panicked job
        let ran = AtomicU64::new(0);
        pool.execute(2, &|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn global_pool_exists_and_reports_width() {
        assert!(global().width() >= 1);
        let ran = AtomicU64::new(0);
        global().execute(2, &|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed) >= 1);
    }

    /// Long enough that a healthy pool never hits it, short enough that a
    /// regression fails the test instead of hanging it.
    const PATIENCE: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn spawned_job_runs_once_on_a_worker_as_a_top_level_caller() {
        let pool = Pool::new(2);
        let runs = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let counter = Arc::clone(&runs);
        pool.spawn(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            tx.send((std::thread::current().id(), on_pool_worker()))
                .unwrap();
        }));
        let (thread, flagged) = rx.recv_timeout(PATIENCE).expect("job ran");
        assert_ne!(thread, std::thread::current().id(), "ran on the caller");
        assert!(!flagged, "a detached job is not a helper slot");
        drop(pool); // joins the workers
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn execute_from_a_detached_job_gets_a_helper() {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new(2)));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(Box::new(move || {
            // the other worker is idle, so it must join this scoped job;
            // a detached job flagged as a helper would run it inline alone
            let participants = AtomicUsize::new(0);
            let waited = cqc_obs::Stopwatch::start();
            pool.execute(2, &|| {
                participants.fetch_add(1, Ordering::SeqCst);
                while participants.load(Ordering::SeqCst) < 2 && waited.elapsed() < PATIENCE {
                    std::thread::yield_now();
                }
            });
            tx.send(participants.load(Ordering::SeqCst)).unwrap();
        }));
        let participants = rx.recv_timeout(2 * PATIENCE).expect("job ran");
        assert_eq!(participants, 2, "no helper joined the detached job");
    }

    #[test]
    fn width_one_pool_runs_two_detached_jobs_at_once() {
        let pool = Pool::new(1);
        let (to_b, from_a) = std::sync::mpsc::channel();
        let (to_a, from_b) = std::sync::mpsc::channel();
        let (done, results) = std::sync::mpsc::channel();
        // each job waits for the other's greeting: both complete only if
        // they run concurrently
        for (tx, rx) in [(to_b, from_b), (to_a, from_a)] {
            let done = done.clone();
            pool.spawn(Box::new(move || {
                tx.send(()).unwrap();
                done.send(rx.recv_timeout(PATIENCE).is_ok()).unwrap();
            }));
        }
        for _ in 0..2 {
            let met = results.recv_timeout(2 * PATIENCE).expect("job ran");
            assert!(met, "the two detached jobs never ran at the same time");
        }
    }

    #[test]
    fn panicking_detached_job_leaves_the_pool_serving() {
        let pool = Pool::new(1);
        // more panics than workers: an uncaught one would kill its worker
        for _ in 0..3 {
            pool.spawn(Box::new(|| panic!("injected detached failure")));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(Box::new(move || tx.send(()).unwrap()));
        rx.recv_timeout(PATIENCE).expect("a later job still ran");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(3);
        let cursor = AtomicUsize::new(0);
        pool.execute(3, &|| {
            while cursor.fetch_add(1, Ordering::Relaxed) < 1000 {}
        });
        drop(pool); // must not hang or panic
    }
}

//! The workspace's sole sanctioned wall clock.
//!
//! Clippy's `disallowed_methods`/`disallowed_types` (see `clippy.toml`)
//! reject every `Instant::now()` / `SystemTime` read in the workspace:
//! timing that leaks into an estimate or a branch is a determinism hazard,
//! so all of it funnels through here, where each read carries the one
//! sanctioned `#[expect]` and the API makes the read-only contract
//! structural — a [`Stopwatch`] yields `Duration`s that land in telemetry
//! fields and trace events, and nothing else.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A started monotonic timer. The only way the workspace reads the clock:
/// start it, ask for the elapsed time, feed the `Duration` to telemetry.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned wall clock: the Duration feeds telemetry only"
    )]
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`] (or the last
    /// [`Stopwatch::restart`]).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Reset the timer to now (idle-deadline tracking: restart on every
    /// successful read, expire when `elapsed` crosses the timeout).
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned wall clock: the Duration feeds telemetry only"
    )]
    pub fn restart(&mut self) {
        self.started = Instant::now();
    }
}

/// The tracer's time base: a process-wide epoch fixed on first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process-wide trace epoch. Used only to
/// stamp trace events — the values are scheduling-dependent, which is why
/// the deterministic span-tree comparison excludes them.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned wall clock: trace timestamps, excluded from span-tree comparison"
)]
pub fn now_nanos() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Milliseconds since the Unix epoch, for naming artefacts that must be
/// orderable across process restarts (flight-recorder dump files). Like
/// every read in this module the value feeds telemetry only — it never
/// reaches an estimate or a branch on the request path.
#[expect(
    clippy::disallowed_types,
    reason = "the sanctioned wall clock: names flight-recorder dumps only"
)]
pub fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_forward_time() {
        let mut sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        sw.restart();
        assert!(sw.elapsed() <= b + Duration::from_secs(1));
    }

    #[test]
    fn trace_epoch_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}

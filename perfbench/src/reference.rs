//! Host-speed reference. The machines the benchmark runs on change speed by
//! up to 2.2× for minutes at a time (other tenants on the same cores), and
//! thread CPU time follows wall time through such a phase, so no statistic
//! over the program's own timings removes it. The benchmark therefore also
//! times a fixed piece of its own work — standard-library code only, none
//! of the program's — between the timed ops (engine) or windows (server),
//! and reports each timing scaled to the speed at which that reference work
//! takes `NOMINAL_MS`: a time in reference milliseconds. A change to the
//! program moves its timings and not the reference, so the scaled times
//! keep its effect and lose most of the host's.

use crate::gen::Rng;
use crate::stats::{median, ms};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// What the reference work takes, by definition, at reference speed: what
/// it takes on a 2-vCPU Xeon VM in a quiet phase, so that reference ms
/// read about as wall ms there.
const NOMINAL_MS: f64 = 0.9;

/// The reference work, on a fixed input: sorting (branchy, cache-resident)
/// and SipHash hashing of small vectors (the std `HashMap` hash that keys
/// the #TA DP's tables). Over a 4-minute trace on the VM, in which a fixed
/// set of engine ops took between 1× and 2.2× their fastest time, these two
/// slowed down with the ops almost one for one (log-log slope 1.0–1.15),
/// where an ordered-map and allocation mix slowed down less (slope
/// 1.2–1.4) and a memory-latency chase far less.
fn work() -> u64 {
    let mut rng = Rng::fork(0x5EED, 0x4EF);
    let base: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
    let key: Vec<usize> = (0..16).collect();
    let mut acc = 0u64;
    for round in 0..2 {
        let mut sorted = base.clone();
        sorted.sort_unstable();
        acc ^= sorted[sorted.len() / 2];
        for i in 0..6_000usize {
            let mut h = DefaultHasher::new();
            (i + round, &key).hash(&mut h);
            acc ^= h.finish();
        }
    }
    acc
}

/// Run the reference work once; its wall time in ms.
pub fn time() -> f64 {
    let started = Instant::now();
    std::hint::black_box(work());
    ms(started.elapsed())
}

/// The factor the times measured among reference timings `refs` are
/// multiplied by: `NOMINAL_MS` over their median.
pub fn scale(refs: &[f64]) -> f64 {
    NOMINAL_MS / median(refs)
}

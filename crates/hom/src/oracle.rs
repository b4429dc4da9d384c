//! The `Hom` oracle interface used by the FPTRAS pipelines.

use crate::backtracking::{first_homomorphism, BacktrackingDecider};
use crate::count::{decompose, tree_dp};
use crate::decomposition_dp::DecompositionDecider;
use crate::instance::HomInstance;
use cqc_data::Structure;
use std::sync::atomic::{AtomicU64, Ordering};

/// Statistics collected by a [`HomDecider`] across a run (oracle call counts
/// are reported by the experiment `report` binary of `cqc-bench`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomStats {
    /// Number of `Hom` decisions answered.
    pub calls: u64,
    /// How many of them returned `true`.
    pub positive: u64,
}

/// A decision oracle for the homomorphism problem, the interface required by
/// Lemma 22 ("a randomised algorithm that is equipped with oracle access to
/// `Hom`").
pub trait HomDecider {
    /// Decide whether there is a homomorphism `A → B`.
    fn decide(&self, a: &Structure, b: &Structure) -> bool;

    /// Statistics accumulated so far (optional; default: all zeros).
    fn stats(&self) -> HomStats {
        HomStats::default()
    }
}

/// Patterns whose tree decomposition has at most this width go to the
/// decomposition DP; wider ones to backtracking.
const WIDTH_THRESHOLD: isize = 4;

/// A `Hom` oracle that chooses between the bounded-treewidth DP and
/// backtracking search: the DP when the pattern decomposes with width at
/// most 4, backtracking otherwise.
///
/// This is the practical stand-in for the two oracles used by the paper:
/// Theorem 31 (Dalmau–Kolaitis–Vardi, bounded treewidth) for the
/// bounded-arity FPTRAS of Theorem 5, and Theorem 36 (Marx, bounded adaptive
/// width) for the unbounded-arity FPTRAS of Theorem 13 — see
/// `docs/ARCHITECTURE.md` (Substitutions) for the substitution argument.
#[derive(Debug, Default)]
pub struct HybridDecider {
    // Atomics (not `Cell`s) so a decider shared read-only across the
    // parallel runtime's worker threads stays `Sync`; the counts are pure
    // telemetry, so `Relaxed` ordering suffices.
    calls: AtomicU64,
    positive: AtomicU64,
}

impl HybridDecider {
    /// A decider with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HomDecider for HybridDecider {
    fn decide(&self, a: &Structure, b: &Structure) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let inst = HomInstance::new(a, b);
        let td = decompose(&inst);
        let result = if td.width() <= WIDTH_THRESHOLD {
            tree_dp::<()>(&inst, &td).is_some()
        } else {
            first_homomorphism(&inst).is_some()
        };
        if result {
            self.positive.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn stats(&self) -> HomStats {
        HomStats {
            calls: self.calls.load(Ordering::Relaxed),
            positive: self.positive.load(Ordering::Relaxed),
        }
    }
}

impl HomDecider for BacktrackingDecider {
    fn decide(&self, a: &Structure, b: &Structure) -> bool {
        BacktrackingDecider::decide(self, a, b)
    }
}

impl HomDecider for DecompositionDecider {
    fn decide(&self, a: &Structure, b: &Structure) -> bool {
        DecompositionDecider::decide(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;

    fn cycle_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n {
            b.fact("E", &[i as u32, ((i + 1) % n) as u32]).unwrap();
        }
        b.build()
    }

    #[test]
    fn all_engines_agree() {
        let engines: Vec<Box<dyn HomDecider>> = vec![
            Box::new(HybridDecider::new()),
            Box::new(DecompositionDecider::new()),
            Box::new(BacktrackingDecider::new()),
        ];
        for (pk, tk) in [(3usize, 6usize), (4, 4), (5, 4), (6, 3), (4, 8), (9, 3)] {
            let a = cycle_graph(pk);
            let b = cycle_graph(tk);
            let answers: Vec<bool> = engines.iter().map(|e| e.decide(&a, &b)).collect();
            assert!(
                answers.iter().all(|&x| x == answers[0]),
                "engines disagree on C{pk} → C{tk}: {answers:?}"
            );
            // directed cycle homomorphism C_p → C_t exists iff t divides p
            assert_eq!(answers[0], pk % tk == 0, "C{pk} → C{tk}");
        }
    }

    #[test]
    fn stats_are_tracked() {
        let e = HybridDecider::new();
        assert_eq!(e.stats(), HomStats::default());
        let a = cycle_graph(4);
        let b = cycle_graph(4);
        assert!(e.decide(&a, &b));
        assert!(!e.decide(&cycle_graph(5), &cycle_graph(4)));
        let s = e.stats();
        assert_eq!(s.calls, 2);
        assert_eq!(s.positive, 1);
    }
}

//! The `Hom` oracle interface used by the FPTRAS pipelines.

use crate::backtracking::BacktrackingDecider;
use crate::decomposition_dp::DecompositionDecider;
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

    /// Reset the statistics counters.
    fn reset_stats(&self) {}
}

/// The engine selection strategy of [`HybridDecider`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Always use the tree-decomposition dynamic program (Theorem 31).
    Decomposition,
    /// Always use backtracking search.
    Backtracking,
    /// Use the decomposition DP when the pattern decomposition has width at
    /// most the configured threshold, backtracking otherwise.
    Auto,
}

/// A `Hom` oracle that chooses between the bounded-treewidth DP and
/// backtracking search.
///
/// This is the practical stand-in for the two oracles used by the paper:
/// Theorem 31 (Dalmau–Kolaitis–Vardi, bounded treewidth) for the
/// bounded-arity FPTRAS of Theorem 5, and Theorem 36 (Marx, bounded adaptive
/// width) for the unbounded-arity FPTRAS of Theorem 13 — see
/// `docs/ARCHITECTURE.md` (Substitutions) for the substitution argument.
#[derive(Debug)]
pub struct HybridDecider {
    /// The engine selection strategy.
    pub choice: EngineChoice,
    /// Width threshold for [`EngineChoice::Auto`].
    pub width_threshold: usize,
    decomposition: DecompositionDecider,
    backtracking: BacktrackingDecider,
    // Atomics (not `Cell`s) so a decider shared read-only across the
    // parallel runtime's worker threads stays `Sync`; the counts are pure
    // telemetry, so `Relaxed` ordering suffices.
    calls: AtomicU64,
    positive: AtomicU64,
}

impl Default for HybridDecider {
    fn default() -> Self {
        HybridDecider {
            choice: EngineChoice::Auto,
            width_threshold: 4,
            decomposition: DecompositionDecider::new(),
            backtracking: BacktrackingDecider::new(),
            calls: AtomicU64::new(0),
            positive: AtomicU64::new(0),
        }
    }
}

impl HybridDecider {
    /// A decider with the default (auto) strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A decider that always uses the tree-decomposition DP.
    pub fn decomposition_only() -> Self {
        HybridDecider {
            choice: EngineChoice::Decomposition,
            ..Self::default()
        }
    }

    /// A decider that always uses backtracking search.
    pub fn backtracking_only() -> Self {
        HybridDecider {
            choice: EngineChoice::Backtracking,
            ..Self::default()
        }
    }
}

impl HomDecider for HybridDecider {
    fn decide(&self, a: &Structure, b: &Structure) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let result = match self.choice {
            EngineChoice::Decomposition => self.decomposition.decide(a, b),
            EngineChoice::Backtracking => self.backtracking.decide(a, b),
            EngineChoice::Auto => {
                let td = self.decomposition.decompose(a, b);
                if td.width() <= self.width_threshold as isize {
                    self.decomposition.decide_with_decomposition(a, b, &td)
                } else {
                    self.backtracking.decide(a, b)
                }
            }
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

    fn reset_stats(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.positive.store(0, Ordering::Relaxed);
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
        let engines: Vec<HybridDecider> = vec![
            HybridDecider::new(),
            HybridDecider::decomposition_only(),
            HybridDecider::backtracking_only(),
        ];
        for (pk, tk) in [(3usize, 6usize), (4, 4), (5, 4), (6, 3), (4, 8)] {
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
        e.reset_stats();
        assert_eq!(e.stats().calls, 0);
    }

    #[test]
    fn trait_objects_work() {
        let engines: Vec<Box<dyn HomDecider>> = vec![
            Box::new(HybridDecider::new()),
            Box::new(BacktrackingDecider::new()),
            Box::new(DecompositionDecider::new()),
        ];
        // a directed C9 maps onto a directed C3 (wrap three times)
        let a = cycle_graph(9);
        let b = cycle_graph(3);
        for e in &engines {
            assert!(e.decide(&a, &b));
        }
    }
}

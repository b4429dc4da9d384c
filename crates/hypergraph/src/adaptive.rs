//! Adaptive width (Definition 33): bounds and estimates.
//!
//! The adaptive width of a hypergraph is
//! `aw(H) = sup_μ  μ-width(H)`, the supremum over fractional independent
//! sets `μ` of the `μ`-width (the `f`-width with `f(X) = μ(X)`,
//! Definition 32). It is a max-min quantity and no polynomial-time exact
//! algorithm is known; the paper only uses it as a *classification*
//! parameter (Theorem 13, Observation 15, Lemma 12, Observation 34), never
//! inside an algorithm. Accordingly this module provides
//!
//! * a certified **lower bound** — any concrete fractional independent set
//!   `μ` yields the lower bound `μ-width(H) ≤ aw(H)`; we use the uniform
//!   `μ ≡ 1/arity` of Observation 34, the maximum fractional independent
//!   set, and an alternating-maximisation heuristic that adapts `μ` to the
//!   current best decomposition;
//! * a certified **upper bound** — `aw(H) ≤ fhw(H)` because LP duality gives
//!   `μ(B) ≤ fcn(H[B])` for every bag `B` and every fractional independent
//!   set (Lemma 12 direction used in the paper);
//! * Observation 34: `tw(H) ≤ a · aw(H) − 1` for arity-`a` hypergraphs, used
//!   as a consistency check in tests and experiments.

use crate::fractional::{
    maximum_fractional_independent_set, uniform_fractional_independent_set,
    FractionalIndependentSet,
};
use crate::fwidth::{minimise_f_width, minimise_width, WidthMeasure};
use crate::hypergraph::Hypergraph;
use crate::lp::{ConstraintOp, Direction, LinearProgram};
use cqc_runtime::Runtime;
use std::collections::BTreeSet;

/// Lower and upper bounds on the adaptive width of a hypergraph.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveWidthBounds {
    /// A certified lower bound (the `μ`-width of a concrete fractional
    /// independent set).
    pub lower: f64,
    /// A certified upper bound (`fhw(H)`, possibly itself an upper bound when
    /// the decomposition search is heuristic).
    pub upper: f64,
    /// The fractional independent set witnessing the lower bound.
    pub witness: FractionalIndependentSet,
}

/// The `μ`-width of `H` for a fixed fractional independent set `μ`:
/// `min_{(T,B)} max_t μ(B_t)` (Definition 32 with `f = μ`).
///
/// Exhaustive over elimination orders for ≤ 8 vertices, heuristic beyond.
pub fn mu_width(h: &Hypergraph, mu: &FractionalIndependentSet) -> f64 {
    let (w, _) = minimise_f_width(
        h,
        |_, bag: &BTreeSet<usize>| bag.iter().map(|&v| mu.weights[v]).sum::<f64>(),
        8,
        32,
        &Runtime::serial(),
    );
    w
}

/// Given a fixed tree decomposition (represented by its bags), find the
/// fractional independent set maximising the minimum possible `max_t μ(B_t)`
/// — i.e. the best response of the adversary to this decomposition. Solved
/// as an LP: maximise `z` subject to `μ(B_t) ≥ z`... note the adversary wants
/// to *maximise the maximum* bag weight, which decomposes: the best response
/// is simply to maximise `μ(B_t*)` for the single best bag. We therefore
/// maximise, over bags, the maximum feasible `μ(B_t)`.
fn best_response_mu(h: &Hypergraph, bags: &[BTreeSet<usize>]) -> (f64, FractionalIndependentSet) {
    let n = h.num_vertices();
    let mut best_val = 0.0;
    let mut best = uniform_fractional_independent_set(h);
    for bag in bags {
        if bag.is_empty() {
            continue;
        }
        let mut lp = LinearProgram::new(n, Direction::Maximize);
        let mut obj = vec![0.0; n];
        for &v in bag {
            obj[v] = 1.0;
        }
        lp.set_objective(&obj);
        for e in h.edges() {
            let mut row = vec![0.0; n];
            for &v in e {
                row[v] = 1.0;
            }
            lp.add_constraint(&row, ConstraintOp::Le, 1.0)
                .expect("dims");
        }
        for v in 0..n {
            let mut row = vec![0.0; n];
            row[v] = 1.0;
            lp.add_constraint(&row, ConstraintOp::Le, 1.0)
                .expect("dims");
        }
        if let Ok(sol) = lp.solve() {
            if sol.objective > best_val {
                best_val = sol.objective;
                best = FractionalIndependentSet {
                    value: sol.values.iter().sum(),
                    weights: sol.values,
                };
            }
        }
    }
    (best_val, best)
}

/// Compute lower and upper bounds on `aw(H)`.
///
/// The lower bound is the best `μ`-width over: the uniform independent set
/// (Observation 34), the maximum fractional independent set, and `rounds`
/// iterations of alternating maximisation (adversary best-responds to the
/// current optimal decomposition, then the decomposition re-optimises).
pub fn adaptive_width_bounds(h: &Hypergraph, rounds: usize) -> AdaptiveWidthBounds {
    // Upper bound: fhw(H) (possibly an over-estimate when heuristic, still a
    // valid upper bound on aw because μ(B) ≤ fcn(H[B]) pointwise).
    let (fhw, _) = minimise_width(
        h,
        WidthMeasure::FractionalHypertreewidth,
        &Runtime::serial(),
    );
    let upper = fhw;

    // Candidate μ's.
    let mut candidates = vec![
        uniform_fractional_independent_set(h),
        maximum_fractional_independent_set(h),
    ];

    let mut best_lower = 0.0f64;
    let mut best_witness = candidates[0].clone();
    let mut current_mu = candidates.remove(0);
    for round in 0..=rounds {
        // Evaluate all pending candidates.
        for mu in std::mem::take(&mut candidates) {
            let w = mu_width(h, &mu);
            if w > best_lower {
                best_lower = w;
                best_witness = mu.clone();
            }
        }
        let w = mu_width(h, &current_mu);
        if w > best_lower {
            best_lower = w;
            best_witness = current_mu.clone();
        }
        if round == rounds {
            break;
        }
        // Adversary best-response to the decomposition optimal for current_mu.
        let (_, td) = minimise_f_width(
            h,
            |_, bag: &BTreeSet<usize>| bag.iter().map(|&v| current_mu.weights[v]).sum::<f64>(),
            8,
            32,
            &Runtime::serial(),
        );
        let (_, response) = best_response_mu(h, td.bags());
        current_mu = response;
    }

    // Numerical guard: a lower bound should never exceed the upper bound by
    // more than LP tolerance; clamp for downstream consumers.
    let lower = best_lower.min(upper + 1e-6);
    AdaptiveWidthBounds {
        lower,
        upper,
        witness: best_witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treewidth::treewidth_exact;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    fn path(n: usize) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for i in 0..n - 1 {
            h.add_edge(&[i, i + 1]);
        }
        h
    }

    fn clique(n: usize) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                h.add_edge(&[i, j]);
            }
        }
        h
    }

    #[test]
    fn bounds_are_ordered() {
        for h in [
            path(5),
            clique(4),
            Hypergraph::from_edges(4, &[&[0, 1, 2, 3]]),
            Hypergraph::from_edges(5, &[&[0, 1, 2], &[2, 3, 4], &[0, 4]]),
        ] {
            let b = adaptive_width_bounds(&h, 2);
            assert!(
                b.lower <= b.upper + 1e-6,
                "lower {} > upper {}",
                b.lower,
                b.upper
            );
            assert!(b.lower >= 0.0);
        }
    }

    #[test]
    fn single_hyperedge_has_adaptive_width_one() {
        let h = Hypergraph::from_edges(4, &[&[0, 1, 2, 3]]);
        let b = adaptive_width_bounds(&h, 2);
        // fhw = 1 so aw ≤ 1; and any single vertex gives μ-width ≥ 1 when μ(v) = 1?
        // μ(v)=1 on one vertex is a valid fractional independent set (edge sum ≤ 1),
        // and every decomposition has that vertex in some bag → μ-width ≥ 1.
        assert!(approx(b.upper, 1.0));
        assert!(b.lower >= 1.0 - 1e-6);
    }

    #[test]
    fn path_has_adaptive_width_one() {
        let h = path(5);
        let b = adaptive_width_bounds(&h, 2);
        assert!(b.upper <= 1.0 + 1e-6);
        assert!(b.lower >= 1.0 - 1e-6);
    }

    #[test]
    fn observation_34_tw_le_arity_times_aw() {
        // tw(H) ≤ a · aw(H) − 1; since we only have bounds, check
        // tw(H) ≤ a · upper(aw) − 1 + tolerance.
        for h in [
            path(6),
            clique(4),
            Hypergraph::from_edges(5, &[&[0, 1, 2], &[2, 3, 4]]),
        ] {
            let (tw, _) = treewidth_exact(&h);
            let a = h.arity();
            let b = adaptive_width_bounds(&h, 1);
            assert!(
                (tw as f64) <= a as f64 * b.upper - 1.0 + 1e-6,
                "tw {} vs a*aw_upper-1 = {}",
                tw,
                a as f64 * b.upper - 1.0
            );
        }
    }

    #[test]
    fn clique_adaptive_width_grows() {
        // For K_n (arity 2), aw = n/2 asymptotically (uniform μ = 1/2 forces
        // a bag of all vertices). Check K4: lower bound ≥ 2 from μ ≡ 1/2.
        let h = clique(4);
        let b = adaptive_width_bounds(&h, 2);
        assert!(b.lower >= 2.0 - 1e-6, "lower bound {}", b.lower);
    }

    #[test]
    fn mu_width_of_zero_mu_is_zero() {
        let h = path(4);
        let mu = FractionalIndependentSet {
            weights: vec![0.0; 4],
            value: 0.0,
        };
        assert!(approx(mu_width(&h, &mu), 0.0));
    }

    #[test]
    fn witness_is_feasible() {
        let h = clique(4);
        let b = adaptive_width_bounds(&h, 2);
        for e in h.edges() {
            let s: f64 = e.iter().map(|&v| b.witness.weights[v]).sum();
            assert!(s <= 1.0 + 1e-6);
        }
    }
}

//! Generic `f`-width (Definition 32) and width-minimising decomposition
//! search.
//!
//! For a function `f : 2^{V(H)} → ℝ≥0`, the `f`-width of a tree decomposition
//! `(T, B)` is `max_t f(B_t)` and the `f`-width of `H` is the minimum over
//! all tree decompositions. Treewidth (`f(X) = |X| − 1`), fractional
//! hypertreewidth (`f(X) = fcn(H[X])`, Definition 41) and the `μ`-widths used
//! by adaptive width (Definition 33) are all instances.

use crate::decomposition::TreeDecomposition;
use crate::fractional::fractional_cover_number;
use crate::hypergraph::Hypergraph;
use crate::hypertree::integral_cover_number;
use crate::treewidth::{elimination_bags, min_degree_order, min_fill_order, EliminationOrder};
use cqc_runtime::Runtime;
use std::collections::BTreeSet;

/// Named width measures used for reporting and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthMeasure {
    /// Hypertreewidth: `f(X)` = minimum number of hyperedges covering `X`
    /// (Definition 37; we use the bag-cover relaxation, see module docs of
    /// [`crate::hypertree`]).
    Hypertreewidth,
    /// Fractional hypertreewidth: `f(X) = fcn(H[X])` (Definition 41).
    FractionalHypertreewidth,
}

/// Evaluate the bag cost of `bag` under a width measure.
pub fn bag_cost(h: &Hypergraph, bag: &BTreeSet<usize>, measure: WidthMeasure) -> f64 {
    match measure {
        WidthMeasure::Hypertreewidth => integral_cover_number(h, bag)
            .map(|c| c as f64)
            .unwrap_or(f64::INFINITY),
        WidthMeasure::FractionalHypertreewidth => {
            fractional_cover_number(h, bag).unwrap_or(f64::INFINITY)
        }
    }
}

/// The `f`-width of a given tree decomposition: `max_t f(B_t)`
/// (Definition 32), for an arbitrary bag-cost function.
pub fn f_width_of_decomposition<F>(td: &TreeDecomposition, mut f: F) -> f64
where
    F: FnMut(&BTreeSet<usize>) -> f64,
{
    td.bags()
        .iter()
        .map(&mut f)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The `f`-width of a decomposition under a named measure.
pub fn width_of_decomposition(
    h: &Hypergraph,
    td: &TreeDecomposition,
    measure: WidthMeasure,
) -> f64 {
    f_width_of_decomposition(td, |bag| bag_cost(h, bag, measure))
}

/// The exhaustive regime of [`minimise_f_width`] enumerates every elimination
/// order of hypergraphs with at most this many vertices: `n!` orders, so at
/// most 8! = 40320 of ≤ 8 entries.
const EXHAUSTIVE_VERTICES: usize = 8;

/// Random elimination orders the heuristic regime of [`minimise_f_width`]
/// tries besides min-degree and min-fill.
const RESTARTS: usize = 32;

/// Search for a tree decomposition of small `f`-width, with the candidate
/// evaluations fanned out over `runtime` (serial callers pass
/// [`Runtime::serial`]).
///
/// Strategy:
/// * if `H` has at most 8 vertices, score **all** elimination orders;
/// * otherwise score the min-degree and min-fill heuristic orders plus 32
///   random orders.
///
/// An order's score is the maximum bag cost over its per-vertex elimination
/// bags, which are exactly the bags of the decomposition it induces. Every
/// elimination order yields a valid tree decomposition, so the result is
/// always a correct decomposition of `H`; optimality is guaranteed only in
/// the exhaustive regime (and even there only over decompositions induced by
/// elimination orders, which is exact for treewidth and an upper bound for
/// other measures — see `docs/ARCHITECTURE.md`, Substitutions).
///
/// Deterministic: the search keeps the **first** candidate (in enumeration
/// order) attaining the minimum width, so the winning decomposition is
/// bit-identical for any thread count.
pub fn minimise_f_width<F>(h: &Hypergraph, f: F, runtime: &Runtime) -> (f64, TreeDecomposition)
where
    F: Fn(&Hypergraph, &BTreeSet<usize>) -> f64 + Sync,
{
    if h.num_vertices() == 0 {
        return (0.0, TreeDecomposition::single_bag(BTreeSet::new()));
    }
    let mut orders = candidate_orders(h);
    let primal = h.primal_graph();
    let widths = runtime.par_map(&orders, |_, order| {
        elimination_bags(primal.clone(), order)
            .iter()
            .map(|b| f(h, b))
            .fold(f64::NEG_INFINITY, f64::max)
    });
    let best = (1..widths.len()).fold(0, |best, i| if widths[i] < widths[best] { i } else { best });
    let td = EliminationOrder(orders.swap_remove(best)).decomposition(h);
    (widths[best], td.contract_equal_bags())
}

/// The candidate elimination orders the width search scores, in a fixed
/// deterministic enumeration order: every permutation (Heap's algorithm) in
/// the exhaustive regime, otherwise the min-degree and min-fill heuristic
/// orders plus [`RESTARTS`] xorshift-derived random orders.
fn candidate_orders(h: &Hypergraph) -> Vec<Vec<usize>> {
    let n = h.num_vertices();
    if n <= EXHAUSTIVE_VERTICES {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut orders = vec![perm.clone()];
        let mut c = vec![0usize; n];
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                orders.push(perm.clone());
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        orders
    } else {
        let mut orders = vec![min_degree_order(h).0, min_fill_order(h).0];
        // Deterministic pseudo-random restarts (xorshift; independent of
        // the engine seed so planning stays reproducible per query).
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..RESTARTS {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let j = (state % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            orders.push(perm);
        }
        orders
    }
}

/// Compute (an upper bound on) the width of `H` under a named measure,
/// together with a witnessing decomposition, searching over `runtime`.
/// Exhaustive for hypergraphs with at most 8 vertices.
pub fn minimise_width(
    h: &Hypergraph,
    measure: WidthMeasure,
    runtime: &Runtime,
) -> (f64, TreeDecomposition) {
    minimise_f_width(h, |h, bag| bag_cost(h, bag, measure), runtime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treewidth::treewidth_exact;

    /// The treewidth bag cost `f(X) = |X| − 1`.
    fn tw_cost(_: &Hypergraph, bag: &BTreeSet<usize>) -> f64 {
        bag.len() as f64 - 1.0
    }

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    fn cycle(n: usize) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for i in 0..n {
            h.add_edge(&[i, (i + 1) % n]);
        }
        h
    }

    #[test]
    fn treewidth_via_f_width() {
        let h = cycle(5);
        let (w, td) = minimise_f_width(&h, tw_cost, &Runtime::serial());
        assert_eq!(w, treewidth_exact(&h).0 as f64);
        assert!(td.validate(&h).is_ok());
    }

    #[test]
    fn fhw_of_single_hyperedge_is_one() {
        let h = Hypergraph::from_edges(4, &[&[0, 1, 2, 3]]);
        let (w, td) = minimise_width(
            &h,
            WidthMeasure::FractionalHypertreewidth,
            &Runtime::serial(),
        );
        assert!(approx(w, 1.0));
        assert!(td.validate(&h).is_ok());
    }

    #[test]
    fn fhw_of_triangle_is_one_with_triangle_bag() {
        // the triangle has fhw 1.5 when the bag is all three vertices? No:
        // a single bag {0,1,2} has fcn 1.5; but a decomposition with bags of
        // two vertices violates edge coverage... the best is the single bag,
        // so fhw(triangle) = 1.5.
        let h = cycle(3);
        let (w, _) = minimise_width(
            &h,
            WidthMeasure::FractionalHypertreewidth,
            &Runtime::serial(),
        );
        assert!(approx(w, 1.5), "got {w}");
    }

    #[test]
    fn fhw_of_path_is_one() {
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let (w, td) = minimise_width(
            &h,
            WidthMeasure::FractionalHypertreewidth,
            &Runtime::serial(),
        );
        assert!(approx(w, 1.0), "got {w}");
        assert!(td.validate(&h).is_ok());
    }

    #[test]
    fn hypertreewidth_of_path_is_one() {
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let (w, _) = minimise_width(&h, WidthMeasure::Hypertreewidth, &Runtime::serial());
        assert!(approx(w, 1.0));
    }

    #[test]
    fn width_hierarchy_on_small_hypergraphs() {
        // tw + 1 ≥ hw ≥ fhw for any fixed hypergraph (computed on the same
        // search space, all are upper bounds but the ordering still holds
        // pointwise per decomposition, hence after minimisation too).
        for h in [
            cycle(4),
            cycle(5),
            Hypergraph::from_edges(5, &[&[0, 1, 2], &[2, 3, 4], &[0, 4]]),
            Hypergraph::from_edges(6, &[&[0, 1, 2], &[3, 4, 5], &[0, 3], &[2, 5]]),
        ] {
            let tw = treewidth_exact(&h).0 as f64;
            let (hw, _) = minimise_width(&h, WidthMeasure::Hypertreewidth, &Runtime::serial());
            let (fhw, _) = minimise_width(
                &h,
                WidthMeasure::FractionalHypertreewidth,
                &Runtime::serial(),
            );
            assert!(fhw <= hw + 1e-6, "fhw {fhw} > hw {hw}");
            assert!(hw <= tw + 1.0 + 1e-6, "hw {hw} > tw+1 {}", tw + 1.0);
        }
    }

    #[test]
    fn heuristic_regime_still_valid() {
        // 12 vertices forces the heuristic path
        let h = cycle(12);
        let (w, td) = minimise_f_width(&h, tw_cost, &Runtime::serial());
        assert!(td.validate(&h).is_ok());
        assert!(w >= treewidth_exact(&h).0 as f64);
        assert!(w <= 3.0 + 1e-9);
    }

    #[test]
    fn width_of_given_decomposition() {
        let h = cycle(3);
        let td = TreeDecomposition::single_bag(h.vertices().collect());
        assert!(approx(
            f_width_of_decomposition(&td, |b| tw_cost(&h, b)),
            2.0
        ));
        assert!(approx(
            width_of_decomposition(&h, &td, WidthMeasure::FractionalHypertreewidth),
            1.5
        ));
        assert!(approx(
            width_of_decomposition(&h, &td, WidthMeasure::Hypertreewidth),
            2.0
        ));
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(0);
        let (w, _) = minimise_f_width(&h, tw_cost, &Runtime::serial());
        assert_eq!(w, 0.0);
    }
}

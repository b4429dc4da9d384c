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
use crate::treewidth::{min_degree_order, min_fill_order, EliminationOrder};
use cqc_runtime::Runtime;
use std::collections::BTreeSet;

/// Named width measures used for reporting and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthMeasure {
    /// Treewidth: `f(X) = |X| − 1` (Definition 4).
    Treewidth,
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
        WidthMeasure::Treewidth => bag.len() as f64 - 1.0,
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

/// Search for a tree decomposition of small `f`-width, with the candidate
/// evaluations fanned out over `runtime` (serial callers pass
/// [`Runtime::serial`]).
///
/// Strategy:
/// * if `H` has at most `exact_limit` vertices, enumerate **all** elimination
///   orders (there are `n!`, so `exact_limit` should stay ≤ 8: the search
///   then holds at most 8! = 40320 orders of ≤ 8 entries) and keep the best
///   decomposition;
/// * otherwise fall back to the min-degree and min-fill heuristic orders plus
///   `restarts` random orders, keeping the best.
///
/// Every elimination order yields a valid tree decomposition, so the result
/// is always a correct decomposition of `H`; optimality is guaranteed only in
/// the exhaustive regime (and even there only over decompositions induced by
/// elimination orders, which is exact for treewidth and an upper bound for
/// other measures — see `docs/ARCHITECTURE.md`, Substitutions).
///
/// Deterministic: the reduction keeps the **first** candidate (in
/// enumeration order) attaining the minimum width, so the winning
/// decomposition is bit-identical for any thread count.
pub fn minimise_f_width<F>(
    h: &Hypergraph,
    f: F,
    exact_limit: usize,
    restarts: usize,
    runtime: &Runtime,
) -> (f64, TreeDecomposition)
where
    F: Fn(&Hypergraph, &BTreeSet<usize>) -> f64 + Sync,
{
    if h.num_vertices() == 0 {
        return (0.0, TreeDecomposition::single_bag(BTreeSet::new()));
    }
    let mut orders = Vec::new();
    for_each_candidate_order(h, exact_limit, restarts, |o| orders.push(o.clone()));
    // Workers fold their slice down to a single local best so at most
    // O(threads) evaluated decompositions are retained at once. Slice-local
    // first-minima merged in slice order with a strict `<` are the global
    // first minimum.
    let slice = runtime.chunk_size(orders.len());
    let slices: Vec<&[EliminationOrder]> = orders.chunks(slice).collect();
    runtime
        .par_reduce(
            &slices,
            |_, chunk| {
                let mut best: Option<(f64, TreeDecomposition)> = None;
                for order in chunk.iter() {
                    let (w, td) = evaluate_order(h, order, &f);
                    if best.as_ref().map(|(bw, _)| w < *bw).unwrap_or(true) {
                        best = Some((w, td));
                    }
                }
                best
            },
            None::<(f64, TreeDecomposition)>,
            |acc, cand| match (acc, cand) {
                (Some((bw, btd)), Some((w, td))) => {
                    if w < bw {
                        Some((w, td))
                    } else {
                        Some((bw, btd))
                    }
                }
                (acc, None) => acc,
                (None, cand) => cand,
            },
        )
        .expect("at least one decomposition considered")
}

/// Build and score the decomposition induced by one elimination order.
fn evaluate_order<F>(h: &Hypergraph, order: &EliminationOrder, f: &F) -> (f64, TreeDecomposition)
where
    F: Fn(&Hypergraph, &BTreeSet<usize>) -> f64,
{
    let mut td = order.decomposition(h);
    td.ensure_all_vertices(h);
    let td = td.contract_equal_bags();
    let w = td
        .bags()
        .iter()
        .map(|b| f(h, b))
        .fold(f64::NEG_INFINITY, f64::max);
    (w, td)
}

/// Visit the candidate elimination orders the width search considers, in a
/// fixed deterministic enumeration order: every permutation (Heap's
/// algorithm) in the exhaustive regime, otherwise the min-degree and
/// min-fill heuristic orders plus `restarts` xorshift-derived random orders.
fn for_each_candidate_order(
    h: &Hypergraph,
    exact_limit: usize,
    restarts: usize,
    mut visit: impl FnMut(&EliminationOrder),
) {
    let n = h.num_vertices();
    if n <= exact_limit {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut c = vec![0usize; n];
        let mut scratch = EliminationOrder(perm.clone());
        visit(&scratch);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                scratch.0.copy_from_slice(&perm);
                visit(&scratch);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    } else {
        visit(&min_degree_order(h));
        visit(&min_fill_order(h));
        // Deterministic pseudo-random restarts (xorshift; independent of
        // the engine seed so planning stays reproducible per query).
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..restarts {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let j = (state % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            visit(&EliminationOrder(perm));
        }
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
    minimise_f_width(h, |h, bag| bag_cost(h, bag, measure), 8, 32, runtime)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (w, td) = minimise_width(&h, WidthMeasure::Treewidth, &Runtime::serial());
        assert!(approx(w, 2.0));
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
            let (tw, _) = minimise_width(&h, WidthMeasure::Treewidth, &Runtime::serial());
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
        let (w, td) = minimise_width(&h, WidthMeasure::Treewidth, &Runtime::serial());
        assert!(td.validate(&h).is_ok());
        assert!(w >= 2.0 - 1e-9);
        assert!(w <= 3.0 + 1e-9);
    }

    #[test]
    fn width_of_given_decomposition() {
        let h = cycle(3);
        let td = TreeDecomposition::single_bag(h.vertices().collect());
        assert!(approx(
            width_of_decomposition(&h, &td, WidthMeasure::Treewidth),
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
        let (w, _) = minimise_width(&h, WidthMeasure::Treewidth, &Runtime::serial());
        assert_eq!(w, 0.0);
    }
}

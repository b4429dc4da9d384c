//! Property-based tests for the hypergraph width machinery: validity of tree
//! decompositions, consistency between the exact and heuristic treewidth
//! computations, monotonicity of fractional edge covers (Observation 40), the
//! width-measure hierarchy of Lemma 12 and the bounded-arity collapse of
//! Observation 34.

use cqc_hypergraph::adaptive::adaptive_width_bounds;
use cqc_hypergraph::fractional::{
    fractional_cover_number, fractional_edge_cover, maximum_fractional_independent_set,
};
use cqc_hypergraph::fwidth::{minimise_width, WidthMeasure};
use cqc_hypergraph::hypergraph::Hypergraph;
use cqc_hypergraph::treewidth::{treewidth_exact, treewidth_upper_bound};
use cqc_runtime::Runtime;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random small hypergraph: up to 7 vertices, hyperedges of size 1–3.
fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=7).prop_flat_map(|n| {
        let edge = proptest::collection::btree_set(0..n, 1..=3usize.min(n));
        proptest::collection::vec(edge, 1..8).prop_map(move |edges| {
            let mut h = Hypergraph::new(n);
            for e in edges {
                let e: Vec<usize> = e.into_iter().collect();
                h.add_edge(&e);
            }
            h
        })
    })
}

/// A random small *graph* (arity ≤ 2), where exact treewidth is cheap.
fn small_graph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=7).prop_flat_map(|n| {
        proptest::collection::btree_set((0..n, 0..n), 0..12).prop_map(move |pairs| {
            let mut h = Hypergraph::new(n);
            for (u, v) in pairs {
                if u != v {
                    h.add_edge(&[u, v]);
                }
            }
            h
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both the exact and the heuristic treewidth computations return valid
    /// tree decompositions whose width matches the reported number, and the
    /// heuristic never undercuts the exact optimum.
    #[test]
    fn treewidth_decompositions_are_valid(h in small_hypergraph()) {
        let (tw, td_exact) = treewidth_exact(&h);
        let (ub, td_heur) = treewidth_upper_bound(&h);
        prop_assert!(td_exact.validate(&h).is_ok(), "{:?}", td_exact.validate(&h));
        prop_assert!(td_heur.validate(&h).is_ok(), "{:?}", td_heur.validate(&h));
        prop_assert_eq!(td_exact.width(), tw as isize);
        prop_assert!(td_heur.width() <= ub as isize);
        prop_assert!(tw <= ub, "exact {tw} > heuristic {ub}");
        // Width is at least (largest hyperedge) − 1: every hyperedge must fit
        // into a single bag.
        let max_edge = h.edges().iter().map(|e| e.len()).max().unwrap_or(0);
        prop_assert!(tw + 1 >= max_edge);
    }

    /// Converting to a *nice* tree decomposition (Definition 42) preserves
    /// validity, does not increase the width, and satisfies the niceness
    /// conditions.
    #[test]
    fn nice_decomposition_preserves_width(h in small_hypergraph()) {
        let (tw, td) = treewidth_exact(&h);
        let mut td = td;
        td.ensure_all_vertices(&h);
        let nice = td.into_nice();
        prop_assert!(nice.validate_nice().is_ok(), "{:?}", nice.validate_nice());
        prop_assert!(nice.td.validate(&h).is_ok(), "{:?}", nice.td.validate(&h));
        prop_assert!(nice.td.width() <= tw as isize);
    }

    /// Observation 40: `fcn(H[B]) ≤ fcn(H[B'])` whenever `B ⊆ B'`.
    #[test]
    fn fractional_cover_monotone(h in small_hypergraph(), mask in proptest::collection::vec(any::<bool>(), 7)) {
        let covered: BTreeSet<usize> = h
            .edges()
            .iter()
            .flat_map(|e| e.iter().copied())
            .collect();
        let b_prime: BTreeSet<usize> = covered.clone();
        let b: BTreeSet<usize> = covered
            .iter()
            .copied()
            .filter(|&v| mask.get(v).copied().unwrap_or(false))
            .collect();
        let fb = fractional_cover_number(&h, &b);
        let fbp = fractional_cover_number(&h, &b_prime);
        // Both sets consist of covered vertices, so the LPs are feasible.
        prop_assert!(fb.is_some() && fbp.is_some());
        prop_assert!(fb.unwrap() <= fbp.unwrap() + 1e-6);
    }

    /// A fractional edge cover really covers: every vertex of X has total
    /// incident weight ≥ 1, and the reported value is the sum of the weights.
    #[test]
    fn fractional_cover_is_feasible(h in small_hypergraph()) {
        let x: BTreeSet<usize> = h
            .edges()
            .iter()
            .flat_map(|e| e.iter().copied())
            .collect();
        let cover = fractional_edge_cover(&h, &x).unwrap();
        let total: f64 = cover.weights.iter().sum();
        prop_assert!((total - cover.value).abs() < 1e-6);
        for &v in &x {
            let mut incident = 0.0;
            for (i, e) in h.edges().iter().enumerate() {
                if e.contains(&v) {
                    incident += cover.weights[i];
                }
            }
            prop_assert!(incident >= 1.0 - 1e-6, "vertex {v} covered only {incident}");
        }
    }

    /// LP duality (weak): any fractional independent set has total weight at
    /// most the fractional edge cover number over the covered vertices.
    #[test]
    fn weak_lp_duality(h in small_hypergraph()) {
        let covered: BTreeSet<usize> = h
            .edges()
            .iter()
            .flat_map(|e| e.iter().copied())
            .collect();
        prop_assume!(!covered.is_empty());
        let mu = maximum_fractional_independent_set(&h);
        let mu_total: f64 = covered.iter().map(|&v| mu.weights[v]).sum();
        let fcn = fractional_cover_number(&h, &covered).unwrap();
        prop_assert!(mu_total <= fcn + 1e-5, "μ(V) = {mu_total} > fcn = {fcn}");
    }

    /// The width-measure hierarchy on any one decomposition-producing search:
    /// fhw(H) ≤ hw(H) ≤ tw(H) + 1 (Lemma 12 restricted to the directions that
    /// hold pointwise per bag).
    #[test]
    fn width_hierarchy(h in small_hypergraph()) {
        prop_assume!(h.num_edges() > 0);
        // Isolated vertices make every (fractional) cover infeasible, so
        // hypertreewidth and fhw are +∞ for them; the hierarchy statement is
        // about hypergraphs without isolated vertices.
        let covered: BTreeSet<usize> = h.edges().iter().flat_map(|e| e.iter().copied()).collect();
        prop_assume!(covered.len() == h.num_vertices());
        let (tw, _) = treewidth_exact(&h);
        let (hw, td_hw) = minimise_width(&h, WidthMeasure::Hypertreewidth, &Runtime::serial());
        let (fhw, td_fhw) = minimise_width(&h, WidthMeasure::FractionalHypertreewidth, &Runtime::serial());
        prop_assert!(td_hw.validate(&h).is_ok());
        prop_assert!(td_fhw.validate(&h).is_ok());
        prop_assert!(fhw <= hw + 1e-6, "fhw {fhw} > hw {hw}");
        prop_assert!(hw <= (tw + 1) as f64 + 1e-6, "hw {hw} > tw+1 {}", tw + 1);
        prop_assert!(fhw >= 1.0 - 1e-6);
    }

    /// Adaptive-width bounds bracket correctly (lower ≤ upper), the lower
    /// bound is witnessed by a genuine fractional independent set, and
    /// Observation 34 holds with the upper bound: tw ≤ a·aw − 1 ≤ a·upper − 1.
    #[test]
    fn adaptive_width_bounds_and_observation_34(h in small_hypergraph()) {
        prop_assume!(h.num_edges() > 0);
        // Only consider hypergraphs without isolated vertices so that every
        // width measure is finite.
        let covered: BTreeSet<usize> = h.edges().iter().flat_map(|e| e.iter().copied()).collect();
        prop_assume!(covered.len() == h.num_vertices());
        let bounds = adaptive_width_bounds(&h, 3);
        prop_assert!(bounds.lower <= bounds.upper + 1e-6,
            "lower {} > upper {}", bounds.lower, bounds.upper);
        // witness feasibility: Σ_{v ∈ e} μ(v) ≤ 1 for every hyperedge
        for e in h.edges() {
            let s: f64 = e.iter().map(|&v| bounds.witness.weights[v]).sum();
            prop_assert!(s <= 1.0 + 1e-6);
        }
        let (tw, _) = treewidth_exact(&h);
        let a = h.arity() as f64;
        prop_assert!(
            (tw as f64) <= a * bounds.upper - 1.0 + 1e-6,
            "Observation 34 violated: tw {} > a·aw_upper − 1 = {}",
            tw,
            a * bounds.upper - 1.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On ordinary graphs, treewidth 0 ⇔ no edges, and treewidth 1 ⇔ a forest
    /// with at least one edge.
    #[test]
    fn graph_treewidth_characterisations(h in small_graph()) {
        let (tw, td) = treewidth_exact(&h);
        prop_assert!(td.validate(&h).is_ok());
        let m = h.num_edges();
        if m == 0 {
            prop_assert_eq!(tw, 0);
        } else {
            prop_assert!(tw >= 1);
            // A graph is a forest iff every connected component has
            // |edges| = |vertices| − 1; equivalently no cycle. Check against
            // treewidth ≤ 1.
            let forest = is_forest(&h);
            prop_assert_eq!(tw == 1, forest, "tw = {}, forest = {}", tw, forest);
        }
    }

    /// `induced` keeps exactly the non-empty intersections of hyperedges
    /// with X (Definition 39) — no edge of the induced hypergraph is empty
    /// and every one comes from an original edge.
    #[test]
    fn induced_subhypergraph_edges(h in small_hypergraph(), mask in proptest::collection::vec(any::<bool>(), 7)) {
        let x: BTreeSet<usize> = (0..h.num_vertices())
            .filter(|&v| mask.get(v).copied().unwrap_or(false))
            .collect();
        let (hx, vertex_map) = h.induced(&x);
        prop_assert_eq!(hx.num_vertices(), x.len());
        for e in hx.edges() {
            prop_assert!(!e.is_empty());
            // Map back to original vertex ids and check containment in some
            // original hyperedge intersected with X.
            let orig: BTreeSet<usize> = e.iter().map(|&i| vertex_map[i]).collect();
            prop_assert!(orig.iter().all(|v| x.contains(v)));
            prop_assert!(
                h.edges().iter().any(|oe| {
                    let inter: BTreeSet<usize> = oe.intersection(&x).copied().collect();
                    inter == orig
                }),
                "induced edge {:?} does not arise from any original edge",
                orig
            );
        }
    }
}

/// Cycle detection on the primal graph (union-find would be overkill here).
fn is_forest(h: &Hypergraph) -> bool {
    let n = h.num_vertices();
    let adj = h.primal_graph();
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // BFS counting vertices and edges of the component.
        let mut stack = vec![start];
        seen[start] = true;
        let mut vertices = 0usize;
        let mut degree_sum = 0usize;
        while let Some(v) = stack.pop() {
            vertices += 1;
            degree_sum += adj[v].len();
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        let edges = degree_sum / 2;
        if edges >= vertices {
            return false;
        }
    }
    true
}

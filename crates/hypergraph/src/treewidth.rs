//! Treewidth computation: exact (small hypergraphs) and heuristic.
//!
//! The treewidth `tw(H)` of a hypergraph is the minimum width over all tree
//! decompositions (Definition 4). For the *query* hypergraphs `H(ϕ)` arising
//! in the paper the number of vertices equals the number of query variables,
//! which is parameter-sized, so an exact exponential algorithm (dynamic
//! programming over vertex subsets, following Bodlaender–Fomin–Koster–
//! Kratsch–Thilikos) is perfectly adequate. Min-degree and min-fill
//! elimination heuristics are provided for larger hypergraphs (e.g. database
//! Gaifman graphs used in tests).

use crate::decomposition::TreeDecomposition;
use crate::hypergraph::Hypergraph;
use std::collections::BTreeSet;

/// An elimination order of the vertices of a hypergraph.
///
/// Every elimination order induces a tree decomposition (see
/// [`EliminationOrder::decomposition`]); conversely every tree decomposition
/// of width `w` is induced by some order of width `w`, so searching over
/// orders is complete for treewidth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationOrder(pub Vec<usize>);

impl EliminationOrder {
    /// The width of the order: the maximum, over eliminated vertices, of the
    /// number of not-yet-eliminated neighbours at elimination time (in the
    /// progressively filled-in primal graph).
    pub fn width(&self, h: &Hypergraph) -> usize {
        let n = h.num_vertices();
        let mut adj: Vec<BTreeSet<usize>> = h.primal_graph();
        let mut eliminated = vec![false; n];
        let mut width = 0usize;
        for &v in &self.0 {
            let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            width = width.max(neigh.len());
            // fill in a clique among the remaining neighbours
            for i in 0..neigh.len() {
                for j in (i + 1)..neigh.len() {
                    adj[neigh[i]].insert(neigh[j]);
                    adj[neigh[j]].insert(neigh[i]);
                }
            }
            eliminated[v] = true;
        }
        width
    }

    /// The tree decomposition induced by this elimination order.
    ///
    /// Each vertex `v` contributes a bag `{v} ∪ N⁺(v)` where `N⁺(v)` are the
    /// later-eliminated neighbours in the filled-in graph; the bag of `v` is
    /// attached to the bag of the earliest-eliminated vertex of `N⁺(v)`.
    pub fn decomposition(&self, h: &Hypergraph) -> TreeDecomposition {
        let n = h.num_vertices();
        assert_eq!(self.0.len(), n, "elimination order must cover all vertices");
        if n == 0 {
            return TreeDecomposition::single_bag(BTreeSet::new());
        }
        let mut adj: Vec<BTreeSet<usize>> = h.primal_graph();
        let mut position = vec![0usize; n];
        for (i, &v) in self.0.iter().enumerate() {
            position[v] = i;
        }
        // Compute bags in elimination order with fill-in.
        let mut eliminated = vec![false; n];
        let mut bags: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for &v in &self.0 {
            let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            let mut bag: BTreeSet<usize> = neigh.iter().copied().collect();
            bag.insert(v);
            bags[v] = bag;
            for i in 0..neigh.len() {
                for j in (i + 1)..neigh.len() {
                    adj[neigh[i]].insert(neigh[j]);
                    adj[neigh[j]].insert(neigh[i]);
                }
            }
            eliminated[v] = true;
        }
        // The root corresponds to the last eliminated vertex.
        let root_vertex = *self.0.last().unwrap();
        let mut td = TreeDecomposition::with_root(bags[root_vertex].clone());
        let mut node_of = vec![usize::MAX; n];
        node_of[root_vertex] = 0;
        // Attach bags from later-eliminated to earlier-eliminated.
        for &v in self.0.iter().rev().skip(1) {
            // parent vertex: the earliest-eliminated vertex among the bag
            // members eliminated after v (equivalently, minimum position > pos(v)).
            let parent_vertex = bags[v]
                .iter()
                .copied()
                .filter(|&u| u != v && position[u] > position[v])
                .min_by_key(|&u| position[u]);
            let parent_node = match parent_vertex {
                Some(u) => node_of[u],
                None => node_of[root_vertex],
            };
            let id = td.add_child(parent_node, bags[v].clone());
            node_of[v] = id;
        }
        td
    }
}

/// A min-degree elimination order (greedy heuristic).
pub fn min_degree_order(h: &Hypergraph) -> EliminationOrder {
    greedy_order(h, |adj, eliminated, v| {
        adj[v].iter().filter(|&&u| !eliminated[u]).count()
    })
}

/// A min-fill elimination order (greedy heuristic): eliminate the vertex
/// whose elimination introduces the fewest fill-in edges.
pub fn min_fill_order(h: &Hypergraph) -> EliminationOrder {
    greedy_order(h, |adj, eliminated, v| {
        let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        let mut fill = 0usize;
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                if !adj[neigh[i]].contains(&neigh[j]) {
                    fill += 1;
                }
            }
        }
        fill
    })
}

fn greedy_order<F>(h: &Hypergraph, score: F) -> EliminationOrder
where
    F: Fn(&[BTreeSet<usize>], &[bool], usize) -> usize,
{
    let n = h.num_vertices();
    let mut adj = h.primal_graph();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| score(&adj, &eliminated, v))
            .expect("vertices remain");
        let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                adj[neigh[i]].insert(neigh[j]);
                adj[neigh[j]].insert(neigh[i]);
            }
        }
        eliminated[v] = true;
        order.push(v);
    }
    EliminationOrder(order)
}

/// An upper bound on `tw(H)` together with a witnessing decomposition,
/// obtained from the better of the min-degree and min-fill heuristics.
pub fn treewidth_upper_bound(h: &Hypergraph) -> (usize, TreeDecomposition) {
    let candidates = [min_degree_order(h), min_fill_order(h)];
    let best = candidates
        .into_iter()
        .min_by_key(|o| o.width(h))
        .expect("two candidates");
    let w = best.width(h);
    let mut td = best.decomposition(h);
    td.ensure_all_vertices(h);
    (w, td)
}

/// Exact treewidth via dynamic programming over vertex subsets
/// (`O(2^n · n²)` time at worst, `O(2^n)` space; states wider than a
/// greedy min-degree order are not expanded). Suitable for `n ≤ ~20`.
///
/// Returns the treewidth and an optimal tree decomposition.
///
/// # Panics
/// Panics if `h` has more than 24 vertices (use
/// [`treewidth_upper_bound`] instead).
pub fn treewidth_exact(h: &Hypergraph) -> (usize, TreeDecomposition) {
    let n = h.num_vertices();
    assert!(n <= 24, "exact treewidth is limited to 24 vertices");
    if n == 0 {
        return (0, TreeDecomposition::single_bag(BTreeSet::new()));
    }
    let adj = h.primal_graph();
    let adj_mask: Vec<u32> = adj
        .iter()
        .map(|s| s.iter().fold(0u32, |m, &v| m | (1 << v)))
        .collect();

    // q(s, v): number of vertices outside s ∪ {v} adjacent to the connected
    // component of v in G[s ∪ {v}] — this is the degree of v at elimination
    // time if the set s was eliminated before v.
    let q = |s: u32, v: usize| -> u32 {
        // Grow v's component over s ∪ {v}, collecting outside-neighbours.
        let mut component: u32 = 1 << v;
        let mut frontier = component;
        let mut outside: u32 = 0;
        while frontier != 0 {
            let u = frontier.trailing_zeros() as usize;
            frontier &= frontier - 1;
            let nb = adj_mask[u];
            outside |= nb & !s;
            let reached = nb & s & !component;
            component |= reached;
            frontier |= reached;
        }
        (outside & !(1u32 << v)).count_ones()
    };

    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let size = 1usize << n;
    // An upper bound: the width of the greedy order that always eliminates
    // a vertex of minimum current degree.
    let mut bound = 0;
    let mut s = 0u32;
    while s != full {
        let (degree, v) = (0..n)
            .filter(|&v| s & (1 << v) == 0)
            .map(|v| (q(s, v), v))
            .min()
            .expect("a vertex is left");
        bound = bound.max(degree);
        s |= 1 << v;
    }
    // dp[s] = minimal width achievable when the vertices in s are eliminated first.
    let mut dp = vec![u32::MAX; size];
    let mut choice = vec![usize::MAX; size];
    dp[0] = 0;
    for s in 0..size {
        // A state above the bound can neither lie on an optimal elimination
        // nor be the first predecessor attaining a reachable state's
        // minimum, so skipping it changes no `dp` or `choice` entry the
        // reconstruction reads (a path or tree keeps O(n²) of the 2^n).
        if dp[s] > bound {
            continue;
        }
        let s32 = s as u32;
        let mut remaining = full & !s32;
        while remaining != 0 {
            let v = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let cost = dp[s].max(q(s32, v));
            let ns = s | (1usize << v);
            if cost < dp[ns] {
                dp[ns] = cost;
                choice[ns] = v;
            }
        }
    }
    let tw = dp[full as usize] as usize;

    // Reconstruct an optimal elimination order.
    let mut order = Vec::with_capacity(n);
    let mut s = full as usize;
    while s != 0 {
        let v = choice[s];
        order.push(v);
        s &= !(1usize << v);
    }
    order.reverse();
    let ord = EliminationOrder(order);
    debug_assert_eq!(ord.width(h), tw);
    let mut td = ord.decomposition(h);
    td.ensure_all_vertices(h);
    (tw, td)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for i in 0..n.saturating_sub(1) {
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

    fn cycle(n: usize) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for i in 0..n {
            h.add_edge(&[i, (i + 1) % n]);
        }
        h
    }

    fn grid(rows: usize, cols: usize) -> Hypergraph {
        let mut h = Hypergraph::new(rows * cols);
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    h.add_edge(&[id(r, c), id(r, c + 1)]);
                }
                if r + 1 < rows {
                    h.add_edge(&[id(r, c), id(r + 1, c)]);
                }
            }
        }
        h
    }

    #[test]
    fn exact_treewidth_of_paths_is_one() {
        for n in 2..7 {
            let (tw, td) = treewidth_exact(&path(n));
            assert_eq!(tw, 1, "path of {n} vertices");
            assert!(td.validate(&path(n)).is_ok());
            assert_eq!(td.width(), 1);
        }
    }

    #[test]
    fn exact_treewidth_of_cliques() {
        for n in 2..7 {
            let (tw, td) = treewidth_exact(&clique(n));
            assert_eq!(tw, n - 1);
            assert!(td.validate(&clique(n)).is_ok());
        }
    }

    #[test]
    fn exact_treewidth_of_cycles_is_two() {
        for n in 3..8 {
            let (tw, td) = treewidth_exact(&cycle(n));
            assert_eq!(tw, 2, "cycle of {n} vertices");
            assert!(td.validate(&cycle(n)).is_ok());
        }
    }

    #[test]
    fn exact_treewidth_of_grids() {
        // tw of a k x m grid (k ≤ m) is k
        let (tw, td) = treewidth_exact(&grid(2, 3));
        assert_eq!(tw, 2);
        assert!(td.validate(&grid(2, 3)).is_ok());
        let (tw, _) = treewidth_exact(&grid(3, 3));
        assert_eq!(tw, 3);
        let (tw, _) = treewidth_exact(&grid(3, 4));
        assert_eq!(tw, 3);
    }

    #[test]
    fn exact_treewidth_with_hyperedges() {
        // one big hyperedge forces a clique in the primal graph
        let h = Hypergraph::from_edges(5, &[&[0, 1, 2, 3], &[3, 4]]);
        let (tw, td) = treewidth_exact(&h);
        assert_eq!(tw, 3);
        assert!(td.validate(&h).is_ok());
    }

    #[test]
    fn exact_treewidth_of_edgeless_graph() {
        let h = Hypergraph::new(4);
        let (tw, td) = treewidth_exact(&h);
        assert_eq!(tw, 0);
        assert!(td.validate(&h).is_ok());
    }

    #[test]
    fn heuristics_give_valid_upper_bounds() {
        for h in [path(8), cycle(8), clique(5), grid(3, 4)] {
            let (w, td) = treewidth_upper_bound(&h);
            assert!(td.validate(&h).is_ok());
            assert_eq!(td.width(), w as isize);
            let (exact, _) = treewidth_exact(&h);
            assert!(w >= exact);
        }
    }

    #[test]
    fn heuristics_exact_on_trees_and_cliques() {
        let (w, _) = treewidth_upper_bound(&path(10));
        assert_eq!(w, 1);
        let (w, _) = treewidth_upper_bound(&clique(6));
        assert_eq!(w, 5);
    }

    #[test]
    fn elimination_order_width_matches_decomposition_width() {
        let h = grid(3, 3);
        for order in [min_degree_order(&h), min_fill_order(&h)] {
            let w = order.width(&h);
            let td = order.decomposition(&h);
            assert!(td.validate(&h).is_ok());
            assert_eq!(td.width(), w as isize);
        }
    }

    #[test]
    fn isolated_vertices_are_covered() {
        let mut h = Hypergraph::new(5);
        h.add_edge(&[0, 1]);
        // vertices 2, 3, 4 are isolated
        let (tw, td) = treewidth_exact(&h);
        assert_eq!(tw, 1);
        assert!(td.validate(&h).is_ok());
        let (w, td) = treewidth_upper_bound(&h);
        assert_eq!(w, 1);
        assert!(td.validate(&h).is_ok());
    }
}

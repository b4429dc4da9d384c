//! Treewidth computation: exact (small hypergraphs) and heuristic.
//!
//! The treewidth `tw(H)` of a hypergraph is the minimum width over all tree
//! decompositions (Definition 4). For the *query* hypergraphs `H(ϕ)` arising
//! in the paper the number of vertices equals the number of query variables,
//! which is parameter-sized, so an exact exponential algorithm (dynamic
//! programming over vertex subsets, following Bodlaender–Fomin–Koster–
//! Kratsch–Thilikos) is perfectly adequate. Min-degree and min-fill
//! elimination heuristics are provided for larger hypergraphs (e.g. database
//! Gaifman graphs used in tests); [`Treewidth::of`] picks between the two.
//!
//! Every decomposition here comes from one fill-in elimination pass over the
//! primal graph (`eliminate`), whether the order is given, chosen greedily
//! or rebuilt by the exact search.

use crate::decomposition::TreeDecomposition;
use crate::hypergraph::Hypergraph;
use std::collections::BTreeSet;

/// Hypergraphs with at most this many vertices get [`treewidth_exact`] from
/// [`Treewidth::of`]; larger ones [`treewidth_upper_bound`].
const EXACT_TREEWIDTH_VERTICES: usize = 13;

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
        width(&elimination_bags(h.primal_graph(), &self.0))
    }

    /// The tree decomposition induced by this elimination order.
    ///
    /// Each vertex `v` contributes a bag `{v} ∪ N⁺(v)` where `N⁺(v)` are the
    /// later-eliminated neighbours in the filled-in graph; the bag of `v` is
    /// attached to the bag of the earliest-eliminated vertex of `N⁺(v)`.
    pub fn decomposition(&self, h: &Hypergraph) -> TreeDecomposition {
        tree(&self.0, elimination_bags(h.primal_graph(), &self.0))
    }
}

/// The fill-in elimination pass: starting from the primal graph `adj`,
/// repeatedly eliminate the vertex `next` picks (given the filled-in
/// adjacency and which vertices are gone), joining its remaining neighbours
/// into a clique. Returns the order taken and, indexed by vertex, each bag
/// `{v} ∪ N⁺(v)`: `v` and its neighbours not yet eliminated when it goes.
fn eliminate(
    mut adj: Vec<BTreeSet<usize>>,
    mut next: impl FnMut(&[BTreeSet<usize>], &[bool]) -> usize,
) -> (Vec<usize>, Vec<BTreeSet<usize>>) {
    let n = adj.len();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut bags = vec![BTreeSet::new(); n];
    for _ in 0..n {
        let v = next(&adj, &eliminated);
        let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        for (i, &a) in neigh.iter().enumerate() {
            for &b in &neigh[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        let mut bag: BTreeSet<usize> = neigh.into_iter().collect();
        bag.insert(v);
        bags[v] = bag;
        eliminated[v] = true;
        order.push(v);
    }
    (order, bags)
}

/// The per-vertex bags of eliminating the primal graph `adj` in `order`.
pub(crate) fn elimination_bags(adj: Vec<BTreeSet<usize>>, order: &[usize]) -> Vec<BTreeSet<usize>> {
    assert_eq!(
        order.len(),
        adj.len(),
        "elimination order must cover all vertices"
    );
    let mut order = order.iter();
    eliminate(adj, |_, _| *order.next().expect("one vertex per step")).1
}

/// The width `max |bag| − 1` of the per-vertex bags of an elimination.
fn width(bags: &[BTreeSet<usize>]) -> usize {
    bags.iter().map(|b| b.len() - 1).max().unwrap_or(0)
}

/// The tree decomposition of an elimination, taking ownership of its bags:
/// the last-eliminated vertex's bag is the root, and every other vertex's
/// bag hangs off the bag of the earliest-eliminated vertex of its `N⁺(v)`
/// (off the root when `N⁺(v)` is empty).
fn tree(order: &[usize], mut bags: Vec<BTreeSet<usize>>) -> TreeDecomposition {
    let Some(&root_vertex) = order.last() else {
        return TreeDecomposition::single_bag(BTreeSet::new());
    };
    let mut position = vec![0usize; order.len()];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut td = TreeDecomposition::single_bag(std::mem::take(&mut bags[root_vertex]));
    let mut node_of = vec![usize::MAX; order.len()];
    node_of[root_vertex] = 0;
    for &v in order.iter().rev().skip(1) {
        let parent = bags[v]
            .iter()
            .copied()
            .filter(|&u| position[u] > position[v])
            .min_by_key(|&u| position[u])
            .unwrap_or(root_vertex);
        node_of[v] = td.add_child(node_of[parent], std::mem::take(&mut bags[v]));
    }
    td
}

/// A greedy elimination: always eliminate a remaining vertex of least
/// `score` (the first such vertex on ties).
fn greedy(
    h: &Hypergraph,
    score: fn(&[BTreeSet<usize>], &[bool], usize) -> usize,
) -> (Vec<usize>, Vec<BTreeSet<usize>>) {
    eliminate(h.primal_graph(), |adj, eliminated| {
        (0..adj.len())
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| score(adj, eliminated, v))
            .expect("vertices remain")
    })
}

/// The number of remaining neighbours of `v`.
fn degree(adj: &[BTreeSet<usize>], eliminated: &[bool], v: usize) -> usize {
    adj[v].iter().filter(|&&u| !eliminated[u]).count()
}

/// The number of fill-in edges eliminating `v` would add.
fn fill(adj: &[BTreeSet<usize>], eliminated: &[bool], v: usize) -> usize {
    let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
    let mut fill = 0;
    for (i, &a) in neigh.iter().enumerate() {
        fill += neigh[i + 1..]
            .iter()
            .filter(|&b| !adj[a].contains(b))
            .count();
    }
    fill
}

/// A min-degree elimination order (greedy heuristic).
pub fn min_degree_order(h: &Hypergraph) -> EliminationOrder {
    EliminationOrder(greedy(h, degree).0)
}

/// A min-fill elimination order (greedy heuristic): eliminate the vertex
/// whose elimination introduces the fewest fill-in edges.
pub fn min_fill_order(h: &Hypergraph) -> EliminationOrder {
    EliminationOrder(greedy(h, fill).0)
}

/// An upper bound on `tw(H)` together with a witnessing decomposition,
/// obtained from the better of the min-degree and min-fill heuristics
/// (min-degree on a tie).
pub fn treewidth_upper_bound(h: &Hypergraph) -> (usize, TreeDecomposition) {
    let (order, bags) = [greedy(h, degree), greedy(h, fill)]
        .into_iter()
        .min_by_key(|(_, bags)| width(bags))
        .expect("two candidates");
    (width(&bags), tree(&order, bags))
}

/// The treewidth of a hypergraph as every caller in the workspace computes
/// it: see [`Treewidth::of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Treewidth {
    /// The width of `decomposition`: `tw(H)` when `exact`, an upper bound
    /// otherwise.
    pub width: usize,
    /// Whether `width` is `tw(H)`.
    pub exact: bool,
    /// A tree decomposition of `H` of width `width`.
    pub decomposition: TreeDecomposition,
}

impl Treewidth {
    /// The treewidth of `h`: [`treewidth_exact`] for hypergraphs of at most
    /// 13 vertices, [`treewidth_upper_bound`] (reported as not exact) above.
    pub fn of(h: &Hypergraph) -> Treewidth {
        let exact = h.num_vertices() <= EXACT_TREEWIDTH_VERTICES;
        let (width, decomposition) = if exact {
            treewidth_exact(h)
        } else {
            treewidth_upper_bound(h)
        };
        Treewidth {
            width,
            exact,
            decomposition,
        }
    }
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

    let full: u32 = (1u32 << n) - 1;
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
    let bags = elimination_bags(adj, &order);
    debug_assert_eq!(width(&bags), tw);
    (tw, tree(&order, bags))
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
    fn treewidth_is_exact_up_to_thirteen_vertices() {
        let h = path(13);
        let (tw, td) = treewidth_exact(&h);
        assert_eq!(
            Treewidth::of(&h),
            Treewidth {
                width: tw,
                exact: true,
                decomposition: td,
            }
        );
        let h = path(14);
        let (ub, td) = treewidth_upper_bound(&h);
        assert_eq!(
            Treewidth::of(&h),
            Treewidth {
                width: ub,
                exact: false,
                decomposition: td,
            }
        );
        assert_eq!(ub, 1);
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

//! The `Hom` oracle used by the FPTRAS pipelines: one memoised search over a
//! tree decomposition of the pattern.
//!
//! The root of the decomposition is solved by the crate's descent over its
//! bag. Every other node `t` is solved for an assignment of its separator
//! `sep(t) = B_t ∩ B_parent`: the descent extends it over the new variables
//! `B_t \ sep(t)`, and each complete extension must extend into every child
//! `c` in turn. The descent watches every constraint that mentions a new
//! variable: one whose scope lies in `B_t` is checked in full, any other on
//! the positions already assigned (a necessary condition that prunes early).
//! Every constraint scope lies in some bag, so every constraint is checked
//! in full at the topmost node containing it. By the running-intersection
//! property a child's subtree depends only on the values of `sep(c)`, so its
//! result is memoised per separator assignment. Each (node, separator
//! assignment) is solved at most once, which bounds the work by
//! `poly(‖A‖, ‖B‖) · |U(B)|^{w+1}` for a decomposition of width `w` — the
//! bounded-treewidth algorithm of Dalmau, Kolaitis and Vardi (Theorem 31) —
//! while the search still stops at the first homomorphism it completes
//! (backtracking bounded by a tree decomposition, Jégou–Terrioux).

use crate::bag_solutions::{extend, steps, Projections, Step};
use crate::instance::HomInstance;
use cqc_data::{Structure, Val};
use cqc_hypergraph::{TreeDecomposition, Treewidth};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
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

/// The crate's `Hom` oracle: the memoised search over a tree decomposition
/// of the pattern described in the module docs, for every pattern (no width
/// rule, no options).
///
/// It is the practical stand-in for the two oracles used by the paper:
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
        let result = has_homomorphism(&HomInstance::new(a, b));
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

/// A tree decomposition of the pattern hypergraph of `inst`: of minimum
/// width for small patterns, heuristic for large ones ([`Treewidth::of`]).
fn decompose(inst: &HomInstance<'_>) -> TreeDecomposition {
    Treewidth::of(&inst.pattern_hypergraph()).decomposition
}

/// One node of the decomposition, ready for the descent.
struct Node {
    /// `sep(t)`, ascending.
    sep: Vec<usize>,
    /// `B_t \ sep(t)`, ascending: the variables the node's descent assigns.
    new: Vec<usize>,
    /// The descent's steps over `new`, with `sep` seeded; built once per
    /// decision, so their cached unbound lists serve every visit.
    steps: Vec<Vec<Step>>,
}

/// What the search of one decision reads.
struct Search<'a> {
    inst: &'a HomInstance<'a>,
    td: TreeDecomposition,
    nodes: Vec<Node>,
    domains: Vec<Vec<Val>>,
}

/// Is there a homomorphism `A → B`?
fn has_homomorphism(inst: &HomInstance<'_>) -> bool {
    let td = decompose(inst);
    let mut projections = Projections::new();
    let nodes = (0..td.num_nodes())
        .map(|t| {
            let bag = td.bag(t);
            let sep: Vec<usize> = td.parent(t).map_or(Vec::new(), |p| {
                bag.intersection(td.bag(p)).copied().collect()
            });
            let new: Vec<usize> = bag.iter().copied().filter(|v| !sep.contains(v)).collect();
            let watched: Vec<usize> = (0..inst.constraints.len())
                .filter(|&ci| inst.constraints[ci].vars.iter().any(|v| new.contains(v)))
                .collect();
            let steps = steps(inst, &new, &watched, &sep, &mut projections);
            Node { sep, new, steps }
        })
        .collect();
    let search = Search {
        inst,
        nodes,
        domains: inst.initial_domains(),
        td,
    };
    let mut memo = vec![BTreeMap::new(); search.nodes.len()];
    let mut assignment = vec![None; inst.num_vars()];
    solve(&search, &mut memo, search.td.root(), &mut assignment)
}

/// Does node `t`'s subtree extend `assignment`, which binds `sep(t)`?
/// `memo[c]` holds the answers already known for child `c`, by the values
/// of `sep(c)`. By the running-intersection property no other node reads
/// the variables the subtree assigns, so one assignment serves the whole
/// search.
fn solve(
    search: &Search<'_>,
    memo: &mut [BTreeMap<Vec<Val>, bool>],
    t: usize,
    assignment: &mut [Option<Val>],
) -> bool {
    let Search {
        inst,
        td,
        nodes,
        domains,
    } = search;
    let node = &nodes[t];
    let mut key = Vec::new();
    let found = extend(
        inst,
        &node.new,
        &node.steps,
        domains,
        assignment,
        &mut |asg| {
            for &c in td.children(t) {
                key.clear();
                key.extend(
                    nodes[c]
                        .sep
                        .iter()
                        .map(|&v| asg[v].expect("separator assigned")),
                );
                let extends = match memo[c].get(key.as_slice()) {
                    Some(&known) => known,
                    None => {
                        let extends = solve(search, memo, c, asg);
                        memo[c].insert(key.clone(), extends);
                        extends
                    }
                };
                if !extends {
                    return ControlFlow::Continue(());
                }
            }
            ControlFlow::Break(())
        },
    );
    found.is_break()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;

    fn graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for (u, v) in edges {
            b.fact("E", &[u as u32, v as u32]).unwrap();
        }
        b.build()
    }

    fn path(k: usize) -> Structure {
        graph(k + 1, (0..k).map(|i| (i, i + 1)))
    }

    fn cycle(n: usize) -> Structure {
        graph(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    fn clique(n: usize) -> Structure {
        graph(
            n,
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))),
        )
    }

    /// A `rows × cols` grid with edges both ways.
    fn grid(rows: usize, cols: usize) -> Structure {
        let id = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.extend([(id(r, c), id(r, c + 1)), (id(r, c + 1), id(r, c))]);
                }
                if r + 1 < rows {
                    edges.extend([(id(r, c), id(r + 1, c)), (id(r + 1, c), id(r, c))]);
                }
            }
        }
        graph(rows * cols, edges)
    }

    /// `layers` layers of `width` vertices, every vertex joined to every
    /// vertex of the next layer: its longest path has `layers − 1` edges.
    fn layered_dag(layers: usize, width: usize) -> Structure {
        let edges = (0..layers - 1).flat_map(|l| {
            (0..width)
                .flat_map(move |i| (0..width).map(move |j| (l * width + i, (l + 1) * width + j)))
        });
        graph(layers * width, edges)
    }

    fn structure(n: usize, relations: &[(&str, usize)], facts: &[(&str, &[u32])]) -> Structure {
        let mut b = StructureBuilder::new(n);
        for &(rel, arity) in relations {
            b.relation(rel, arity);
        }
        for (rel, t) in facts {
            b.fact(rel, t).unwrap();
        }
        b.build()
    }

    /// Brute force over all `|U(B)|^|U(A)|` assignments.
    fn brute_force(a: &Structure, b: &Structure) -> bool {
        let inst = HomInstance::new(a, b);
        let (n, m) = (a.universe_size(), b.universe_size() as u64);
        (0..m.pow(n as u32)).any(|mut code| {
            let h: Vec<Val> = (0..n)
                .map(|_| {
                    let v = Val((code % m) as u32);
                    code /= m;
                    v
                })
                .collect();
            inst.is_homomorphism(&h)
        })
    }

    #[test]
    fn decisions_match_known_answers_and_brute_force() {
        let marked = &[("E", 2), ("Start", 1), ("End", 1)];
        let marked_edge = structure(2, marked, &[("E", &[0, 1]), ("Start", &[0]), ("End", &[1])]);
        let marked_path = |shortcut: bool| {
            let mut facts: Vec<(&str, &[u32])> = vec![
                ("E", &[0, 1]),
                ("E", &[1, 2]),
                ("Start", &[0]),
                ("End", &[2]),
            ];
            if shortcut {
                facts.push(("E", &[0, 2]));
            }
            structure(3, marked, &facts)
        };
        let ternary = &[("R", 3)];
        let mut cases: Vec<(String, Structure, Structure, bool)> = Vec::new();
        // a directed cycle C_p maps to C_t iff t divides p
        for p in 3..=9 {
            for t in 3..=6 {
                cases.push((format!("C{p} → C{t}"), cycle(p), cycle(t), p % t == 0));
            }
        }
        cases.extend([
            ("P3 → C5".into(), path(3), cycle(5), true),
            ("P4 → C3".into(), path(4), cycle(3), true),
            ("P6 → grid 3×3".into(), path(6), grid(3, 3), true),
            ("C4 → grid 2×2".into(), cycle(4), grid(2, 2), true),
            ("C3 → grid 3×3".into(), cycle(3), grid(3, 3), false),
            ("∅ → C4".into(), graph(0, []), cycle(4), true),
            ("∅ → empty".into(), graph(0, []), graph(0, []), true),
            ("P1 → no edges".into(), path(1), graph(3, []), false),
            ("P1 → empty".into(), path(1), graph(0, []), false),
            (
                "marks, no edge".into(),
                marked_edge.clone(),
                marked_path(false),
                false,
            ),
            (
                "marks, shortcut".into(),
                marked_edge,
                marked_path(true),
                true,
            ),
            (
                "two edges → one edge".into(),
                graph(4, [(0, 1), (2, 3)]),
                graph(2, [(0, 1)]),
                true,
            ),
            (
                "C3 + P1 → P2".into(),
                graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
                path(2),
                false,
            ),
            ("K3 → K4".into(), clique(3), clique(4), true),
            ("K4 → K3".into(), clique(4), clique(3), false),
            ("K4 → K4".into(), clique(4), clique(4), true),
            ("loop → C3".into(), graph(1, [(0, 0)]), cycle(3), false),
            (
                "loop → loop".into(),
                graph(2, [(0, 0), (0, 1)]),
                graph(3, [(1, 1), (1, 2), (0, 2)]),
                true,
            ),
            (
                "R(x,y,z) → R".into(),
                structure(3, ternary, &[("R", &[0, 1, 2])]),
                structure(3, ternary, &[("R", &[0, 1, 2]), ("R", &[2, 2, 1])]),
                true,
            ),
            (
                "R(x,y,z), R(z,y,x) → R".into(),
                structure(3, ternary, &[("R", &[0, 1, 2]), ("R", &[2, 1, 0])]),
                structure(3, ternary, &[("R", &[0, 1, 2]), ("R", &[2, 2, 1])]),
                false,
            ),
            (
                "R(x,x,y) → R".into(),
                structure(2, ternary, &[("R", &[0, 0, 1])]),
                structure(3, ternary, &[("R", &[0, 1, 2]), ("R", &[1, 1, 0])]),
                true,
            ),
        ]);
        for (name, a, b, expected) in cases {
            let decider = HybridDecider::new();
            assert_eq!(decider.decide(&a, &b), expected, "{name}");
            if b.universe_size().pow(a.universe_size() as u32) <= 1 << 16 {
                assert_eq!(brute_force(&a, &b), expected, "{name}: brute force");
            }
        }
    }

    #[test]
    fn memo_keeps_layered_dags_fast() {
        // 16 layers of 4: the 15-edge path maps, the 16-edge path does not.
        // Without the memo, refuting the 16-edge path walks every partial
        // path, about 4^14 of them.
        let dag = layered_dag(16, 4);
        let decider = HybridDecider::new();
        let started = std::time::Instant::now();
        assert!(decider.decide(&path(15), &dag));
        assert!(!decider.decide(&path(16), &dag));
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn stats_are_tracked() {
        let e = HybridDecider::new();
        assert_eq!(e.stats(), HomStats::default());
        assert!(e.decide(&cycle(4), &cycle(4)));
        assert!(!e.decide(&cycle(5), &cycle(4)));
        let s = e.stats();
        assert_eq!(s.calls, 2);
        assert_eq!(s.positive, 1);
    }
}

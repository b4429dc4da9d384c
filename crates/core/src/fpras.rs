//! The FPRAS of Theorem 16: counting answers to conjunctive queries (without
//! disequalities or negations) whose hypergraph has bounded fractional
//! hypertreewidth.
//!
//! Pipeline (Section 5.2):
//! 1. a *nice* tree decomposition of `H(ϕ)` of small fractional
//!    hypertreewidth (Lemma 43; decomposition search in `cqc-hypergraph`);
//! 2. per-bag solution relations `Sol(ϕ, D, B_t)` (Definition 47) computed by
//!    the fractional-cover join of Lemma 48 (`cqc-hom::bag_partial_solutions`);
//! 3. the tree automaton of Lemma 52, whose accepted labellings of the fixed
//!    tree shape are in bijection with `Ans(ϕ, D)` (parsimonious reduction);
//! 4. #TA counting (Lemma 51): exact fixed-shape counting when the state
//!    space is small, the ACJR-style sampling counter otherwise.

use crate::api::ApproxConfig;
use crate::error::CoreError;
use crate::report::{CountMethod, EstimateReport, Telemetry};
use cqc_automata::{
    approx_count_fixed_shape_seeded, count_labelings_fixed_shape, TaApproxConfig, TransitionTarget,
    TreeAutomaton, TreeShape,
};
use cqc_data::{Structure, Val};
use cqc_hom::bag_partial_solutions;
use cqc_hypergraph::fwidth::WidthMeasure;
use cqc_hypergraph::NiceTreeDecomposition;
use cqc_obs::Stopwatch;
use cqc_query::{build_a_structure, build_b_structure, query_hypergraph, Query, QueryClass, Var};
use cqc_runtime::{split_seed, Runtime};
use std::collections::HashMap;

/// The query-side plan of the FPRAS of Theorem 16: everything that depends
/// only on `ϕ`, computed once by [`plan_fpras_with`] (or
/// [`crate::Engine::prepare`]) and reused across databases.
#[derive(Debug)]
pub struct FprasPlan {
    /// A validated nice tree decomposition of `H(ϕ)` of small fractional
    /// hypertreewidth (Lemma 43).
    pub nice: NiceTreeDecomposition,
    /// The fractional hypertreewidth achieved by `nice`.
    pub fhw: f64,
    /// The associated structure `A(ϕ)` (Definition 18).
    pub a_structure: Structure,
    /// The automaton tree shape mirroring the decomposition tree. Query-side
    /// (a pure function of `nice`), so it is built once here instead of per
    /// evaluation — `count_batch` reuses it across every database.
    pub shape: TreeShape,
    /// Per-node bags as sorted variable-index lists (query-side, ditto).
    pub bags: Vec<Vec<usize>>,
}

/// The automaton tree shape and per-node sorted bags of a nice tree
/// decomposition (query-side; [`FprasPlan`] caches the result so
/// evaluations never rebuild it).
fn shape_and_bags(nice: &NiceTreeDecomposition) -> (TreeShape, Vec<Vec<usize>>) {
    let td = &nice.td;
    let n_nodes = td.num_nodes();
    let children: Vec<Vec<usize>> = (0..n_nodes).map(|t| td.children(t).to_vec()).collect();
    let shape = TreeShape::new(children, td.root());
    let bags: Vec<Vec<usize>> = (0..n_nodes)
        .map(|t| td.bag(t).iter().copied().collect())
        .collect();
    (shape, bags)
}

/// Query-side planning for the FPRAS of Theorem 16: class check,
/// decomposition search, and construction of `A(ϕ)`.
///
/// The decomposition candidate search fans out over `runtime`. The chosen
/// decomposition — and hence every estimate computed from the plan — is
/// bit-identical for any thread count (the parallel search keeps the first
/// candidate attaining the minimum width, exactly like a serial one).
///
/// Returns a [`PlanError`](crate::PlanError) for queries with disequalities
/// or negations — by Observation 10 no FPRAS exists for those (unless
/// NP = RP); use the FPTRAS path instead.
pub fn plan_fpras_with(query: &Query, runtime: &Runtime) -> Result<FprasPlan, CoreError> {
    if query.class() != QueryClass::CQ {
        return Err(CoreError::unsupported_query_class(
            "the FPRAS of Theorem 16 applies to CQs without disequalities or negations \
             (Observation 10 rules out an FPRAS for DCQs/ECQs unless NP = RP)",
        ));
    }
    let h = query_hypergraph(query);
    // The decomposition search has no seed of its own; its span ID derives
    // from the enclosing `prepare` span (0 when prepared standalone).
    let _span =
        cqc_obs::trace::Span::enter("decompose", split_seed(cqc_obs::trace::current_span(), 1));
    let (fhw, td) =
        cqc_hypergraph::fwidth::minimise_width(&h, WidthMeasure::FractionalHypertreewidth, runtime);
    let nice = td.into_nice();
    nice.validate_nice().map_err(CoreError::plan_internal)?;
    let (shape, bags) = shape_and_bags(&nice);
    Ok(FprasPlan {
        nice,
        fhw,
        a_structure: build_a_structure(query),
        shape,
        bags,
    })
}

/// Data-side evaluation of a prepared FPRAS plan against one database:
/// per-bag solutions, the Lemma 52 automaton, and #TA counting.
///
/// `plan` must come from [`plan_fpras_with`] on the same `query`; the pairing
/// is not checked here (use [`crate::Engine::prepare`], which owns it).
pub fn fpras_count_with_plan(
    query: &Query,
    plan: &FprasPlan,
    db: &Structure,
    config: &ApproxConfig,
) -> Result<EstimateReport, CoreError> {
    let runtime = config.runtime();
    let start = Stopwatch::start();
    if !query.compatible_with(db.signature()) {
        return Err(CoreError::incompatible_database(
            "sig(ϕ) is not contained in sig(D)",
        ));
    }

    // Steps 2 + 3 (Section 5.2): per-bag solutions and the Lemma 52 automaton.
    // The tree shape and bags are query-side and come from the plan.
    let (automaton, states) =
        build_automaton_in(query, &plan.a_structure, db, &plan.nice, &plan.bags)?;
    let tree_nodes = plan.shape.num_nodes();

    // Step 4: count the accepted labellings of the fixed shape.
    // The exact subset-DP is used when the state space is small; otherwise the
    // sampling-based counter (Lemma 51 / ACJR) takes over, fanned out over
    // the runtime with per-(node, state) seed-split RNG streams — the
    // estimate is bit-identical for any thread count.
    let (estimate, exact) = if states <= config.fpras_exact_state_budget {
        (
            count_labelings_fixed_shape(&automaton, &plan.shape) as f64,
            true,
        )
    } else {
        let ta_config = TaApproxConfig::new(config.epsilon, config.delta);
        (
            approx_count_fixed_shape_seeded(
                &automaton,
                &plan.shape,
                &ta_config,
                split_seed(config.seed, 0x51CE),
                &runtime,
            ),
            false,
        )
    };

    let mut report = if exact {
        EstimateReport::exact_value(estimate, CountMethod::Fpras)
    } else {
        EstimateReport::approximate(estimate, CountMethod::Fpras, config.epsilon, config.delta)
    };
    report.telemetry = Telemetry {
        automaton_states: states,
        tree_nodes,
        fhw: Some(plan.fhw),
        wall: start.elapsed(),
        threads_used: runtime.threads(),
        ..Telemetry::default()
    };
    Ok(report)
}

/// The Lemma 52 construction: the tree automaton, its fixed shape, and
/// book-keeping sizes.
pub struct Lemma52Automaton {
    /// The constructed automaton.
    pub automaton: TreeAutomaton,
    /// The (fixed) tree shape mirroring the nice tree decomposition.
    pub shape: TreeShape,
    /// Number of states.
    pub states: usize,
}

/// Build the tree automaton of Lemma 52 for `(ϕ, D)` over the given nice tree
/// decomposition of `H(ϕ)`, with a pre-built `A(ϕ)` (query-side; cached in
/// [`FprasPlan`]).
pub fn build_lemma52_automaton_with(
    query: &Query,
    a_structure: &Structure,
    db: &Structure,
    nice: &NiceTreeDecomposition,
) -> Result<Lemma52Automaton, CoreError> {
    let (shape, bags) = shape_and_bags(nice);
    let (automaton, states) = build_automaton_in(query, a_structure, db, nice, &bags)?;
    Ok(Lemma52Automaton {
        automaton,
        shape,
        states,
    })
}

/// The data-side core of the Lemma 52 construction, with the query-side
/// parts (`A(ϕ)`, the bags) supplied by the caller — [`FprasPlan`] caches
/// them so repeated evaluations (and `count_batch`) do not rebuild them.
fn build_automaton_in(
    query: &Query,
    a_structure: &Structure,
    db: &Structure,
    nice: &NiceTreeDecomposition,
    bags: &[Vec<usize>],
) -> Result<(TreeAutomaton, usize), CoreError> {
    let b_structure = build_b_structure(query, db).map_err(CoreError::incompatible_database)?;
    let td = &nice.td;
    let n_nodes = td.num_nodes();

    // Per-node solution relations Sol(ϕ, D, B_t) (Definition 47, Lemma 48).
    let sols: Vec<Vec<Vec<Val>>> = bags
        .iter()
        .map(|bag| bag_partial_solutions(a_structure, &b_structure, bag))
        .collect();

    // If the root (empty bag) has no solution, there are no answers at all:
    // represent this with a trivially empty automaton.
    if sols[td.root()].is_empty() {
        return Ok((TreeAutomaton::new(1, 1, 0, Vec::new()), 1));
    }

    // States: (t, α); labels: (t, proj(α, free(ϕ))).
    let mut state_id: HashMap<(usize, Vec<Val>), usize> = HashMap::new();
    for (t, sol) in sols.iter().enumerate() {
        for alpha in sol {
            let id = state_id.len();
            state_id.entry((t, alpha.clone())).or_insert(id);
        }
    }
    let free: Vec<Var> = query.free_vars().to_vec();
    let project_free = |t: usize, alpha: &[Val]| -> Vec<Val> {
        bags[t]
            .iter()
            .zip(alpha)
            .filter(|(v, _)| free.contains(&Var(**v as u32)))
            .map(|(_, val)| *val)
            .collect()
    };
    let mut label_id: HashMap<(usize, Vec<Val>), usize> = HashMap::new();
    for (t, sol) in sols.iter().enumerate() {
        for alpha in sol {
            let lbl = (t, project_free(t, alpha));
            let id = label_id.len();
            label_id.entry(lbl).or_insert(id);
        }
    }

    let root_state = state_id[&(td.root(), vec![])];
    let mut transitions = Vec::new();

    // Helper: restriction of α (over bag of t) to the bag of another node.
    let restrict = |from: usize, alpha: &[Val], to_bag: &[usize]| -> Vec<Val> {
        to_bag
            .iter()
            .map(|v| {
                let pos = bags[from]
                    .iter()
                    .position(|x| x == v)
                    .expect("restriction target is a subset");
                alpha[pos]
            })
            .collect()
    };
    // Helper: are α (over bag of t) and α₁ (over bag of t1) consistent?
    let consistent = |t: usize, alpha: &[Val], t1: usize, alpha1: &[Val]| -> bool {
        bags[t]
            .iter()
            .zip(alpha)
            .all(|(v, val)| match bags[t1].iter().position(|x| x == v) {
                Some(p) => alpha1[p] == *val,
                None => true,
            })
    };

    for t in 0..n_nodes {
        let ch = td.children(t);
        for alpha in &sols[t] {
            let q = state_id[&(t, alpha.clone())];
            let lbl = label_id[&(t, project_free(t, alpha))];
            match ch.len() {
                0 => {
                    // leaf: empty bag, empty assignment
                    transitions.push((q, lbl, TransitionTarget::Leaf));
                }
                1 => {
                    let c = ch[0];
                    if bags[c].iter().all(|v| bags[t].contains(v)) && bags[t].len() > bags[c].len()
                    {
                        // B_c ⊆ B_t, drop one variable: deterministic restriction
                        let beta = restrict(t, alpha, &bags[c]);
                        if let Some(&qc) = state_id.get(&(c, beta)) {
                            transitions.push((q, lbl, TransitionTarget::Unary(qc)));
                        }
                    } else {
                        // B_t ⊆ B_c, child introduces one variable: one
                        // transition per consistent child solution
                        for alpha1 in &sols[c] {
                            if consistent(t, alpha, c, alpha1) {
                                let qc = state_id[&(c, alpha1.clone())];
                                transitions.push((q, lbl, TransitionTarget::Unary(qc)));
                            }
                        }
                    }
                }
                _ => {
                    // join node: both children share the bag and the solution
                    let c1 = ch[0];
                    let c2 = ch[1];
                    if let (Some(&q1), Some(&q2)) = (
                        state_id.get(&(c1, alpha.clone())),
                        state_id.get(&(c2, alpha.clone())),
                    ) {
                        transitions.push((q, lbl, TransitionTarget::Binary(q1, q2)));
                    }
                }
            }
        }
    }

    let states = state_id.len();
    let automaton = TreeAutomaton::new(states, label_id.len().max(1), root_state, transitions);
    Ok((automaton, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApproxConfig;
    use crate::engine::{Backend, EngineBuilder};
    use cqc_data::StructureBuilder;
    use cqc_query::{exact_count_answers, parse_query};

    fn config(eps: f64, delta: f64, seed: u64) -> ApproxConfig {
        ApproxConfig {
            epsilon: eps,
            delta,
            seed,
            ..ApproxConfig::default()
        }
    }

    /// Prepare `query` with the FPRAS forced, then count it on `db`.
    fn fpras(
        query: &Query,
        db: &Structure,
        config: &ApproxConfig,
    ) -> Result<EstimateReport, CoreError> {
        EngineBuilder::from_config(config.clone())
            .backend(Backend::Fpras)
            .build()?
            .prepare(query)?
            .count(db)
    }

    fn path_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n - 1 {
            b.fact("E", &[i as u32, (i + 1) as u32]).unwrap();
        }
        b.build()
    }

    fn random_graph(n: usize, seed: u64, m: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..m {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            b.fact("E", &[u, v]).unwrap();
        }
        b.build()
    }

    #[test]
    fn exact_regime_matches_ground_truth() {
        // path query with an existential middle variable
        let q = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        for db in [path_graph(6), random_graph(8, 3, 14)] {
            let truth = exact_count_answers(&q, &db) as f64;
            let r = fpras(&q, &db, &config(0.2, 0.05, 1)).unwrap();
            assert!(r.exact);
            assert_eq!(r.estimate, truth, "db answers {truth}");
            assert!(r.telemetry.fhw.unwrap() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn footnote_4_star_query_exact() {
        // ∃y E(y, x1) ∧ E(y, x2): decision easy, exact counting hard in
        // general — the FPRAS handles it.
        let q = parse_query("ans(x1, x2) :- E(y, x1), E(y, x2)").unwrap();
        for db in [path_graph(7), random_graph(9, 5, 18)] {
            let truth = exact_count_answers(&q, &db) as f64;
            let r = fpras(&q, &db, &config(0.2, 0.05, 2)).unwrap();
            assert!(r.exact);
            assert_eq!(r.estimate, truth);
        }
    }

    #[test]
    fn approximate_regime_is_close() {
        // force the sampling path by shrinking the exact-state budget
        let q = parse_query("ans(x1, x2) :- E(y, x1), E(y, x2)").unwrap();
        let db = random_graph(12, 7, 40);
        let truth = exact_count_answers(&q, &db) as f64;
        let mut cfg = config(0.2, 0.05, 3);
        cfg.fpras_exact_state_budget = 0;
        let r = fpras(&q, &db, &cfg).unwrap();
        assert!(!r.exact);
        assert!(
            (r.estimate - truth).abs() <= 0.3 * truth.max(1.0),
            "estimate {} vs truth {}",
            r.estimate,
            truth
        );
    }

    /// Forced-ACJR estimates pinned bit for bit on one fixed graph. The
    /// counter's component order follows the automaton's transition order,
    /// which in turn decides the RNG draws, so these bits catch any
    /// reordering of the transition index or of the Lemma 52 construction.
    #[test]
    fn forced_acjr_estimates_are_pinned_bit_for_bit() {
        let db = random_graph(12, 7, 40);
        let cases = [
            ("ans(x, y) :- E(x, z), E(z, y)", 0x4055_481b_4e81_b4e8_u64), // ≈ 85.127, truth 83
            (
                "ans(x, y) :- E(x, y), E(y, z), E(x, z)",
                0x4038_bbbb_bbbb_bbbb,
            ), // ≈ 24.733, truth 26
        ];
        for (text, bits) in cases {
            let q = parse_query(text).unwrap();
            let r = EngineBuilder::from_config(config(0.2, 0.05, 9))
                .backend(Backend::Fpras)
                .exact_state_budget(0)
                .build()
                .unwrap()
                .prepare(&q)
                .unwrap()
                .count(&db)
                .unwrap();
            assert!(!r.exact);
            let truth = exact_count_answers(&q, &db) as f64;
            assert!(
                (r.estimate - truth).abs() <= 0.2 * truth,
                "{text}: {}",
                r.estimate
            );
            assert_eq!(
                r.estimate.to_bits(),
                bits,
                "{text}: estimate {}",
                r.estimate
            );
        }
    }

    /// The 2-path with ACJR forced on a fixed 10-vertex graph, pinned bit for
    /// bit at three seeds. Every estimate depends on each RNG draw the
    /// counter makes, so a change in the number or order of its draws fails
    /// here.
    #[test]
    fn forced_acjr_two_path_draws_are_pinned() {
        let mut b = StructureBuilder::new(10);
        b.relation("E", 2);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
            (5, 7),
            (6, 8),
            (7, 8),
            (7, 9),
            (8, 9),
            (9, 0),
            (2, 7),
        ] {
            b.fact("E", &[u, v]).unwrap();
        }
        let db = b.build();
        let q = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let truth = exact_count_answers(&q, &db) as f64;
        let cases = [
            (1, 0x4034_7000_0000_0000_u64), // 20.4375
            (2, 0x4035_9000_0000_0000),     // 21.5625
            (3, 0x4035_d000_0000_0000),     // 21.8125
        ];
        for (seed, bits) in cases {
            let r = EngineBuilder::from_config(config(0.25, 0.05, seed))
                .backend(Backend::Fpras)
                .exact_state_budget(0)
                .build()
                .unwrap()
                .prepare(&q)
                .unwrap()
                .count(&db)
                .unwrap();
            assert!(!r.exact);
            assert!(
                (r.estimate - truth).abs() <= 0.25 * truth,
                "seed {seed}: {}",
                r.estimate
            );
            assert_eq!(
                r.estimate.to_bits(),
                bits,
                "seed {seed}: estimate {}",
                r.estimate
            );
        }
    }

    #[test]
    fn triangle_query_with_existential_apex() {
        let q = parse_query("ans(x, y) :- E(x, y), E(y, z), E(x, z)").unwrap();
        let mut b = StructureBuilder::new(5);
        b.relation("E", 2);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 4)] {
            b.fact("E", &[u, v]).unwrap();
        }
        let db = b.build();
        let truth = exact_count_answers(&q, &db) as f64;
        let r = fpras(&q, &db, &config(0.25, 0.1, 4)).unwrap();
        assert_eq!(r.estimate, truth);
    }

    #[test]
    fn no_answers_gives_zero() {
        let q = parse_query("ans(x) :- E(x, y), E(y, x)").unwrap();
        let db = path_graph(5); // no 2-cycles
        let r = fpras(&q, &db, &config(0.3, 0.1, 5)).unwrap();
        assert_eq!(r.estimate, 0.0);
    }

    #[test]
    fn dcq_is_rejected() {
        let q = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
        let db = path_graph(4);
        assert!(matches!(
            fpras(&q, &db, &config(0.3, 0.1, 6)),
            Err(CoreError::Plan(crate::PlanError::UnsupportedQueryClass(_)))
        ));
    }

    /// `ans(x0) :- E(x0, x1), …, E(x{n−2}, x{n−1})`: the path on `n` variables.
    fn path_query(n: usize) -> String {
        let atoms: Vec<String> = (1..n).map(|i| format!("E(x{}, x{i})", i - 1)).collect();
        format!("ans(x0) :- {}", atoms.join(", "))
    }

    /// The bits of the plan's fhw, the root of its nice decomposition and
    /// `parent:bag` for each node in node order.
    fn planner_output(query: &str, runtime: &Runtime) -> String {
        let plan = plan_fpras_with(&parse_query(query).unwrap(), runtime).unwrap();
        let td = &plan.nice.td;
        let mut out = format!("fhw={:#x} root={}", plan.fhw.to_bits(), td.root());
        for t in 0..td.num_nodes() {
            let parent = td.parent(t).map_or("-".to_string(), |p| p.to_string());
            let bag: Vec<String> = td.bag(t).iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(" {parent}:{}", bag.join(",")));
        }
        out
    }

    #[test]
    fn planner_output_is_pinned() {
        // The benchmark's CQs, the top of the exhaustive regime (≤ 8
        // variables) and the heuristic regime above it. Every FPRAS
        // estimate depends on these decompositions.
        let star: Vec<String> = (1..=10).map(|i| format!("E(x0, x{i})")).collect();
        let star = format!("ans(x0) :- {}", star.join(", "));
        let pins = [
            (
                "ans(x, y) :- E(x, z), E(z, y)",
                "fhw=0x3ff0000000000000 root=0 -: 0:2 1:2 1:2 2:1,2 4:2 5: 3:0,2 7:2 8:",
            ),
            (
                "ans(x) :- E(x, y), E(y, z), E(z, w)",
                "fhw=0x3ff0000000000000 root=0 -: 0:3 1:2,3 2:2 3:1,2 4:1 5:0,1 6:1 7:",
            ),
            (
                "ans(x, w) :- E(x, y), E(y, z), E(z, w)",
                "fhw=0x3ff0000000000000 root=0 -: 0:3 1:3 1:3 2:2,3 4:2 5:0,2 6:2 7: 3:1,3 9:3 10:",
            ),
            (
                "ans(x, y) :- E(x, y), E(y, z), E(z, x)",
                "fhw=0x3ff8000000000000 root=0 -: 0:2 1:1,2 2:0,1,2 3:1,2 4:2 5:",
            ),
            (
                &path_query(5),
                "fhw=0x3ff0000000000000 root=0 -: 0:4 1:3,4 2:3 3:2,3 4:2 5:1,2 6:1 7:0,1 8:1 9:",
            ),
            (
                &path_query(8),
                "fhw=0x3ff0000000000000 root=0 -: 0:7 1:6,7 2:6 3:5,6 4:5 5:4,5 6:4 7:3,4 8:3 \
                 9:2,3 10:2 11:1,2 12:1 13:0,1 14:1 15:",
            ),
            (
                &path_query(9),
                "fhw=0x3ff0000000000000 root=0 -: 0:8 1:7,8 2:7 3:6,7 4:6 5:5,6 6:5 7:4,5 8:4 \
                 9:3,4 10:3 11:2,3 12:2 13:1,2 14:1 15:0,1 16:1 17:",
            ),
            (
                &star,
                "fhw=0x3ff0000000000000 root=0 -: 0:10 1:0,10 2:0,10 2:0,10 3:0,10 3:0,10 \
                 4:0,10 4:0,10 5:0,10 5:0,10 6:0,10 6:0,10 7:0,10 7:0,10 8:0,10 8:0,10 9:0,10 \
                 9:0,10 10:0 19:0,9 20:9 21: 11:0 23:0,8 24:8 25: 12:0 27:0,7 28:7 29: 13:0 \
                 31:0,6 32:6 33: 14:0 35:0,5 36:5 37: 15:0 39:0,4 40:4 41: 16:0 43:0,3 44:3 \
                 45: 17:0 47:0,2 48:2 49: 18:0 51:0,1 52:1 53:",
            ),
        ];
        for (query, pinned) in pins {
            for runtime in [Runtime::serial(), Runtime::new(2)] {
                assert_eq!(planner_output(query, &runtime), pinned, "{query}");
            }
        }
    }

    #[test]
    fn boolean_cq() {
        let q = parse_query("ans() :- E(x, y), E(y, z)").unwrap();
        let r = fpras(&q, &path_graph(4), &config(0.3, 0.1, 7)).unwrap();
        assert_eq!(r.estimate, 1.0);
        let r = fpras(&q, &path_graph(2), &config(0.3, 0.1, 8)).unwrap();
        assert_eq!(r.estimate, 0.0);
    }
}

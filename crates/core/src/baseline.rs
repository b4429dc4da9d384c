//! Baselines: exact brute force and naive Monte Carlo.
//!
//! These implement the two "obvious" algorithms the paper's machinery is
//! measured against: the `‖D‖^{O(‖ϕ‖)}` brute force of Section 1.1 and the
//! naive sampling estimator whose failure on sparse answer sets motivates the
//! oracle-based framework (`report ablation-naive` in `cqc-bench`).

use cqc_data::{Structure, Val};
use cqc_query::{is_answer, Query};
use rand::Rng;

/// The naive Monte Carlo estimator: sample `samples` uniform assignments of
/// the free variables, test each for being an answer, and scale the hit rate
/// by `|U(D)|^ℓ`.
///
/// Unbiased, but its relative variance is `≈ |U(D)|^ℓ / |Ans(ϕ, D)|`, which is
/// astronomically large exactly when answers are sparse — the regime where
/// the FPTRAS still works. Used in the ablation experiment A2.
pub fn naive_monte_carlo<R: Rng>(
    query: &Query,
    db: &Structure,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let ell = query.num_free_vars();
    let n = db.universe_size();
    if ell == 0 {
        return if is_answer(query, db, &[]) { 1.0 } else { 0.0 };
    }
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut tau = vec![Val(0); ell];
    for _ in 0..samples {
        for t in tau.iter_mut() {
            *t = Val(rng.gen_range(0..n as u32));
        }
        if is_answer(query, db, &tau) {
            hits += 1;
        }
    }
    let space = (n as f64).powi(ell as i32);
    space * hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;
    use cqc_query::{count_answers_bruteforce, parse_query};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Structure {
        let mut b = StructureBuilder::new(6);
        b.relation("E", 2);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            b.fact("E", &[u, v]).unwrap();
        }
        b.build()
    }

    #[test]
    fn monte_carlo_converges_on_dense_answers() {
        // every edge endpoint pair: 6 answers out of 36 cells
        let q = parse_query("ans(x, y) :- E(x, y)").unwrap();
        let db = db();
        let truth = count_answers_bruteforce(&q, &db) as f64;
        let mut rng = StdRng::seed_from_u64(1);
        let est = naive_monte_carlo(&q, &db, 20_000, &mut rng);
        assert!((est - truth).abs() <= 0.15 * truth);
    }

    #[test]
    fn monte_carlo_misses_sparse_answers_with_few_samples() {
        // Hamiltonian-ish sparse query: very few answers in a large space —
        // with a handful of samples the naive estimator returns 0.
        let q = parse_query(
            "ans(x1, x2, x3, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), \
             x1 != x3, x2 != x4, x1 != x4",
        )
        .unwrap();
        let db = db();
        let truth = count_answers_bruteforce(&q, &db) as f64;
        assert!(truth > 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let est = naive_monte_carlo(&q, &db, 20, &mut rng);
        // 6 answers in 1296 cells: 20 samples almost surely miss them all
        assert_eq!(est, 0.0, "truth was {truth}");
    }

    #[test]
    fn boolean_and_degenerate_cases() {
        let q = parse_query("ans() :- E(x, y)").unwrap();
        let db = db();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(naive_monte_carlo(&q, &db, 10, &mut rng), 1.0);
        let q2 = parse_query("ans(x) :- E(x, x)").unwrap();
        assert_eq!(naive_monte_carlo(&q2, &db, 0, &mut rng), 0.0);
    }
}

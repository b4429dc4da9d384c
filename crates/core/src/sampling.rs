//! Approximately uniform sampling of answers (Section 6, first extension).
//!
//! The answer set `Ans(ϕ, D)` is exactly the hyperedge set of `H(ϕ, D)`
//! (Observation 25), so the self-reducible hyperedge sampler of `cqc-dlm`
//! driven by the colour-coding oracle yields answer samples. With exact
//! descent counts the distribution is uniform conditioned on the oracle never
//! erring; the colour-coding repetitions make oracle errors exponentially
//! unlikely (see `crate::oracle`).

use crate::api::ApproxConfig;
use crate::error::CoreError;
use crate::fptras::FptrasPlan;
use crate::oracle::AnswerOracle;
use cqc_data::{Structure, Val};
use cqc_dlm::sample_edge;
use cqc_hom::HybridDecider;
use cqc_query::{build_b_structure, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Draw `count` (approximately) uniform answers of `(ϕ, D)` with a prepared
/// plan (the oracle skeleton `Â(ϕ)` and the repetition budget are
/// query-side and cached in [`FptrasPlan`]). Returns fewer than `count`
/// tuples only when the query has no answers at all. Each returned tuple
/// lists the values of the free variables in head order.
///
/// `plan` must come from [`crate::plan_fptras`] on the same `query`; the
/// pairing is not checked here (use [`crate::Engine::prepare`], which owns
/// it).
pub fn sample_answers_with_plan(
    query: &Query,
    plan: &FptrasPlan,
    db: &Structure,
    count: usize,
    config: &ApproxConfig,
) -> Result<Vec<Vec<Val>>, CoreError> {
    if !query.compatible_with(db.signature()) {
        return Err(CoreError::incompatible_database(
            "sig(ϕ) is not contained in sig(D)",
        ));
    }
    let b_structure = build_b_structure(query, db).map_err(CoreError::incompatible_database)?;
    let decider = HybridDecider::new();
    // The self-reduction descends sequentially, but each descent step's
    // colour-coding rounds fan out over the runtime; the oracle's per-call
    // seed-splitting keeps the drawn answers bit-identical for any thread
    // count.
    let mut oracle = AnswerOracle::with_a_hat(
        query,
        b_structure,
        &plan.a_hat,
        db.universe_size(),
        &decider,
        plan.repetitions,
        config.seed,
    )
    .with_runtime(config.runtime());
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5A17));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        match sample_edge(&mut oracle, &mut rng) {
            Some(edge) => out.push(edge.into_iter().map(|v| Val(v as u32)).collect()),
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use cqc_data::StructureBuilder;
    use cqc_query::{enumerate_answers, parse_query};
    use std::collections::BTreeMap;

    fn draw_samples(
        query: &Query,
        db: &Structure,
        count: usize,
        config: &ApproxConfig,
    ) -> Vec<Vec<Val>> {
        let prepared = Engine::from_config(config.clone()).prepare(query).unwrap();
        prepared.sample(db, count).unwrap()
    }

    fn db() -> Structure {
        let mut b = StructureBuilder::new(6);
        b.relation("F", 2);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 0), (3, 5)] {
            b.fact("F", &[u, v]).unwrap();
        }
        b.build()
    }

    #[test]
    fn samples_are_answers_and_cover_the_support() {
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = db();
        let answers = enumerate_answers(&q, &db);
        assert!(answers.len() >= 2);
        let cfg = ApproxConfig::new(0.3, 0.05).with_seed(9);
        let samples = draw_samples(&q, &db, 60, &cfg);
        assert_eq!(samples.len(), 60);
        let mut freq: BTreeMap<Vec<Val>, usize> = BTreeMap::new();
        for s in samples {
            assert!(answers.contains(&s), "sampled non-answer {s:?}");
            *freq.entry(s).or_insert(0) += 1;
        }
        // every answer appears at least once in 60 draws over a support of ≤ 4
        assert_eq!(freq.len(), answers.len());
    }

    #[test]
    fn sampling_empty_answer_set() {
        let q = parse_query("ans(x) :- F(x, x)").unwrap();
        let db = db();
        let cfg = ApproxConfig::new(0.3, 0.05).with_seed(10);
        let samples = draw_samples(&q, &db, 5, &cfg);
        assert!(samples.is_empty());
    }

    #[test]
    fn two_free_variable_sampling() {
        let q = parse_query("ans(x, y) :- F(x, z), F(z, y)").unwrap();
        let db = db();
        let answers = enumerate_answers(&q, &db);
        let cfg = ApproxConfig::new(0.3, 0.05).with_seed(11);
        let samples = draw_samples(&q, &db, 30, &cfg);
        for s in samples {
            assert!(answers.contains(&s));
        }
    }
}

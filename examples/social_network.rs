//! A larger, domain-flavoured scenario: approximate analytics over a synthetic
//! social network with follower and block relations, exercising disequalities
//! and negations (the full ECQ language) plus the CQ-only FPRAS.
//!
//! Run with `cargo run --release --example social_network`.

use cqcount::prelude::*;
use cqcount::workloads::{erdos_renyi, graph_database};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 80;
    let mut rng = StdRng::seed_from_u64(7);
    let follows = erdos_renyi(n, 6.0 / n as f64, &mut rng);
    let blocks = erdos_renyi(n, 1.5 / n as f64, &mut rng);

    // One database with two binary relations.
    let mut b = StructureBuilder::new(n);
    b.relation("Follows", 2);
    b.relation("Blocks", 2);
    for (u, v) in &follows.edges {
        b.fact("Follows", &[*u as u32, *v as u32]).unwrap();
    }
    for (u, v) in &blocks.edges {
        b.fact("Blocks", &[*u as u32, *v as u32]).unwrap();
    }
    let db = b.build();
    // A second, single-relation view used by the CQ/FPRAS demo below.
    let follows_db = graph_database(&follows, "Follows", false);

    let cfg = ApproxConfig::new(0.25, 0.05).with_seed(1);

    // 1. "Influencers": users followed by two distinct users who do not block them.
    let influencers =
        parse_query("ans(x) :- Follows(y, x), Follows(z, x), y != z, !Blocks(y, x), !Blocks(z, x)")
            .unwrap();
    report("influencers (ECQ, FPTRAS)", &influencers, &db, &cfg);

    // 2. "Mutuals": ordered pairs following each other.
    let mutuals = parse_query("ans(x, y) :- Follows(x, y), Follows(y, x)").unwrap();
    report("mutual followers (CQ, FPRAS)", &mutuals, &follows_db, &cfg);

    // 3. "Reach-2": pairs connected by a directed path of length 2 (existential midpoint).
    let reach2 = parse_query("ans(x, y) :- Follows(x, m), Follows(m, y)").unwrap();
    report("2-step reach (CQ, FPRAS)", &reach2, &follows_db, &cfg);
}

fn report(name: &str, q: &Query, db: &Database, cfg: &ApproxConfig) {
    let exact = exact_count_answers(q, db);
    let est = Engine::from_config(cfg.clone())
        .prepare(q)
        .unwrap()
        .count(db)
        .unwrap();
    println!(
        "{name:35}  exact = {exact:6}   estimate = {:8.1}   method = {:?}",
        est.estimate, est.method
    );
}

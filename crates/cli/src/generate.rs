//! The `generate` command: produce workload databases (random graphs, grids,
//! regular digraphs, random ternary structures) in the facts-file format.

use crate::{Args, CliError};
use cqc_data::{write_facts, Structure};
use cqc_workloads::{erdos_renyi, graph_database, grid_graph, random_regularish};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The supported workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    ErdosRenyi,
    Grid,
    Regular,
    Ternary,
}

fn parse_family(raw: &str) -> Result<Family, CliError> {
    match raw {
        "erdos-renyi" | "er" | "gnp" => Ok(Family::ErdosRenyi),
        "grid" => Ok(Family::Grid),
        "regular" => Ok(Family::Regular),
        "ternary" => Ok(Family::Ternary),
        other => Err(CliError::Usage(format!(
            "unknown family `{other}` (expected erdos-renyi | grid | regular | ternary)"
        ))),
    }
}

/// Build the database described by the arguments (exposed for tests).
pub fn build_workload(args: &Args) -> Result<Structure, CliError> {
    let family = parse_family(args.value_of("family").unwrap_or("erdos-renyi"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let relation = args.value_of("relation").map(str::to_string);
    let symmetric = args.switch("symmetric");
    let mut rng = StdRng::seed_from_u64(seed);

    let db = match family {
        Family::ErdosRenyi => {
            let n: usize = args.get_or("n", 100)?;
            if n == 0 {
                return Err(CliError::Usage("`--n` must be positive".into()));
            }
            let avg: f64 = args.get_or("avg-degree", 3.0)?;
            let p = (avg / n as f64).clamp(0.0, 1.0);
            let g = erdos_renyi(n, p, &mut rng);
            graph_database(&g, relation.as_deref().unwrap_or("E"), symmetric)
        }
        Family::Grid => {
            let rows: usize = args.get_or("rows", 8)?;
            let cols: usize = args.get_or("cols", 8)?;
            if rows == 0 || cols == 0 {
                return Err(CliError::Usage(
                    "`--rows` and `--cols` must be positive".into(),
                ));
            }
            let g = grid_graph(rows, cols);
            graph_database(&g, relation.as_deref().unwrap_or("E"), symmetric)
        }
        Family::Regular => {
            let n: usize = args.get_or("n", 100)?;
            let degree: usize = args.get_or("degree", 3)?;
            if n == 0 {
                return Err(CliError::Usage("`--n` must be positive".into()));
            }
            let g = random_regularish(n, degree.min(n.saturating_sub(1)), &mut rng);
            graph_database(&g, relation.as_deref().unwrap_or("E"), symmetric)
        }
        Family::Ternary => {
            let n: usize = args.get_or("n", 60)?;
            let facts: usize = args.get_or("facts", 4 * n)?;
            if n == 0 {
                return Err(CliError::Usage("`--n` must be positive".into()));
            }
            cqc_workloads::graphs::random_ternary_database(n, facts, &mut rng)
        }
    };
    Ok(db)
}

/// Run `cqc generate`.
///
/// Accepts `--threads N` (0 = auto) like `count` and `sample` for CLI
/// uniformity. Generation itself stays single-threaded by design: the
/// emitted database is a pure function of `--seed` drawn from one
/// sequential RNG stream, and keeping that artifact byte-stable matters
/// more than generator wall time (the summary still reports the resolved
/// thread count so scripts can scrape one format everywhere).
pub fn run_generate(args: &Args) -> Result<String, CliError> {
    let threads: usize = args.get_or("threads", 0)?;
    let db = build_workload(args)?;
    let rendered = write_facts(&db);
    match args.value_of("out") {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
            Ok(format!(
                "wrote {} elements, {} facts to {path} (threads={})\n",
                db.universe_size(),
                db.fact_count(),
                cqc_runtime::resolve_threads(threads)
            ))
        }
        None => Ok(rendered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use cqc_data::parse_facts;

    #[test]
    fn family_parsing() {
        assert_eq!(parse_family("erdos-renyi").unwrap(), Family::ErdosRenyi);
        assert_eq!(parse_family("er").unwrap(), Family::ErdosRenyi);
        assert_eq!(parse_family("grid").unwrap(), Family::Grid);
        assert_eq!(parse_family("regular").unwrap(), Family::Regular);
        assert_eq!(parse_family("ternary").unwrap(), Family::Ternary);
        assert!(parse_family("smallworld").is_err());
    }

    #[test]
    fn erdos_renyi_output_round_trips() {
        let out = run_generate(
            &args_from([
                "generate",
                "--family",
                "erdos-renyi",
                "--n",
                "30",
                "--avg-degree",
                "3",
                "--seed",
                "11",
            ])
            .unwrap(),
        )
        .unwrap();
        let db = parse_facts(&out).unwrap();
        assert_eq!(db.universe_size(), 30);
        assert!(db.fact_count() > 0);
        assert!(db.signature().symbol("E").is_some());
    }

    #[test]
    fn grid_has_the_expected_number_of_edges() {
        let out = run_generate(
            &args_from(["generate", "--family", "grid", "--rows", "3", "--cols", "4"]).unwrap(),
        )
        .unwrap();
        let db = parse_facts(&out).unwrap();
        assert_eq!(db.universe_size(), 12);
        // 3x4 grid: 9 horizontal + 8 vertical undirected edges, both directions
        assert_eq!(db.fact_count(), 34);
    }

    #[test]
    fn symmetric_closes_the_edge_relation_under_reversal() {
        let out = run_generate(
            &args_from([
                "generate",
                "--family",
                "er",
                "--n",
                "20",
                "--avg-degree",
                "3",
                "--seed",
                "9",
                "--symmetric",
            ])
            .unwrap(),
        )
        .unwrap();
        let db = parse_facts(&out).unwrap();
        let e = db.signature().symbol("E").unwrap();
        let rel = db.relation(e);
        for t in rel.iter() {
            let rev = [t[1], t[0]];
            assert!(rel.contains(&rev), "missing reverse of {:?}", t);
        }
    }

    #[test]
    fn ternary_workload_uses_arity_three() {
        let out = run_generate(
            &args_from([
                "generate", "--family", "ternary", "--n", "20", "--facts", "50",
            ])
            .unwrap(),
        )
        .unwrap();
        let db = parse_facts(&out).unwrap();
        assert_eq!(db.universe_size(), 20);
        let (_, _, arity) = db.signature().iter().next().unwrap();
        assert_eq!(arity, 3);
    }

    #[test]
    fn deterministic_given_the_seed() {
        let a = run_generate(
            &args_from(["generate", "--family", "er", "--n", "25", "--seed", "5"]).unwrap(),
        )
        .unwrap();
        let b = run_generate(
            &args_from(["generate", "--family", "er", "--n", "25", "--seed", "5"]).unwrap(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn writes_to_a_file_when_out_is_given() {
        let mut path = std::env::temp_dir();
        path.push(format!("cqc-cli-generate-{}.facts", std::process::id()));
        let out = run_generate(
            &args_from([
                "generate",
                "--family",
                "grid",
                "--rows",
                "2",
                "--cols",
                "2",
                "--out",
                path.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("wrote"));
        let db = parse_facts(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(db.universe_size(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_sizes_are_rejected() {
        assert!(
            run_generate(&args_from(["generate", "--family", "er", "--n", "0"]).unwrap()).is_err()
        );
        assert!(
            run_generate(&args_from(["generate", "--family", "grid", "--rows", "0"]).unwrap())
                .is_err()
        );
    }
}

//! A small textual "facts file" format for relational databases, used by the
//! command-line tool (`cqc-cli`) and the examples.
//!
//! The format is line-oriented:
//!
//! ```text
//! # comments start with '#'
//! universe 6
//! relation F 2
//! relation Person 1
//! F 0 1
//! F 0 2
//! Person 3
//! ```
//!
//! * `universe N` — mandatory, must come before any fact; universe elements
//!   are `0 … N − 1`.
//! * `relation NAME ARITY` — declares a relation symbol; arities must be
//!   positive (Section 1.1 of the paper).
//! * `NAME v₁ … v_j` — a fact; the relation must have been declared and the
//!   number of values must match its arity.
//! * `element I NAME` — optional human-readable name for universe element `I`.
//!
//! [`write_facts`] produces a canonical rendering that [`parse_facts`] reads
//! back to an equal structure (see the round-trip tests).

use crate::error::DataError;
use crate::structure::{Structure, StructureBuilder};
use std::fmt;

/// Errors produced while reading a facts file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactsError {
    /// A line could not be parsed; carries the 1-based line number and a
    /// human-readable message.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The `universe` directive is missing or appears after facts.
    MissingUniverse,
    /// An underlying database error (arity mismatch, unknown symbol, …).
    Data {
        /// 1-based line number.
        line: usize,
        /// The underlying error.
        source: DataError,
    },
}

impl fmt::Display for FactsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactsError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            FactsError::MissingUniverse => {
                write!(f, "missing `universe N` directive before the first fact")
            }
            FactsError::Data { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for FactsError {}

/// Parse a facts file into a [`Structure`].
pub fn parse_facts(text: &str) -> Result<Structure, FactsError> {
    let mut universe: Option<usize> = None;
    let mut declarations: Vec<(String, usize)> = Vec::new();
    // (line, relation, range of its values in `fact_values`)
    let mut facts: Vec<(usize, &str, std::ops::Range<usize>)> = Vec::new();
    let mut fact_values: Vec<u32> = Vec::new();
    let mut names: Vec<(usize, u32, String)> = Vec::new();

    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "universe" => {
                if tokens.len() != 2 {
                    return Err(FactsError::Syntax {
                        line: line_no,
                        message: "expected `universe N`".into(),
                    });
                }
                let n: usize = tokens[1].parse().map_err(|_| FactsError::Syntax {
                    line: line_no,
                    message: format!("`{}` is not a valid universe size", tokens[1]),
                })?;
                universe = Some(n);
            }
            "relation" => {
                if tokens.len() != 3 {
                    return Err(FactsError::Syntax {
                        line: line_no,
                        message: "expected `relation NAME ARITY`".into(),
                    });
                }
                let arity: usize = tokens[2].parse().map_err(|_| FactsError::Syntax {
                    line: line_no,
                    message: format!("`{}` is not a valid arity", tokens[2]),
                })?;
                declarations.push((tokens[1].to_string(), arity));
            }
            "element" => {
                if tokens.len() < 3 {
                    return Err(FactsError::Syntax {
                        line: line_no,
                        message: "expected `element INDEX NAME`".into(),
                    });
                }
                let idx: u32 = tokens[1].parse().map_err(|_| FactsError::Syntax {
                    line: line_no,
                    message: format!("`{}` is not a valid element index", tokens[1]),
                })?;
                names.push((line_no, idx, tokens[2..].join(" ")));
            }
            name => {
                let start = fact_values.len();
                for t in &tokens[1..] {
                    let v: u32 = t.parse().map_err(|_| FactsError::Syntax {
                        line: line_no,
                        message: format!("`{t}` is not a valid universe element"),
                    })?;
                    fact_values.push(v);
                }
                facts.push((line_no, name, start..fact_values.len()));
            }
        }
    }

    let universe = universe.ok_or(FactsError::MissingUniverse)?;
    let mut builder = StructureBuilder::new(universe);
    for (name, arity) in &declarations {
        if *arity == 0 {
            return Err(FactsError::Data {
                line: 0,
                source: DataError::ZeroArity(name.clone()),
            });
        }
        builder.relation(name, *arity);
    }
    for (line, name, values) in facts {
        // `StructureBuilder::fact` would auto-declare unknown relations; in a
        // file format that silently turns typos into new relations, so reject
        // facts over undeclared symbols instead.
        if !declarations.iter().any(|(n, _)| n == name) {
            return Err(FactsError::Data {
                line,
                source: DataError::UnknownSymbol(name.to_string()),
            });
        }
        builder
            .fact(name, &fact_values[values])
            .map_err(|source| FactsError::Data { line, source })?;
    }
    let mut structure = builder.build();
    if !names.is_empty() {
        let mut element_names: Vec<String> = (0..universe).map(|i| i.to_string()).collect();
        for (line, idx, name) in names {
            if (idx as usize) >= universe {
                return Err(FactsError::Data {
                    line,
                    source: DataError::ValueOutOfRange {
                        value: idx,
                        universe,
                    },
                });
            }
            element_names[idx as usize] = name;
        }
        structure.set_element_names(element_names);
    }
    Ok(structure)
}

/// Render a structure in the facts-file format. The output is canonical:
/// relations appear in signature order, facts in tuple order.
pub fn write_facts(db: &Structure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} relations, {} facts, universe of size {}\n",
        db.signature().len(),
        db.fact_count(),
        db.universe_size()
    ));
    out.push_str(&format!("universe {}\n", db.universe_size()));
    let symbols: Vec<_> = db
        .signature()
        .iter()
        .map(|(id, name, arity)| (id, name.to_string(), arity))
        .collect();
    for (_, name, arity) in &symbols {
        out.push_str(&format!("relation {name} {arity}\n"));
    }
    for (id, name, _) in &symbols {
        for row in db.relation(*id).iter() {
            out.push_str(name);
            for v in row {
                out.push_str(&format!(" {}", v.0));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::val::Val;

    const EXAMPLE: &str = "\
# the paper's running example
universe 6
relation F 2
F 0 1
F 0 2   # person 0 has two friends
F 3 4
F 3 5
element 0 alice
element 3 dana
";

    #[test]
    fn parses_the_example() {
        let db = parse_facts(EXAMPLE).unwrap();
        assert_eq!(db.universe_size(), 6);
        assert_eq!(db.fact_count(), 4);
        let f = db.signature().symbol("F").unwrap();
        assert!(db.holds(f, &[Val(0), Val(1)]));
        assert!(db.holds(f, &[Val(0), Val(2)]));
        assert!(!db.holds(f, &[Val(1), Val(0)]));
        assert_eq!(db.element_name(Val(0)), "alice");
        assert_eq!(db.element_name(Val(3)), "dana");
    }

    #[test]
    fn round_trip() {
        let db = parse_facts(EXAMPLE).unwrap();
        let rendered = write_facts(&db);
        let back = parse_facts(&rendered).unwrap();
        assert_eq!(back.universe_size(), db.universe_size());
        assert_eq!(back.fact_count(), db.fact_count());
        let f = db.signature().symbol("F").unwrap();
        let fb = back.signature().symbol("F").unwrap();
        for t in db.relation(f).iter() {
            assert!(back.relation(fb).contains(t));
        }
    }

    #[test]
    fn missing_universe_is_rejected() {
        assert_eq!(
            parse_facts("relation F 2\nF 0 1\n"),
            Err(FactsError::MissingUniverse)
        );
    }

    #[test]
    fn arity_mismatch_is_reported_with_line_number() {
        let text = "universe 3\nrelation F 2\nF 0 1 2\n";
        match parse_facts(text) {
            Err(FactsError::Data { line, source }) => {
                assert_eq!(line, 3);
                assert!(matches!(source, DataError::ArityMismatch { .. }));
            }
            other => panic!("expected an arity error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_symbol_is_reported() {
        let text = "universe 3\nG 0 1\n";
        match parse_facts(text) {
            Err(FactsError::Data { line, source }) => {
                assert_eq!(line, 2);
                assert!(matches!(source, DataError::UnknownSymbol(_)));
            }
            other => panic!("expected an unknown-symbol error, got {other:?}"),
        }
    }

    #[test]
    fn value_out_of_range_is_reported() {
        let text = "universe 2\nrelation F 2\nF 0 5\n";
        match parse_facts(text) {
            Err(FactsError::Data { source, .. }) => {
                assert!(matches!(source, DataError::ValueOutOfRange { .. }));
            }
            other => panic!("expected an out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let text = "universe x\n";
        match parse_facts(text) {
            Err(FactsError::Syntax { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected a syntax error, got {other:?}"),
        }
        let text = "universe 3\nrelation F two\n";
        match parse_facts(text) {
            Err(FactsError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn zero_arity_is_rejected() {
        let text = "universe 3\nrelation F 0\n";
        assert!(matches!(
            parse_facts(text),
            Err(FactsError::Data {
                source: DataError::ZeroArity(_),
                ..
            })
        ));
    }

    #[test]
    fn empty_database_round_trips() {
        let text = "universe 4\nrelation E 2\n";
        let db = parse_facts(text).unwrap();
        assert_eq!(db.fact_count(), 0);
        let back = parse_facts(&write_facts(&db)).unwrap();
        assert_eq!(back.fact_count(), 0);
        assert_eq!(back.universe_size(), 4);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# leading comment\n\nuniverse 2\nrelation E 2\n# another\nE 0 1\n\n";
        let db = parse_facts(text).unwrap();
        assert_eq!(db.fact_count(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = FactsError::Syntax {
            line: 7,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 7"));
        assert!(FactsError::MissingUniverse.to_string().contains("universe"));
    }
}

//! Query abstract syntax: extended conjunctive queries (ECQs).

use cqc_data::Signature;
use std::collections::BTreeSet;
use std::fmt;

/// A query variable, identified by a dense index into
/// [`Query::variable_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A relational atom `R(y₁, …, y_j)` appearing (positively or negated) in a
/// query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation symbol name (resolved against the database signature by
    /// name).
    pub relation: String,
    /// The argument variables, in order. The arity is `vars.len()`.
    pub vars: Vec<Var>,
}

impl Atom {
    /// Create an atom.
    pub fn new(relation: &str, vars: &[Var]) -> Self {
        Atom {
            relation: relation.to_string(),
            vars: vars.to_vec(),
        }
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }
}

/// A literal of an ECQ: a positive or negated relational atom.
/// (Equalities are rewritten away at build time; disequalities are stored
/// separately because the hypergraph `H(ϕ)` of Definition 3 must not contain
/// hyperedges for them.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// A predicate `R(ȳ)`.
    Positive(Atom),
    /// A negated predicate `¬R(ȳ)`.
    Negated(Atom),
}

impl Literal {
    /// The underlying atom.
    pub fn atom(&self) -> &Atom {
        match self {
            Literal::Positive(a) | Literal::Negated(a) => a,
        }
    }

    /// Whether the literal is negated.
    pub fn is_negated(&self) -> bool {
        matches!(self, Literal::Negated(_))
    }
}

/// The syntactic class of a query, matching the problem names of the paper
/// (#CQ, #DCQ, #ECQ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    /// A conjunctive query: no disequalities, no negated atoms.
    CQ,
    /// A conjunctive query with disequalities but no negated atoms.
    DCQ,
    /// A conjunctive query with disequalities and/or negated atoms.
    ECQ,
}

/// Errors produced while building queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A variable does not occur in any atom (the paper requires every
    /// variable of `vars(ϕ)` to occur in at least one atom).
    UnconstrainedVariable(String),
    /// The same relation name was used with two different arities.
    InconsistentArity {
        /// Relation name.
        relation: String,
        /// First arity seen.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
    /// A free variable was listed twice in the head.
    DuplicateFreeVariable(String),
    /// Parse error with a human-readable message.
    Parse(String),
    /// A disequality or equality relates a variable with itself
    /// (`x ≠ x` is unsatisfiable; `x = x` is trivial but we reject it to
    /// surface likely mistakes).
    ReflexiveComparison(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnconstrainedVariable(v) => {
                write!(f, "variable `{v}` does not occur in any atom")
            }
            QueryError::InconsistentArity {
                relation,
                first,
                second,
            } => write!(
                f,
                "relation `{relation}` used with arities {first} and {second}"
            ),
            QueryError::DuplicateFreeVariable(v) => {
                write!(f, "free variable `{v}` listed twice")
            }
            QueryError::Parse(msg) => write!(f, "parse error: {msg}"),
            QueryError::ReflexiveComparison(v) => {
                write!(f, "comparison of variable `{v}` with itself")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// An extended conjunctive query (ECQ) with free (output) and existential
/// variables (Section 1.1 of the paper).
///
/// Invariants (enforced by [`crate::QueryBuilder`]):
/// * there are no equalities (they have been rewritten away),
/// * every variable occurs in at least one atom or disequality,
/// * free variables are pairwise distinct,
/// * every relation name is used with a single arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub(crate) variable_names: Vec<String>,
    pub(crate) free_vars: Vec<Var>,
    pub(crate) literals: Vec<Literal>,
    pub(crate) disequalities: Vec<(Var, Var)>,
}

impl Query {
    /// Number of variables `|vars(ϕ)|`.
    pub fn num_vars(&self) -> usize {
        self.variable_names.len()
    }

    /// All variables of the query.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.variable_names.len() as u32).map(Var)
    }

    /// The free (output) variables, in head order.
    pub fn free_vars(&self) -> &[Var] {
        &self.free_vars
    }

    /// The number of free variables `ℓ = |free(ϕ)|`.
    pub fn num_free_vars(&self) -> usize {
        self.free_vars.len()
    }

    /// The existential (quantified) variables, in index order.
    pub fn existential_vars(&self) -> Vec<Var> {
        let free: BTreeSet<Var> = self.free_vars.iter().copied().collect();
        self.vars().filter(|v| !free.contains(v)).collect()
    }

    /// Whether `v` is free.
    pub fn is_free(&self, v: Var) -> bool {
        self.free_vars.contains(&v)
    }

    /// The positive and negated atoms (no disequalities).
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// The positive atoms only.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        self.literals.iter().filter_map(|l| match l {
            Literal::Positive(a) => Some(a),
            Literal::Negated(_) => None,
        })
    }

    /// The negated atoms only.
    pub fn negated_atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        self.literals.iter().filter_map(|l| match l {
            Literal::Negated(a) => Some(a),
            Literal::Positive(_) => None,
        })
    }

    /// The number of negated atoms `ν` (Observation 19 / Lemma 22).
    pub fn num_negated(&self) -> usize {
        self.negated_atoms().count()
    }

    /// The set of disequalities `Δ(ϕ)` as ordered pairs `(min, max)`.
    pub fn disequalities(&self) -> &[(Var, Var)] {
        &self.disequalities
    }

    /// The display name of a variable.
    pub fn variable_name(&self, v: Var) -> &str {
        &self.variable_names[v.index()]
    }

    /// All variable names.
    pub fn variable_names(&self) -> &[String] {
        &self.variable_names
    }

    /// Find a variable by name.
    pub fn variable(&self, name: &str) -> Option<Var> {
        self.variable_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }

    /// The query size `‖ϕ‖`: `|vars(ϕ)|` plus the sum of the arities of all
    /// atoms, counting disequalities as arity-2 atoms (Section 1.1).
    pub fn size(&self) -> usize {
        self.num_vars()
            + self
                .literals
                .iter()
                .map(|l| l.atom().arity())
                .sum::<usize>()
            + 2 * self.disequalities.len()
    }

    /// The maximum arity `ar(sig(ϕ))` over the relational atoms
    /// (0 when there are none).
    pub fn max_arity(&self) -> usize {
        self.literals
            .iter()
            .map(|l| l.atom().arity())
            .max()
            .unwrap_or(0)
    }

    /// The syntactic class of the query (CQ / DCQ / ECQ).
    pub fn class(&self) -> QueryClass {
        let has_neg = self.literals.iter().any(Literal::is_negated);
        let has_diseq = !self.disequalities.is_empty();
        if has_neg {
            QueryClass::ECQ
        } else if has_diseq {
            QueryClass::DCQ
        } else {
            QueryClass::CQ
        }
    }

    /// The signature `sig(ϕ)` of the query: every relation name used in a
    /// positive or negated atom, with its arity.
    pub fn signature(&self) -> Signature {
        let mut sig = Signature::new();
        for l in &self.literals {
            let a = l.atom();
            sig.declare(&a.relation, a.arity())
                .expect("builder enforces consistent arities");
        }
        sig
    }

    /// Check that the query's relations all appear in the database signature
    /// `sig_d` with matching arities (i.e. `sig(ϕ) ⊆ sig(D)`).
    pub fn compatible_with(&self, sig_d: &Signature) -> bool {
        self.literals.iter().all(|l| {
            let a = l.atom();
            sig_d
                .symbol(&a.relation)
                .map(|id| sig_d.arity(id) == a.arity())
                .unwrap_or(false)
        })
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ans(")?;
        for (i, v) in self.free_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.variable_name(*v))?;
        }
        write!(f, ") :- ")?;
        let mut first = true;
        for l in &self.literals {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            let a = l.atom();
            if l.is_negated() {
                write!(f, "!")?;
            }
            write!(f, "{}(", a.relation)?;
            for (i, v) in a.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.variable_name(*v))?;
            }
            write!(f, ")")?;
        }
        for (u, v) in &self.disequalities {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(
                f,
                "{} != {}",
                self.variable_name(*u),
                self.variable_name(*v)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryBuilder;

    fn friends_query() -> Query {
        // ϕ(x) = ∃y ∃z F(x,y) ∧ F(x,z) ∧ y ≠ z   (paper, equation (1))
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.free(&[x]);
        b.atom("F", &[x, y]);
        b.atom("F", &[x, z]);
        b.disequality(y, z);
        b.build().unwrap()
    }

    #[test]
    fn friends_query_shape() {
        let q = friends_query();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_free_vars(), 1);
        assert_eq!(q.existential_vars().len(), 2);
        assert_eq!(q.class(), QueryClass::DCQ);
        assert_eq!(q.num_negated(), 0);
        // ‖ϕ‖ = 3 vars + 2 + 2 (atoms) + 2 (disequality) = 9
        assert_eq!(q.size(), 9);
        assert_eq!(q.max_arity(), 2);
        assert!(q.is_free(Var(0)));
        assert!(!q.is_free(Var(1)));
    }

    #[test]
    fn class_detection() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x, y]);
        b.atom("E", &[x, y]);
        let q = b.build().unwrap();
        assert_eq!(q.class(), QueryClass::CQ);

        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x, y]);
        b.atom("E", &[x, y]);
        b.negated_atom("F", &[x, y]);
        let q = b.build().unwrap();
        assert_eq!(q.class(), QueryClass::ECQ);
        assert_eq!(q.num_negated(), 1);
    }

    #[test]
    fn signature_and_compatibility() {
        let q = friends_query();
        let sig = q.signature();
        assert_eq!(sig.len(), 1);
        let f = sig.symbol("F").unwrap();
        assert_eq!(sig.arity(f), 2);

        let mut dbsig = Signature::new();
        dbsig.declare("F", 2).unwrap();
        dbsig.declare("G", 3).unwrap();
        assert!(q.compatible_with(&dbsig));
        let mut badsig = Signature::new();
        badsig.declare("F", 3).unwrap();
        assert!(!q.compatible_with(&badsig));
        assert!(!q.compatible_with(&Signature::new()));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let q = friends_query();
        let s = format!("{q}");
        assert!(s.contains("F(x, y)"));
        assert!(s.contains("y != z"));
        let reparsed = crate::parse_query(&s).unwrap();
        assert_eq!(reparsed.num_vars(), 3);
        assert_eq!(reparsed.disequalities().len(), 1);
    }

    #[test]
    fn variable_lookup() {
        let q = friends_query();
        assert_eq!(q.variable("x"), Some(Var(0)));
        assert_eq!(q.variable("nope"), None);
        assert_eq!(q.variable_name(Var(2)), "z");
        assert_eq!(q.variable_names().len(), 3);
        assert_eq!(q.vars().count(), 3);
    }

    #[test]
    fn atoms_iterators() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x]);
        b.atom("E", &[x, y]);
        b.negated_atom("F", &[y, x]);
        let q = b.build().unwrap();
        assert_eq!(q.positive_atoms().count(), 1);
        assert_eq!(q.negated_atoms().count(), 1);
        assert_eq!(q.literals().len(), 2);
        assert!(q.literals()[1].is_negated());
        assert_eq!(q.literals()[1].atom().relation, "F");
    }
}

//! Building queries, including the equality-elimination rewriting.

use crate::ast::{Atom, Literal, Query, QueryError, Var};
use std::collections::BTreeMap;

/// A builder for [`Query`] values.
///
/// Equalities added with [`QueryBuilder::equality`] are eliminated before the
/// query is produced, by merging the equated variables into a single variable
/// (the paper's "without loss of generality ECQs have no equalities").
///
/// ```
/// use cqc_query::QueryBuilder;
/// let mut b = QueryBuilder::new();
/// let x = b.var("x");
/// let y = b.var("y");
/// let z = b.var("z");
/// b.free(&[x]);
/// b.atom("F", &[x, y]);
/// b.atom("F", &[x, z]);
/// b.disequality(y, z);
/// let q = b.build().unwrap();
/// assert_eq!(q.num_vars(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    names: Vec<String>,
    // Sorted maps throughout the builder: variable numbering and arity
    // checks must never depend on hash-iteration order (the `hash-iter`
    // rule of clippy.toml — the query plan feeds every estimate).
    by_name: BTreeMap<String, Var>,
    free: Vec<Var>,
    literals: Vec<Literal>,
    disequalities: Vec<(Var, Var)>,
    equalities: Vec<(Var, Var)>,
}

impl QueryBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Introduce (or look up) a variable by name.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    /// Introduce a fresh variable with an auto-generated name.
    pub fn fresh_var(&mut self) -> Var {
        let name = format!("_v{}", self.names.len());
        self.var(&name)
    }

    /// Declare the free (output) variables, in head order.
    pub fn free(&mut self, vars: &[Var]) -> &mut Self {
        self.free = vars.to_vec();
        self
    }

    /// Add a positive atom `R(vars…)`.
    pub fn atom(&mut self, relation: &str, vars: &[Var]) -> &mut Self {
        self.literals
            .push(Literal::Positive(Atom::new(relation, vars)));
        self
    }

    /// Add a negated atom `¬R(vars…)`.
    pub fn negated_atom(&mut self, relation: &str, vars: &[Var]) -> &mut Self {
        self.literals
            .push(Literal::Negated(Atom::new(relation, vars)));
        self
    }

    /// Add a disequality `u ≠ v`.
    pub fn disequality(&mut self, u: Var, v: Var) -> &mut Self {
        self.disequalities.push((u, v));
        self
    }

    /// Add an equality `u = v` (eliminated by variable merging at build time).
    pub fn equality(&mut self, u: Var, v: Var) -> &mut Self {
        self.equalities.push((u, v));
        self
    }

    /// Finish building, performing validation and equality elimination.
    pub fn build(&self) -> Result<Query, QueryError> {
        // Reject reflexive comparisons.
        for (u, v) in self.equalities.iter().chain(self.disequalities.iter()) {
            if u == v {
                return Err(QueryError::ReflexiveComparison(
                    self.names[u.index()].clone(),
                ));
            }
        }
        // Union-find over variables to eliminate equalities.
        let n = self.names.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        for (u, v) in &self.equalities {
            let ru = find(&mut parent, u.index());
            let rv = find(&mut parent, v.index());
            if ru != rv {
                // keep the smaller index as representative (stable naming)
                let (keep, drop) = if ru < rv { (ru, rv) } else { (rv, ru) };
                parent[drop] = keep;
            }
        }
        // Renumber representatives densely, in original order.
        let mut new_index: BTreeMap<usize, u32> = BTreeMap::new();
        let mut new_names: Vec<String> = Vec::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            if let std::collections::btree_map::Entry::Vacant(e) = new_index.entry(r) {
                e.insert(new_names.len() as u32);
                new_names.push(self.names[r].clone());
            }
        }
        let remap = |v: Var, parent: &mut Vec<usize>| -> Var {
            let r = find(parent, v.index());
            Var(new_index[&r])
        };

        // Free variables: remap, reject duplicates (two equated free variables
        // would collapse, changing the answer arity silently — surface it).
        let mut free = Vec::with_capacity(self.free.len());
        for v in &self.free {
            let nv = remap(*v, &mut parent);
            if free.contains(&nv) {
                return Err(QueryError::DuplicateFreeVariable(
                    self.names[v.index()].clone(),
                ));
            }
            free.push(nv);
        }

        // Literals: remap; check arity consistency per relation name.
        let mut arities: BTreeMap<String, usize> = BTreeMap::new();
        let mut literals = Vec::with_capacity(self.literals.len());
        for l in &self.literals {
            let a = l.atom();
            if let Some(&prev) = arities.get(&a.relation) {
                if prev != a.arity() {
                    return Err(QueryError::InconsistentArity {
                        relation: a.relation.clone(),
                        first: prev,
                        second: a.arity(),
                    });
                }
            } else {
                arities.insert(a.relation.clone(), a.arity());
            }
            let vars: Vec<Var> = a.vars.iter().map(|v| remap(*v, &mut parent)).collect();
            let atom = Atom::new(&a.relation, &vars);
            literals.push(match l {
                Literal::Positive(_) => Literal::Positive(atom),
                Literal::Negated(_) => Literal::Negated(atom),
            });
        }

        // Disequalities: remap, normalise order, drop duplicates. A
        // disequality that became reflexive through equality merging makes the
        // query unsatisfiable, which is legitimate; we keep it as a reflexive
        // marker is not possible, so instead reject (the caller asked for a
        // contradictory query).
        let mut disequalities = Vec::with_capacity(self.disequalities.len());
        for (u, v) in &self.disequalities {
            let nu = remap(*u, &mut parent);
            let nv = remap(*v, &mut parent);
            if nu == nv {
                return Err(QueryError::ReflexiveComparison(
                    self.names[u.index()].clone(),
                ));
            }
            let pair = if nu < nv { (nu, nv) } else { (nv, nu) };
            if !disequalities.contains(&pair) {
                disequalities.push(pair);
            }
        }

        // Every variable must occur in at least one atom or disequality.
        let mut occurs = vec![false; new_names.len()];
        for l in &literals {
            for v in &l.atom().vars {
                occurs[v.index()] = true;
            }
        }
        for (u, v) in &disequalities {
            occurs[u.index()] = true;
            occurs[v.index()] = true;
        }
        if let Some(i) = occurs.iter().position(|o| !o) {
            return Err(QueryError::UnconstrainedVariable(new_names[i].clone()));
        }

        Ok(Query {
            variable_names: new_names,
            free_vars: free,
            literals,
            disequalities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryClass;

    #[test]
    fn equality_elimination_merges_variables() {
        // ϕ(x) = ∃y,z E(x,y) ∧ E(z, x) ∧ y = z  →  merged into a single variable
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.free(&[x]);
        b.atom("E", &[x, y]);
        b.atom("E", &[z, x]);
        b.equality(y, z);
        let q = b.build().unwrap();
        assert_eq!(q.num_vars(), 2);
        assert_eq!(q.class(), QueryClass::CQ);
        // both atoms now use the merged variable
        let atoms: Vec<_> = q.positive_atoms().collect();
        assert_eq!(atoms[0].vars[1], atoms[1].vars[0]);
    }

    #[test]
    fn chained_equalities() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let w = b.var("w");
        b.free(&[x]);
        b.atom("E", &[x, y]);
        b.atom("E", &[z, w]);
        b.equality(y, z);
        b.equality(z, w);
        let q = b.build().unwrap();
        assert_eq!(q.num_vars(), 2);
    }

    #[test]
    fn free_variable_merging_is_rejected() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x, y]);
        b.atom("E", &[x, y]);
        b.equality(x, y);
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::DuplicateFreeVariable(_)
        ));
    }

    #[test]
    fn unconstrained_variable_rejected() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let _y = b.var("y");
        b.free(&[x]);
        b.atom("E", &[x, x]);
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::UnconstrainedVariable(_)
        ));
    }

    #[test]
    fn variable_constrained_only_by_disequality_is_allowed() {
        // H(ϕ) has no hyperedge for disequalities, but the variable still
        // occurs in an "atom" in the paper's sense.
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x, y]);
        b.atom("V", &[x]);
        b.disequality(x, y);
        assert!(b.build().is_ok());
    }

    #[test]
    fn inconsistent_arity_rejected() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x]);
        b.atom("E", &[x, y]);
        b.atom("E", &[x, y, y]);
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::InconsistentArity { .. }
        ));
    }

    #[test]
    fn reflexive_disequality_rejected() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        b.free(&[x]);
        b.atom("V", &[x]);
        b.disequality(x, x);
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::ReflexiveComparison(_)
        ));
    }

    #[test]
    fn disequality_made_reflexive_by_equality_rejected() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x]);
        b.atom("E", &[x, y]);
        b.equality(x, y);
        b.disequality(x, y);
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::ReflexiveComparison(_)
        ));
    }

    #[test]
    fn duplicate_disequalities_are_collapsed() {
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.free(&[x, y]);
        b.atom("E", &[x, y]);
        b.disequality(x, y);
        b.disequality(y, x);
        let q = b.build().unwrap();
        assert_eq!(q.disequalities().len(), 1);
    }

    #[test]
    fn fresh_variables_have_unique_names() {
        let mut b = QueryBuilder::new();
        let v1 = b.fresh_var();
        let v2 = b.fresh_var();
        assert_ne!(v1, v2);
        b.free(&[v1]);
        b.atom("E", &[v1, v2]);
        let q = b.build().unwrap();
        assert_eq!(q.num_vars(), 2);
    }

    #[test]
    fn renumbering_is_reproducible_across_builds() {
        // Regression for the `hash-iter` conversion: dense
        // renumbering walks a sorted map, so two independent builds of the
        // same query agree exactly — whatever the process hash state.
        let build = || {
            let mut b = QueryBuilder::new();
            let vars: Vec<Var> = (0..32).map(|i| b.var(&format!("v{i}"))).collect();
            for w in vars.windows(2) {
                b.atom("E", &[w[0], w[1]]);
            }
            for i in (0..30).step_by(3) {
                b.equality(vars[i], vars[i + 1]);
            }
            b.free(&[vars[0]]);
            b.build().unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn var_lookup_is_idempotent() {
        let mut b = QueryBuilder::new();
        let x1 = b.var("x");
        let x2 = b.var("x");
        assert_eq!(x1, x2);
    }
}

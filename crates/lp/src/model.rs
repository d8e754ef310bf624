//! The user-facing LP model builder.

use crate::error::LpError;
use crate::simplex::SolverOptions;
use crate::solution::Solution;
use std::fmt;

/// Identifier of a decision variable within a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

/// Identifier of a constraint within a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub(crate) u32);

impl VarId {
    /// Dense index of the variable in `0..model.num_vars()`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VarId` from a dense index. The id is only meaningful for
    /// the model that assigned it; model methods panic on out-of-range ids.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        VarId(u32::try_from(i).expect("variable index exceeds u32"))
    }
}

impl ConstraintId {
    /// Dense index of the constraint in `0..model.num_constraints()`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `ConstraintId` from a dense index. The id is only
    /// meaningful for the model that assigned it; model methods panic on
    /// out-of-range ids.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        ConstraintId(u32::try_from(i).expect("constraint index exceeds u32"))
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for ConstraintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (the coflow LPs minimize `Σ w_j C_j`).
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

#[derive(Clone, Debug)]
pub(crate) struct VarData {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

#[derive(Clone, Debug)]
pub(crate) struct ConstraintData {
    /// Sorted, deduplicated (column, coefficient) pairs.
    pub terms: Vec<(u32, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// An LP model: variables with bounds, linear constraints, and a linear
/// objective.
///
/// Build with [`Model::add_var`] / [`Model::add_constraint`], then call
/// [`Model::solve`]. The model is reusable: `solve` does not consume it.
#[derive(Clone, Debug)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The model's optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Total number of nonzero coefficients across all constraints.
    pub fn num_nonzeros(&self) -> usize {
        self.constraints.iter().map(|c| c.terms.len()).sum()
    }

    /// Adds a variable with bounds `[lb, ub]` and objective coefficient
    /// `obj`; returns its id.
    ///
    /// Use `f64::INFINITY` / `f64::NEG_INFINITY` for unbounded directions.
    /// `lb > ub`, or a NaN anywhere, panics immediately — those are always
    /// construction bugs.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(
            !lb.is_nan() && !ub.is_nan() && !obj.is_nan(),
            "NaN in variable"
        );
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        assert!(obj.is_finite(), "objective coefficient must be finite");
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarData {
            name: name.into(),
            lb,
            ub,
            obj,
        });
        id
    }

    /// Convenience: a variable with bounds `[0, ∞)`.
    pub fn add_nonneg(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, f64::INFINITY, obj)
    }

    /// Adds the constraint `Σ coeff·var  cmp  rhs`; returns its id.
    ///
    /// Duplicate variables in `terms` are summed. Zero coefficients are
    /// dropped. NaN coefficients or rhs panic.
    pub fn add_constraint<I>(&mut self, terms: I, cmp: Cmp, rhs: f64) -> ConstraintId
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        assert!(!rhs.is_nan(), "NaN rhs");
        let mut collected: Vec<(u32, f64)> = terms
            .into_iter()
            .map(|(v, c)| {
                assert!(!c.is_nan(), "NaN coefficient");
                assert!(
                    v.index() < self.vars.len(),
                    "constraint references unknown variable"
                );
                (v.0, c)
            })
            .collect();
        collected.sort_unstable_by_key(|&(v, _)| v);
        // Merge duplicates, drop (near-)zeros.
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(collected.len());
        for (v, c) in collected {
            match merged.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => merged.push((v, c)),
            }
        }
        merged.retain(|&(_, c)| c != 0.0);

        let id = ConstraintId(u32::try_from(self.constraints.len()).expect("too many constraints"));
        self.constraints.push(ConstraintData {
            terms: merged,
            cmp,
            rhs,
        });
        id
    }

    /// Adds `coeff` to the coefficient of variable `v` in constraint
    /// `c` (inserting the term if absent, dropping it if the sum cancels
    /// to zero).
    ///
    /// Together with [`add_var`](Model::add_var) and
    /// [`add_constraint`](Model::add_constraint) this is the structural
    /// half of warm-started re-solves: append new columns, stitch them
    /// into *existing* rows (a new flow joining shared capacity rows),
    /// grow the previous basis with [`Basis::grow`](crate::Basis::grow),
    /// and let [`solve_warm`](Model::solve_warm) pivot back to
    /// optimality. Mutating the coefficient of a variable that is
    /// *basic* in the snapshot is allowed — the warm solve refactorizes
    /// the basis from the current matrix — but appending nonbasic
    /// columns keeps the re-solve cheapest. NaN panics.
    pub fn add_term(&mut self, c: ConstraintId, v: VarId, coeff: f64) {
        assert!(!coeff.is_nan(), "NaN coefficient");
        assert!(
            v.index() < self.vars.len(),
            "constraint references unknown variable"
        );
        let terms = &mut self.constraints[c.index()].terms;
        match terms.binary_search_by_key(&v.0, |&(col, _)| col) {
            Ok(pos) => {
                terms[pos].1 += coeff;
                if terms[pos].1 == 0.0 {
                    terms.remove(pos);
                }
            }
            Err(pos) => {
                if coeff != 0.0 {
                    terms.insert(pos, (v.0, coeff));
                }
            }
        }
    }

    /// Changes the right-hand side of constraint `c`.
    ///
    /// The workhorse of warm-started re-solves: after an RHS change the
    /// previous basis stays dual feasible, so
    /// [`solve_warm`](Model::solve_warm) re-optimizes with a few dual
    /// simplex pivots. NaN panics.
    pub fn set_rhs(&mut self, c: ConstraintId, rhs: f64) {
        assert!(!rhs.is_nan(), "NaN rhs");
        self.constraints[c.index()].rhs = rhs;
    }

    /// Changes the objective coefficient of variable `v`.
    ///
    /// After an objective change the previous basis stays primal
    /// feasible, so [`solve_warm`](Model::solve_warm) resumes primal
    /// phase 2 directly. Non-finite coefficients panic.
    pub fn set_obj(&mut self, v: VarId, obj: f64) {
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.vars[v.index()].obj = obj;
    }

    /// Changes the bounds of variable `v`. Panics on `lb > ub` or NaN.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN in variable bounds");
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        let d = &mut self.vars[v.index()];
        d.lb = lb;
        d.ub = ub;
    }

    /// Name of variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Bounds `[lb, ub]` of variable `v`.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        let d = &self.vars[v.index()];
        (d.lb, d.ub)
    }

    /// Objective coefficient of variable `v`.
    pub fn var_obj(&self, v: VarId) -> f64 {
        self.vars[v.index()].obj
    }

    /// Borrowed view of constraint `c`.
    pub fn constraint(&self, c: ConstraintId) -> ConstraintView<'_> {
        ConstraintView {
            data: &self.constraints[c.index()],
        }
    }

    /// Iterates over all constraints in insertion order.
    pub fn constraints_iter(&self) -> impl Iterator<Item = ConstraintView<'_>> {
        self.constraints.iter().map(|data| ConstraintView { data })
    }

    /// Evaluates the objective at a point (no feasibility check).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Maximum constraint violation of `x` (0 when feasible); also checks
    /// variable bounds. Useful in tests and debug assertions.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        let mut worst: f64 = 0.0;
        for (v, &xi) in self.vars.iter().zip(x) {
            worst = worst.max(v.lb - xi).max(xi - v.ub);
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v as usize]).sum();
            let viol = match c.cmp {
                Cmp::Le => lhs - c.rhs,
                Cmp::Ge => c.rhs - lhs,
                Cmp::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Solves the model with default options.
    ///
    /// # Errors
    ///
    /// [`LpError`] on infeasible/unbounded models or solver failure; see
    /// [`Status`](crate::Status) for the taxonomy.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves the model with explicit solver options.
    ///
    /// # Errors
    ///
    /// [`LpError`] on infeasible/unbounded models or solver failure.
    pub fn solve_with(&self, options: &SolverOptions) -> Result<Solution, LpError> {
        crate::simplex::solve(self, options)
    }

    /// Solves the model starting from an optional basis snapshot and
    /// returns the solution together with the final basis for reuse.
    ///
    /// The intended loop is: solve once cold (`warm = None`), keep the
    /// returned [`Basis`](crate::Basis), perturb the model
    /// ([`set_rhs`](Model::set_rhs) / [`set_obj`](Model::set_obj) /
    /// [`set_bounds`](Model::set_bounds)), and re-solve warm. RHS and
    /// bound changes re-optimize with the dual simplex; objective
    /// changes resume primal phase 2; a snapshot whose shape no longer
    /// matches the model is silently treated as a cold start.
    ///
    /// Warm solves skip presolve (a basis refers to the unreduced
    /// model), so a warm re-solve of an *unperturbed* model may report
    /// more iterations than [`solve`](Model::solve) — it is the
    /// *re-solve after a small change* that gets cheap.
    ///
    /// # Errors
    ///
    /// [`LpError`] on infeasible/unbounded models or solver failure.
    pub fn solve_warm(
        &self,
        warm: Option<&crate::Basis>,
        options: &SolverOptions,
    ) -> Result<(Solution, crate::Basis), LpError> {
        // The conservative retry runs cold: the warm basis itself is the
        // most likely source of a singular factorization.
        crate::simplex::rescue(
            self,
            options,
            || crate::simplex::dual::solve_warm(self, warm, options),
            |retry| crate::simplex::dual::solve_warm(self, None, retry),
        )
    }
}

/// Read-only view of one constraint (terms, operator, right-hand side).
pub struct ConstraintView<'a> {
    data: &'a ConstraintData,
}

impl ConstraintView<'_> {
    /// The `(variable, coefficient)` terms, sorted by variable.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.data.terms.iter().map(|&(v, a)| (VarId(v), a))
    }

    /// The comparison operator.
    pub fn cmp(&self) -> Cmp {
        self.data.cmp
    }

    /// The right-hand side.
    pub fn rhs(&self) -> f64 {
        self.data.rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg("x", 1.0);
        m.add_constraint([(x, 1.0), (x, 2.0), (x, -3.0)], Cmp::Le, 5.0);
        assert_eq!(m.constraints[0].terms.len(), 0, "3 - 3 = 0 dropped");
        m.add_constraint([(x, 1.0), (x, 0.5)], Cmp::Ge, 1.0);
        assert_eq!(m.constraints[1].terms, vec![(0, 1.5)]);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 2.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_panics() {
        let mut m1 = Model::new(Sense::Minimize);
        let mut m2 = Model::new(Sense::Minimize);
        let _ = m1.add_nonneg("x", 0.0);
        let y = {
            let y = m2.add_nonneg("y", 0.0);
            m2.add_nonneg("z", 0.0);
            y
        };
        let _ = y;
        let z = VarId(5);
        m1.add_constraint([(z, 1.0)], Cmp::Le, 0.0);
    }

    #[test]
    fn violation_measure() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 1.5);
        assert!(m.max_violation(&[1.0, 0.5]) < 1e-12);
        assert!((m.max_violation(&[0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert!((m.max_violation(&[2.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn objective_eval() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 3.0);
        let y = m.add_var("y", 0.0, 10.0, -1.0);
        let _ = (x, y);
        assert!((m.objective_at(&[2.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}

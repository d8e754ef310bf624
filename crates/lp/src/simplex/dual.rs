//! Warm-started re-solves and the bounded-variable dual simplex.
//!
//! Re-optimizing a perturbed LP from scratch throws away the basis the
//! previous solve worked hard for. This module keeps it:
//!
//! * [`Basis`] snapshots the final simplex basis of a solve in terms of
//!   the *model* (one status per variable, one per constraint slack), so
//!   it survives scaling and can be handed to a later solve of any model
//!   with the same shape.
//! * [`solve_warm`] installs a snapshot and picks the cheapest road back
//!   to optimality: after a right-hand-side or bound change the old
//!   basis stays **dual feasible**, so a few dual-simplex pivots fix the
//!   primal violations; after an objective change the basis stays
//!   **primal feasible**, so primal phase 2 resumes directly and phase 1
//!   is a no-op. Only when both sides were broken does it fall back to
//!   the ordinary two-phase method — still warm, still cheaper than the
//!   all-slack start.
//!
//! The dual simplex is the textbook bounded-variable variant: pick the
//! most-violated basic variable, price its pivot row, run the dual ratio
//! test (ties broken by the largest pivot for stability, or by smallest
//! index once degeneracy triggers the Bland fallback), and let the
//! entering variable absorb the violation. Dual unboundedness certifies
//! primal infeasibility.
//!
//! Warm solves skip presolve: a basis snapshot refers to the unreduced
//! model, and mapping statuses through row/column eliminations would tie
//! the snapshot to one presolve trace. Scaling is unaffected — statuses
//! are scale-invariant.

use super::{trivial_solve, CStat, ScaledSolution, Simplex, SolverOptions, StepOutcome};
use crate::error::LpError;
use crate::model::Model;
use crate::solution::{Solution, Status};
use crate::standard::StdForm;

/// Status of one column in a [`Basis`] snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
    /// Nonbasic free variable (held at zero).
    Free,
}

/// A simplex basis snapshot, expressed against the model: one status per
/// variable and one per constraint (for the row's slack).
///
/// Obtain one from [`Model::solve_warm`](crate::Model::solve_warm) and
/// feed it back to a later `solve_warm` after perturbing the model. The
/// snapshot is only usable on a model with the same number of variables
/// and constraints; anything else is silently treated as a cold start.
#[derive(Clone, Debug)]
pub struct Basis {
    /// One status per model variable, indexed like
    /// [`VarId::index`](crate::VarId::index).
    pub vars: Vec<BasisStatus>,
    /// One status per model constraint (the slack of that row).
    pub rows: Vec<BasisStatus>,
}

impl Basis {
    /// The all-slack cold-start basis for given model dimensions: every
    /// row's slack basic, every variable nonbasic at a bound.
    pub fn all_slack(num_vars: usize, num_rows: usize) -> Basis {
        Basis {
            vars: vec![BasisStatus::Lower; num_vars],
            rows: vec![BasisStatus::Basic; num_rows],
        }
    }

    /// Grows a snapshot to match a model that gained variables and/or
    /// constraints since the solve that produced it: appended variables
    /// enter nonbasic at their lower bound and appended rows contribute
    /// their slack to the basis, so the grown basis is square again and
    /// [`Model::solve_warm`](crate::Model::solve_warm) can dual-simplex
    /// back to optimality instead of treating the snapshot as a cold
    /// start. Panics if either dimension shrinks — deleting structure
    /// invalidates a basis and needs a cold solve.
    pub fn grow(&mut self, num_vars: usize, num_rows: usize) {
        assert!(
            num_vars >= self.vars.len() && num_rows >= self.rows.len(),
            "Basis::grow cannot shrink a snapshot ({}x{} -> {num_vars}x{num_rows})",
            self.vars.len(),
            self.rows.len(),
        );
        self.vars.resize(num_vars, BasisStatus::Lower);
        self.rows.resize(num_rows, BasisStatus::Basic);
    }

    /// Crashes a basis from a primal point — typically a crash point
    /// such as [`slot_block_crash`](crate::slot_block_crash)'s, the
    /// cold start of time-indexed solves, or a point from a solver
    /// without basis machinery: variables sitting on a bound become
    /// nonbasic there, everything strictly between its bounds becomes
    /// basic, and each row's slack status is read off the row activity.
    /// At a degenerate vertex the result is generally *not* a simplex
    /// basis (basic variables parked on bounds are lost, so it can be
    /// short of basics or singular, and installing it then costs a
    /// repair). Installed via
    /// [`Model::solve_warm`](crate::Model::solve_warm), it starts the
    /// solve at the point instead of the all-slack crash.
    pub fn from_point(model: &Model, x: &[f64]) -> Basis {
        let at = |v: f64, bound: f64| (v - bound).abs() <= 1e-9 * (1.0 + bound.abs());
        let vars = (0..model.num_vars())
            .map(|j| {
                let v = crate::VarId::from_index(j);
                let (lb, ub) = model.var_bounds(v);
                if lb.is_finite() && at(x[j], lb) {
                    BasisStatus::Lower
                } else if ub.is_finite() && at(x[j], ub) {
                    BasisStatus::Upper
                } else {
                    BasisStatus::Basic
                }
            })
            .collect();
        let rows = model
            .constraints_iter()
            .map(|c| {
                let activity: f64 = c.terms().map(|(v, a)| a * x[v.index()]).sum();
                let binding = at(activity, c.rhs());
                match c.cmp() {
                    crate::Cmp::Le if binding => BasisStatus::Lower,
                    crate::Cmp::Ge if binding => BasisStatus::Upper,
                    crate::Cmp::Eq => BasisStatus::Lower,
                    _ => BasisStatus::Basic,
                }
            })
            .collect();
        Basis { vars, rows }
    }

    /// Number of `Basic` entries across variables and rows.
    pub fn num_basic(&self) -> usize {
        self.vars
            .iter()
            .chain(self.rows.iter())
            .filter(|&&s| s == BasisStatus::Basic)
            .count()
    }
}

/// Entry point used by [`Model::solve_warm`].
pub fn solve_warm(
    model: &Model,
    warm: Option<&Basis>,
    options: &SolverOptions,
) -> Result<(Solution, Basis), LpError> {
    let sf = StdForm::build(model, options.scale);
    if sf.m == 0 {
        let xs = trivial_solve(&sf)?;
        let vars = (0..sf.n_struct)
            .map(|j| {
                if sf.lb[j].is_finite() && xs.x[j] == sf.lb[j] {
                    BasisStatus::Lower
                } else if sf.ub[j].is_finite() && xs.x[j] == sf.ub[j] {
                    BasisStatus::Upper
                } else {
                    BasisStatus::Free
                }
            })
            .collect();
        let x = sf.unscale_solution(&xs.x);
        let objective = model.objective_at(&x);
        return Ok((
            Solution {
                status: Status::Optimal,
                objective,
                x,
                duals: Some(Vec::new()),
                iterations: 0,
                refactorizations: 0,
                stats: Default::default(),
            },
            Basis {
                vars,
                rows: Vec::new(),
            },
        ));
    }

    let mut s = Simplex::new(&sf, options);
    let warm_usable = warm.is_some_and(|b| b.vars.len() == sf.n_struct && b.rows.len() == sf.m);
    let scaled = if warm_usable {
        s.install_basis(warm.expect("checked above"));
        s.run_warm()?
    } else {
        s.run()?
    };
    let basis = s.snapshot_basis();
    let x = sf.unscale_solution(&scaled.x);
    let duals = Some(sf.unscale_duals(&scaled.y, model.sense));
    let objective = model.objective_at(&x);
    Ok((
        Solution {
            status: Status::Optimal,
            objective,
            x,
            duals,
            iterations: scaled.iterations,
            refactorizations: scaled.refactorizations,
            stats: scaled.stats(),
        },
        basis,
    ))
}

/// The dual simplex's leaving row: basis position, violation, and
/// whether the basic lies above its upper bound.
#[derive(Clone, Copy)]
struct LeavingRow {
    pos: usize,
    viol: f64,
    to_upper: bool,
}

impl Simplex<'_> {
    /// Overwrites the all-slack crash basis with a snapshot, sanitizing
    /// statuses against bounds and repairing the basic-column count so a
    /// square basis always comes out.
    pub(super) fn install_basis(&mut self, b: &Basis) {
        let n_struct = self.sf.n_struct;
        let m = self.sf.m;
        let mut basic_cols: Vec<usize> = Vec::with_capacity(m);
        for j in 0..self.sf.n {
            let want = if j < n_struct {
                b.vars[j]
            } else {
                b.rows[j - n_struct]
            };
            self.stat[j] = match want {
                BasisStatus::Basic => {
                    basic_cols.push(j);
                    CStat::Basic
                }
                BasisStatus::Lower => CStat::Lower,
                BasisStatus::Upper => CStat::Upper,
                BasisStatus::Free => CStat::Free,
            };
        }
        // Sanitize nonbasic statuses whose bound does not exist (the
        // snapshot may come from a model with different bounds).
        for j in 0..self.sf.n {
            let (lb, ub) = (self.sf.lb[j], self.sf.ub[j]);
            self.stat[j] = match self.stat[j] {
                CStat::Lower if !lb.is_finite() => {
                    if ub.is_finite() {
                        CStat::Upper
                    } else {
                        CStat::Free
                    }
                }
                CStat::Upper if !ub.is_finite() => {
                    if lb.is_finite() {
                        CStat::Lower
                    } else {
                        CStat::Free
                    }
                }
                CStat::Free if lb.is_finite() => CStat::Lower,
                CStat::Free if ub.is_finite() => CStat::Upper,
                other => other,
            };
        }
        // Cardinality repair: a square basis needs exactly m columns.
        while basic_cols.len() > m {
            let j = basic_cols.pop().expect("nonempty");
            self.stat[j] = if self.sf.lb[j].is_finite() {
                CStat::Lower
            } else if self.sf.ub[j].is_finite() {
                CStat::Upper
            } else {
                CStat::Free
            };
        }
        if basic_cols.len() < m {
            for r in 0..m {
                if basic_cols.len() == m {
                    break;
                }
                let sj = n_struct + r;
                if self.stat[sj] != CStat::Basic {
                    self.stat[sj] = CStat::Basic;
                    basic_cols.push(sj);
                }
            }
        }
        debug_assert_eq!(basic_cols.len(), m);
        self.fresh = None;
        self.basis.clear();
        self.basis.extend_from_slice(&basic_cols);
        self.pos_of.iter_mut().for_each(|p| *p = u32::MAX);
        for (i, &j) in self.basis.iter().enumerate() {
            self.pos_of[j] = i as u32;
        }
        // Nonbasic columns rest at their snapshot bound.
        for j in 0..self.sf.n {
            self.x[j] = match self.stat[j] {
                CStat::Basic => 0.0, // recomputed by refactor
                CStat::Lower => self.sf.lb[j],
                CStat::Upper => self.sf.ub[j],
                CStat::Free => 0.0,
            };
        }
    }

    /// Exports the current basis as a model-space snapshot.
    pub(super) fn snapshot_basis(&self) -> Basis {
        let to_pub = |s: CStat| match s {
            CStat::Basic => BasisStatus::Basic,
            CStat::Lower => BasisStatus::Lower,
            CStat::Upper => BasisStatus::Upper,
            CStat::Free => BasisStatus::Free,
        };
        Basis {
            vars: (0..self.sf.n_struct)
                .map(|j| to_pub(self.stat[j]))
                .collect(),
            rows: (self.sf.n_struct..self.sf.n)
                .map(|j| to_pub(self.stat[j]))
                .collect(),
        }
    }

    /// Warm-started optimization: dual simplex when the installed basis
    /// is (or can be flipped) dual feasible, the ordinary primal phases
    /// otherwise.
    pub(super) fn run_warm(&mut self) -> Result<ScaledSolution, LpError> {
        // Factorize the installed basis (repairing singularity) and get
        // basic values plus reduced costs.
        self.refactor_and_recompute(false)?;

        if !self.make_dual_feasible() {
            // Dual-infeasible start (objective changed, or a foreign
            // snapshot). The primal phases still profit from the basis.
            return self.run();
        }
        // Bound flips moved nonbasic values; refresh basic values (a
        // no-op when nothing flipped).
        self.refresh(false)?;

        // ---- Dual simplex until primal feasible ----
        // Stall guard: a snapshot can be so far from the new optimum
        // that dual pivoting degenerates into a grind (observed on
        // resolves that double the model size). Past a budget linear in
        // the row count, cut losses and restart cold from the all-slack
        // basis — total work then stays within budget + one cold solve,
        // so a pathological warm start can never be much *worse* than
        // cold.
        let start_iterations = self.iterations;
        let dual_budget = 3 * self.sf.m + 1000;
        let mut retried = false;
        loop {
            // One pass over the infeasibility list decides the loop guard
            // and picks the leaving row; only a refactorization (new basic
            // values, reset row weights) makes the pick stale.
            let (violated, mut leave) = self.leaving_row();
            if !violated {
                break;
            }
            if self.iterations >= self.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            if self.iterations - start_iterations > dual_budget {
                self.reset_to_all_slack();
                return self.run();
            }
            if self.maybe_refactor(false)? {
                leave = self.leaving_row().1;
            }
            match self.dual_step(leave)? {
                StepOutcome::Moved => {
                    retried = false;
                }
                StepOutcome::OptimalOrFeasible => break,
                StepOutcome::Unbounded => {
                    // Dual unbounded certifies primal infeasibility —
                    // but rule out stale-factorization drift first.
                    if !retried {
                        retried = true;
                        self.refresh(false)?;
                        continue;
                    }
                    return Err(LpError::Infeasible);
                }
            }
        }

        // ---- Primal phase-2 polish ----
        // Recompute duals from scratch (kills incremental drift), then
        // let the primal certify optimality; with exact dual feasibility
        // it exits without pivoting.
        self.refresh(false)?;
        loop {
            if self.iterations >= self.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            self.maybe_refactor(false)?;
            match self.phase2_step()? {
                StepOutcome::Moved => {}
                StepOutcome::OptimalOrFeasible => break,
                StepOutcome::Unbounded => return Err(LpError::Unbounded),
            }
        }
        self.refresh(false)?;
        let y = self.scaled_duals();
        Ok(self.finish(y))
    }

    /// Restores dual feasibility by flipping nonbasic variables whose
    /// reduced cost points past their current bound onto the opposite
    /// (finite) bound. Returns `false` when some violation cannot be
    /// flipped away (infinite opposite bound, or a free variable with a
    /// nonzero reduced cost).
    fn make_dual_feasible(&mut self) -> bool {
        for j in 0..self.sf.n {
            if self.stat[j] == CStat::Basic {
                continue;
            }
            let tol = self.opt.opt_tol * (1.0 + self.sf.c[j].abs()) + 1e-9;
            match self.stat[j] {
                CStat::Lower if self.z[j] < -tol => {
                    if self.sf.ub[j].is_finite() {
                        self.stat[j] = CStat::Upper;
                        self.x[j] = self.sf.ub[j];
                        self.fresh = None;
                    } else {
                        return false;
                    }
                }
                CStat::Upper if self.z[j] > tol => {
                    if self.sf.lb[j].is_finite() {
                        self.stat[j] = CStat::Lower;
                        self.x[j] = self.sf.lb[j];
                        self.fresh = None;
                    } else {
                        return false;
                    }
                }
                CStat::Free if self.z[j].abs() > tol => return false,
                _ => {}
            }
        }
        true
    }

    /// One pass over the infeasibility list for the dual simplex. Drops
    /// the entries that are feasible again (no sorting) and returns
    /// whether some basic lies past a bound by more than `feas_tol`,
    /// together with the leaving row: the most-violated basic, scaled by
    /// the dual row weights (Devex proxy, or exact dual steepest edge
    /// under `Pricing::SteepestEdge`) unless Bland's rule is on, ties to
    /// the lowest position — the row a scan in position order would
    /// pick.
    fn leaving_row(&mut self) -> (bool, Option<LeavingRow>) {
        let feas_tol = self.opt.feas_tol;
        let use_devex = !self.bland;
        let mut violated = false;
        let mut best: Option<(f64, LeavingRow)> = None;
        self.retain_infeasible(|s, i| {
            let j = s.basis[i];
            let v = s.x[j];
            let above = v - s.sf.ub[j];
            let below = s.sf.lb[j] - v;
            violated |= above > feas_tol || below > feas_tol;
            let (viol, to_upper) = if above >= below {
                (above, true)
            } else {
                (below, false)
            };
            if viol <= feas_tol {
                return;
            }
            let score = if use_devex {
                viol * viol / s.dual_w[i]
            } else {
                viol
            };
            let better = match best {
                None => score > 0.0,
                Some((s, b)) => score > s || (score == s && i < b.pos),
            };
            if better {
                best = Some((
                    score,
                    LeavingRow {
                        pos: i,
                        viol,
                        to_upper,
                    },
                ));
            }
        });
        (violated, best.map(|(_, row)| row))
    }

    /// One dual-simplex pivot with a bound-flipping ratio test (BFRT),
    /// leaving on the row [`leaving_row`](Self::leaving_row) picked (none:
    /// primal feasible). `Unbounded` means the *dual* is unbounded, i.e.
    /// the primal is infeasible.
    fn dual_step(&mut self, leave: Option<LeavingRow>) -> Result<StepOutcome, LpError> {
        let feas_tol = self.opt.feas_tol;

        // 1. Leaving row, chosen by the caller.
        let Some(LeavingRow {
            pos: r,
            viol: worst,
            to_upper,
        }) = leave
        else {
            return Ok(StepOutcome::OptimalOrFeasible);
        };
        self.iterations += 1;
        let jl = self.basis[r];
        let target = if to_upper {
            self.sf.ub[jl]
        } else {
            self.sf.lb[jl]
        };
        // `s`: +1 when the leaving variable sits above its upper bound
        // (x_Br must decrease), -1 when below its lower bound.
        let s = if to_upper { 1.0 } else { -1.0 };

        // 2. Pivot row: rho = B^{-T} e_r (hyper-sparse), alpha_j =
        // rho · a_j via the CSR rows of rho's pattern.
        let mut rho = std::mem::take(&mut self.rho_work);
        self.facto.btran_unit(r, &mut rho);
        self.accumulate_pivot_row(&rho);
        self.rho_work = rho;

        // 3. Bound-flipping dual ratio test. Collect every eligible
        // breakpoint `(ratio, |alpha|, col)`; if none remains, the
        // violated row certifies primal infeasibility. Fixed columns
        // (lb == ub) cannot absorb primal movement and are excluded by
        // `dual_ratio`.
        let touched = std::mem::take(&mut self.alpha_touched);
        let mut bps = std::mem::take(&mut self.breakpoints);
        bps.clear();
        for &jcol in &touched {
            let j = jcol as usize;
            if let Some(ratio) = self.dual_ratio(j, s) {
                bps.push((ratio, self.alpha_buf[j].abs(), jcol));
            }
        }
        if bps.is_empty() {
            for &jcol in &touched {
                self.alpha_buf[jcol as usize] = 0.0;
            }
            self.alpha_touched = touched;
            self.breakpoints = bps;
            return Ok(StepOutcome::Unbounded);
        }
        self.fresh = None;

        // Walk breakpoints in ratio order. A boxed column whose capacity
        // |alpha|·(ub−lb) cannot absorb the remaining violation is
        // *flipped* to its opposite bound instead of entering — many
        // breakpoints collapse into one pivot, which is what breaks the
        // degenerate churn on warm re-solves whose appended columns all
        // sit at ratio zero. The entering column is the breakpoint where
        // the violation finally crosses zero. Bland mode keeps the plain
        // shortest-ratio/smallest-index rule (termination guarantee).
        bps.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut cross = 0usize;
        if !self.bland {
            let mut delta = worst;
            while cross + 1 < bps.len() {
                let (_, a, jcol) = bps[cross];
                let j = jcol as usize;
                let span = self.sf.ub[j] - self.sf.lb[j];
                if !span.is_finite() {
                    break;
                }
                let cap = a * span;
                if delta - cap <= feas_tol {
                    break;
                }
                delta -= cap;
                cross += 1;
            }
        }
        // Entering choice at the crossing: stability wants the biggest
        // pivot among near-minimal remaining ratios; Bland mode wants
        // the smallest index.
        let cross_ratio = bps[cross].0;
        let tie = self.opt.opt_tol * (1.0 + cross_ratio.abs()) + 1e-12;
        let mut q = usize::MAX;
        let mut best_abs = 0.0f64;
        for &(ratio, a, jcol) in &bps[cross..] {
            if ratio > cross_ratio + tie {
                break;
            }
            let j = jcol as usize;
            if self.bland {
                if q == usize::MAX || j < q {
                    q = j;
                }
            } else if a > best_abs {
                best_abs = a;
                q = j;
            }
        }
        debug_assert!(q != usize::MAX);
        let alpha_q = self.alpha_buf[q];
        let nflips = cross;

        // 4. Apply the bound flips: each flipped column jumps to its
        // opposite bound; the basic values absorb the combined movement
        // through ONE extra FTRAN of the accumulated flip column.
        if nflips > 0 {
            self.flip_pairs.clear();
            for &(_, _, jcol) in &bps[..nflips] {
                let j = jcol as usize;
                if j == q {
                    continue; // tie band can overlap the flip prefix
                }
                let (dx, new_stat, new_x) = match self.stat[j] {
                    CStat::Lower => {
                        let span = self.sf.ub[j] - self.sf.lb[j];
                        (span, CStat::Upper, self.sf.ub[j])
                    }
                    CStat::Upper => {
                        let span = self.sf.ub[j] - self.sf.lb[j];
                        (-span, CStat::Lower, self.sf.lb[j])
                    }
                    _ => continue, // free columns have no opposite bound
                };
                self.stat[j] = new_stat;
                self.x[j] = new_x;
                for (row, v) in self.sf.a.col(j) {
                    self.flip_pairs.push((row, v * dx));
                }
            }
            if !self.flip_pairs.is_empty() {
                self.flip_pairs.sort_unstable_by_key(|&(row, _)| row);
                let mut fv = std::mem::take(&mut self.flip_work);
                fv.clear_to_dim(self.sf.m);
                for &(row, v) in &self.flip_pairs {
                    let ri = row as usize;
                    if fv.vals[ri] == 0.0 && fv.pattern.last().is_none_or(|&p| p != row) {
                        fv.pattern.push(row);
                    }
                    fv.vals[ri] += v;
                }
                self.facto.ftran(&mut fv);
                for (i, v) in fv.iter() {
                    if v != 0.0 {
                        let j = self.basis[i as usize];
                        self.x[j] -= v;
                        self.note_basic_moved(i as usize);
                    }
                }
                fv.clear();
                self.flip_work = fv;
            }
        }

        // 5. Dual update across the pivot row. Flipped columns cross
        // their breakpoint, so the same update moves their reduced cost
        // to the sign matching the new bound — dual feasibility holds.
        let theta_d = self.z[q] / alpha_q;
        for &jcol in &touched {
            let j = jcol as usize;
            let alpha = self.alpha_buf[j];
            self.alpha_buf[j] = 0.0;
            if j == q {
                continue;
            }
            self.z[j] -= theta_d * alpha;
        }
        self.alpha_touched = touched;
        self.breakpoints = bps;

        // 6. Primal update along the entering column (hyper-sparse).
        let mut d = std::mem::take(&mut self.d_work);
        self.facto.ftran_col(&self.sf.a, q, &mut d);
        let dr = d.vals[r];
        if dr.abs() <= self.opt.pivot_tol || !theta_d.is_finite() {
            self.d_work = d;
            return Err(LpError::NumericalFailure(format!(
                "dual pivot collapsed: |d_r| = {:.3e}",
                dr.abs()
            )));
        }
        let t = (self.x[jl] - target) / dr;
        for (i, di) in d.iter() {
            if di != 0.0 {
                let j = self.basis[i as usize];
                self.x[j] -= t * di;
                if i as usize != r {
                    self.note_basic_moved(i as usize);
                }
            }
        }
        self.x[q] += t;
        self.x[jl] = target;

        // 7. Basis bookkeeping + dual row weight update (FT spike or eta).
        let updated = self.facto.push_update(r, &d, 1e-14);
        if self.opt.pricing == super::Pricing::SteepestEdge {
            // Exact dual steepest edge (w_i = ‖B⁻ᵀe_i‖²): the leaving
            // row's weight is recomputed from rho, and the touched rows
            // follow the Forrest–Goldfarb recurrence via tau = B⁻¹rho.
            let mut wr = 0.0;
            for (_, rv) in self.rho_work.iter() {
                wr += rv * rv;
            }
            let mut tau = std::mem::take(&mut self.flip_work);
            tau.clear_to_dim(self.sf.m);
            for (i, rv) in self.rho_work.iter() {
                if rv != 0.0 {
                    tau.vals[i as usize] = rv;
                    tau.pattern.push(i);
                }
            }
            self.facto.ftran(&mut tau);
            for (i, di) in d.iter() {
                let i = i as usize;
                if i != r {
                    let ratio = di / dr;
                    let nw = self.dual_w[i] - 2.0 * ratio * tau.vals[i] + ratio * ratio * wr;
                    self.dual_w[i] = nw.max(ratio * ratio).max(1e-10);
                }
            }
            tau.clear();
            self.flip_work = tau;
            self.dual_w[r] = (wr / (dr * dr)).max(1e-10);
        } else {
            let wr = self.dual_w[r];
            for (i, di) in d.iter() {
                let i = i as usize;
                if i != r {
                    let cand = (di / dr) * (di / dr) * wr;
                    if cand > self.dual_w[i] {
                        self.dual_w[i] = cand;
                    }
                }
            }
            self.dual_w[r] = (wr / (dr * dr)).max(1.0);
        }
        self.stat[jl] = if to_upper { CStat::Upper } else { CStat::Lower };
        self.pos_of[jl] = u32::MAX;
        self.basis[r] = q;
        self.pos_of[q] = r as u32;
        self.stat[q] = CStat::Basic;
        self.z[jl] = -theta_d;
        self.z[q] = 0.0;
        self.note_basic_moved(r);
        self.d_work = d;
        if !updated {
            // FT declined the spike: the factorization still encodes the
            // old basis. Rebuild from the new basis (also refreshes x_B
            // and reduced costs, killing any drift from this pivot).
            self.refactor_and_recompute(false)?;
        }

        // Dual degeneracy tracking (theta_d ~ 0 makes no dual progress);
        // bound flips move the primal point, so a flipping iteration
        // counts as progress even at a degenerate breakpoint.
        if nflips > 0 {
            self.degen_streak = 0;
            self.bland = false;
        } else {
            self.note_progress(theta_d.abs());
        }
        Ok(StepOutcome::Moved)
    }

    /// Dual ratio of nonbasic column `j` for leaving-direction `s`, or
    /// `None` when `j` is ineligible to enter.
    #[inline]
    fn dual_ratio(&self, j: usize, s: f64) -> Option<f64> {
        if self.stat[j] == CStat::Basic {
            return None;
        }
        let (lb, ub) = (self.sf.lb[j], self.sf.ub[j]);
        if lb == ub {
            return None; // fixed: cannot absorb primal movement
        }
        let ar = s * self.alpha_buf[j];
        let eligible = match self.stat[j] {
            CStat::Lower => ar > self.opt.pivot_tol,
            CStat::Upper => ar < -self.opt.pivot_tol,
            CStat::Free => ar.abs() > self.opt.pivot_tol,
            CStat::Basic => false,
        };
        if !eligible {
            return None;
        }
        Some((self.z[j] / ar).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Sense};

    fn production_lp() -> (
        Model,
        crate::model::ConstraintId,
        crate::model::ConstraintId,
    ) {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 3.0);
        let y = m.add_nonneg("y", 5.0);
        let c0 = m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        let c2 = m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        (m, c0, c2)
    }

    #[test]
    fn cold_warm_solve_matches_plain_solve() {
        let (m, _, _) = production_lp();
        let opts = SolverOptions::default();
        let (sol, basis) = m.solve_warm(None, &opts).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-7);
        assert_eq!(basis.vars.len(), 2);
        assert_eq!(basis.rows.len(), 3);
        assert_eq!(basis.num_basic(), 3);
    }

    #[test]
    fn rhs_tightening_reoptimizes_via_dual_simplex() {
        let (mut m, _, c2) = production_lp();
        let opts = SolverOptions::default();
        let (_, basis) = m.solve_warm(None, &opts).unwrap();
        // Tighten the binding row: optimum moves to x=2/3·? — recompute
        // via a cold solve and compare.
        m.set_rhs(c2, 15.0);
        let (warm, _) = m.solve_warm(Some(&basis), &opts).unwrap();
        let cold = m.solve().unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} cold {}",
            warm.objective,
            cold.objective
        );
        assert!(m.max_violation(&warm.x) < 1e-7);
    }

    #[test]
    fn rhs_relaxation_reoptimizes() {
        let (mut m, c0, c2) = production_lp();
        let opts = SolverOptions::default();
        let (_, basis) = m.solve_warm(None, &opts).unwrap();
        m.set_rhs(c0, 6.0);
        m.set_rhs(c2, 24.0);
        let (warm, _) = m.solve_warm(Some(&basis), &opts).unwrap();
        let cold = m.solve().unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()));
    }

    #[test]
    fn objective_change_falls_back_to_primal_and_matches() {
        let (mut m, _, _) = production_lp();
        let opts = SolverOptions::default();
        let (_, basis) = m.solve_warm(None, &opts).unwrap();
        let x = crate::model::VarId::from_index(0);
        m.set_obj(x, 10.0); // x becomes the star column
        let (warm, _) = m.solve_warm(Some(&basis), &opts).unwrap();
        let cold = m.solve().unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-7);
    }

    #[test]
    fn infeasible_after_rhs_change_is_detected() {
        // x + y = rhs with x, y in [0, 1]; rhs 1.5 feasible, 10 not.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 2.0);
        let c = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 1.5);
        let opts = SolverOptions::default();
        let (_, basis) = m.solve_warm(None, &opts).unwrap();
        m.set_rhs(c, 10.0);
        assert_eq!(
            m.solve_warm(Some(&basis), &opts).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn mismatched_snapshot_is_treated_as_cold() {
        let (m, _, _) = production_lp();
        let opts = SolverOptions::default();
        let bogus = Basis::all_slack(7, 1); // wrong shape
        let (sol, _) = m.solve_warm(Some(&bogus), &opts).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-7);
    }

    #[test]
    fn bound_change_handled_warm() {
        let (mut m, _, _) = production_lp();
        let opts = SolverOptions::default();
        let (_, basis) = m.solve_warm(None, &opts).unwrap();
        let x = crate::model::VarId::from_index(0);
        m.set_bounds(x, 0.0, 1.0); // x was 2 at the optimum
        let (warm, _) = m.solve_warm(Some(&basis), &opts).unwrap();
        let cold = m.solve().unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-7);
        assert!(warm.x[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn warm_resolve_uses_fewer_iterations_on_small_perturbation() {
        // A chain of coupled rows; nudging one RHS should re-optimize in
        // a handful of dual pivots, far below the cold iteration count.
        let n = 40;
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = (0..n)
            .map(|j| m.add_var(format!("x{j}"), 0.0, 10.0, 1.0 + (j % 7) as f64))
            .collect();
        let mut rows = Vec::new();
        for i in 0..n - 1 {
            rows.push(m.add_constraint(
                [(xs[i], 1.0), (xs[i + 1], 1.0)],
                Cmp::Ge,
                3.0 + (i % 5) as f64,
            ));
        }
        let opts = SolverOptions::default();
        let (cold_sol, basis) = m.solve_warm(None, &opts).unwrap();
        m.set_rhs(rows[n / 2], 4.2);
        let (warm, _) = m.solve_warm(Some(&basis), &opts).unwrap();
        let cold = m.solve_warm(None, &opts).unwrap().0;
        assert!((warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()));
        assert!(
            warm.iterations <= cold_sol.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold_sol.iterations
        );
    }

    #[test]
    fn appended_column_and_row_resolve_warm() {
        // Solve, then append a new variable stitched into an existing
        // row plus a brand-new row, grow the basis, and re-solve warm.
        let (mut m, _, c2) = production_lp();
        let opts = SolverOptions::default();
        let (_, mut basis) = m.solve_warm(None, &opts).unwrap();
        // New profitable column z sharing row c2's capacity.
        let z = m.add_var("z", 0.0, 5.0, 4.0);
        m.add_term(c2, z, 2.0);
        let x = crate::model::VarId::from_index(0);
        m.add_constraint([(x, 1.0), (z, 1.0)], Cmp::Le, 5.0);
        basis.grow(m.num_vars(), m.num_constraints());
        let (warm, _) = m.solve_warm(Some(&basis), &opts).unwrap();
        let cold = m.solve().unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
            "warm {} cold {}",
            warm.objective,
            cold.objective
        );
        assert!(m.max_violation(&warm.x) < 1e-6);
        assert!(warm.refactorizations >= 1);
    }

    #[test]
    fn add_term_merges_and_cancels() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        let c = m.add_constraint([(x, 1.0)], Cmp::Ge, 1.0);
        m.add_term(c, y, 2.0);
        m.add_term(c, x, -1.0); // cancels the x term entirely
        let view = m.constraint(c);
        let terms: Vec<_> = view.terms().collect();
        assert_eq!(terms, vec![(y, 2.0)]);
        // y >= 0.5 is now the binding content; x is free of the row.
        let sol = m.solve().unwrap();
        assert!((sol.value(y) - 0.5).abs() < 1e-7);
        assert!(sol.value(x).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn basis_grow_rejects_shrinking() {
        let mut b = Basis::all_slack(3, 2);
        b.grow(2, 2);
    }

    #[test]
    fn repeated_warm_resolves_stay_exact() {
        // Sweep an RHS across a range, warm-starting each step; every
        // step must match a cold solve.
        let (mut m, _, c2) = production_lp();
        let opts = SolverOptions::default();
        let (_, mut basis) = m.solve_warm(None, &opts).unwrap();
        for k in 0..12 {
            let rhs = 10.0 + k as f64;
            m.set_rhs(c2, rhs);
            let (warm, nb) = m.solve_warm(Some(&basis), &opts).unwrap();
            basis = nb;
            let cold = m.solve().unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
                "rhs {rhs}: warm {} cold {}",
                warm.objective,
                cold.objective
            );
        }
    }
}

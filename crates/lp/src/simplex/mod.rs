//! The bounded-variable two-phase revised simplex method.
//!
//! Phase 1 starts from the all-slack basis and minimizes the sum of primal
//! infeasibilities of basic variables (composite objective, recomputed
//! every iteration — no artificial columns). Phase 2 minimizes the real
//! objective with Devex pricing and incrementally-updated reduced costs.
//! Degeneracy is handled by falling back to Bland's rule after a streak of
//! degenerate pivots, which restores a termination guarantee.
//!
//! Variable bounds are implicit: a nonbasic variable rests at its lower or
//! upper bound (or at zero if free) and may *bound-flip* without a basis
//! change when the ratio test is won by the entering variable's opposite
//! bound — essential for time-indexed coflow LPs where every `x_j^i(t)`
//! has bounds `[0, 1]`.

pub mod dual;
mod lu;

use crate::error::LpError;
use crate::model::Model;
use crate::presolve;
use crate::solution::{Solution, Status};
use crate::sparse::WorkVec;
use crate::standard::StdForm;
use lu::{Factorization, RefactorCause, Singular};

/// Entering-variable pricing rule. Also selects how the dual simplex
/// keeps its leaving-row weights: `Devex` maintains steepest-edge-style
/// approximations, `SteepestEdge` exact-updates them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pricing {
    /// Devex reference weights (default): approximates steepest edge,
    /// far fewer iterations on degenerate time-indexed LPs.
    Devex,
    /// Projected steepest edge: reference weights initialized at each
    /// refactorization and kept current by the exact Forrest–Goldfarb
    /// recurrences, fed by the FTRAN/BTRAN vectors each pivot already
    /// computes (plus one extra solve per pivot). Fewer pivots than
    /// Devex on the tall time-indexed models; a little more per-pivot
    /// work.
    SteepestEdge,
}

/// Tuning knobs for [`Model::solve_with`].
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Maximum simplex iterations across both phases; `0` chooses
    /// `max(20_000, 40·(m+n))` automatically.
    pub max_iterations: usize,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Reduced-cost (dual feasibility) tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude in the ratio test and LU.
    pub pivot_tol: f64,
    /// Refactorize after this many basis updates.
    pub refactor_interval: usize,
    /// Apply geometric-mean equilibration scaling.
    pub scale: bool,
    /// Run presolve reductions first.
    pub presolve: bool,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: usize,
    /// Entering-variable pricing rule.
    pub pricing: Pricing,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 0,
            feas_tol: 1e-7,
            opt_tol: 1e-9,
            pivot_tol: 1e-8,
            refactor_interval: 100,
            scale: true,
            presolve: true,
            bland_trigger: 500,
            pricing: Pricing::Devex,
        }
    }
}

/// Column status in the bounded-variable simplex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CStat {
    Basic,
    /// Nonbasic at lower bound.
    Lower,
    /// Nonbasic at upper bound.
    Upper,
    /// Nonbasic free variable, held at zero.
    Free,
}

/// Entry point used by [`Model::solve_with`]: one cold solve (presolve,
/// scaling, two-phase simplex) inside the [`rescue`] ladder.
pub fn solve(model: &Model, options: &SolverOptions) -> Result<Solution, LpError> {
    rescue(
        model,
        options,
        || solve_attempt(model, options),
        |retry| solve_attempt(model, retry),
    )
}

/// What a rescued solve hands back: a [`Solution`], possibly with more.
pub(crate) trait Rescued: Sized {
    /// The solution, for the finiteness check and the rescue counters.
    fn solution(&mut self) -> &mut Solution;
    /// Packages a solution of the dense tableau oracle.
    fn from_dense(model: &Model, sol: Solution) -> Self;
}

impl Rescued for Solution {
    fn solution(&mut self) -> &mut Solution {
        self
    }

    fn from_dense(_model: &Model, sol: Solution) -> Self {
        sol
    }
}

impl Rescued for (Solution, dual::Basis) {
    fn solution(&mut self) -> &mut Solution {
        &mut self.0
    }

    /// The tableau has no basis machinery: the snapshot is crashed from
    /// the point.
    fn from_dense(model: &Model, sol: Solution) -> Self {
        let basis = dual::Basis::from_point(model, &sol.x);
        (sol, basis)
    }
}

/// The numerical-distress rescue ladder around one sparse solve: a
/// non-finite solution or an unrecoverable factorization failure of
/// `first` triggers one `retry` with [`conservative_options`], and if
/// that also distresses, the dense tableau oracle takes the solve.
/// Every rescue is recorded in [`SolveStats::distress_retries`] /
/// [`SolveStats::dense_fallbacks`]; only when the whole ladder fails
/// does the caller see a typed [`LpError::NumericalDistress`].
///
/// [`SolveStats::distress_retries`]: crate::solution::SolveStats::distress_retries
/// [`SolveStats::dense_fallbacks`]: crate::solution::SolveStats::dense_fallbacks
pub(crate) fn rescue<T: Rescued>(
    model: &Model,
    options: &SolverOptions,
    first: impl FnOnce() -> Result<T, LpError>,
    retry: impl FnOnce(&SolverOptions) -> Result<T, LpError>,
) -> Result<T, LpError> {
    let finite = |mut t: T| check_finite(t.solution()).map(|()| t);
    match first().and_then(finite) {
        Err(e) if is_distress(&e) => {}
        done => return done,
    }
    match retry(&conservative_options(options)).and_then(finite) {
        Ok(mut t) => {
            t.solution().stats.distress_retries += 1;
            return Ok(t);
        }
        Err(e) if is_distress(&e) => {}
        Err(e) => return Err(e),
    }
    match crate::dense::solve(model).and_then(|sol| check_finite(&sol).map(|()| sol)) {
        Ok(mut sol) => {
            sol.stats.distress_retries += 1;
            sol.stats.dense_fallbacks += 1;
            Ok(T::from_dense(model, sol))
        }
        Err(e) => Err(into_distress(e)),
    }
}

/// Is this error a numerical symptom the rescue ladder can act on?
/// (Infeasible / Unbounded / IterationLimit are *answers*, not
/// distress, and propagate untouched.)
fn is_distress(e: &LpError) -> bool {
    matches!(
        e,
        LpError::NumericalFailure(_) | LpError::NumericalDistress { .. }
    )
}

/// Rejects solutions carrying NaN/±∞ in the objective or primal point.
fn check_finite(sol: &Solution) -> Result<(), LpError> {
    if !sol.objective.is_finite() {
        return Err(LpError::NumericalDistress {
            kind: crate::DistressKind::NonFiniteObjective,
            detail: format!("objective came back {}", sol.objective),
        });
    }
    if let Some(j) = sol.x.iter().position(|v| !v.is_finite()) {
        return Err(LpError::NumericalDistress {
            kind: crate::DistressKind::NonFinitePrimal,
            detail: format!("x[{j}] came back {}", sol.x[j]),
        });
    }
    Ok(())
}

/// The retry configuration of the rescue ladder: a refactorization
/// after every pivot (no update file at all, the ground truth the
/// differential tests compare Forrest–Tomlin against), Devex pricing,
/// and a looser pivot tolerance so near-singular pivots are declined
/// rather than taken.
fn conservative_options(options: &SolverOptions) -> SolverOptions {
    SolverOptions {
        refactor_interval: 1,
        pivot_tol: options.pivot_tol.max(1e-7),
        pricing: Pricing::Devex,
        ..options.clone()
    }
}

/// Terminal conversion once the whole ladder is exhausted: untyped
/// `NumericalFailure` messages become the typed distress the service
/// layer keys its degrade ladder on.
fn into_distress(e: LpError) -> LpError {
    match e {
        LpError::NumericalFailure(msg) => {
            let kind = if msg.contains("unstable") || msg.contains("update") {
                crate::DistressKind::UnstableUpdate
            } else {
                crate::DistressKind::SingularBasis
            };
            LpError::NumericalDistress { kind, detail: msg }
        }
        other => other,
    }
}

/// One sparse-engine attempt, no rescue.
fn solve_attempt(model: &Model, options: &SolverOptions) -> Result<Solution, LpError> {
    // Presolve (also decides trivial infeasibility/unboundedness).
    let pre = if options.presolve {
        Some(presolve::presolve(model)?)
    } else {
        None
    };
    let work_model: &Model = pre.as_ref().map_or(model, |p| &p.reduced);

    let sf = StdForm::build(work_model, options.scale);
    let x_scaled = if sf.m == 0 {
        // No constraints survive: every variable sits at its favored
        // bound. (With presolve on, the reduced model has no variables
        // either; without presolve this resolves columns directly.)
        trivial_solve(&sf)?
    } else {
        let mut s = Simplex::new(&sf, options);
        s.run()?
    };

    let x_reduced = sf.unscale_solution(&x_scaled.x);
    // Duals map 1:1 only when no presolve transformed the rows.
    let duals = if pre.is_none() {
        Some(sf.unscale_duals(&x_scaled.y, model.sense))
    } else {
        None
    };
    let x_full = match &pre {
        Some(p) => presolve::postsolve(p, &x_reduced),
        None => x_reduced,
    };
    let objective = model.objective_at(&x_full);
    Ok(Solution {
        status: Status::Optimal,
        objective,
        x: x_full,
        duals,
        iterations: x_scaled.iterations,
        refactorizations: x_scaled.refactorizations,
        stats: x_scaled.stats(),
    })
}

struct ScaledSolution {
    x: Vec<f64>,
    /// Row duals of the *scaled minimization* problem (`B⁻ᵀ c_B`).
    y: Vec<f64>,
    iterations: usize,
    refactorizations: usize,
    /// FTRAN/BTRAN operation counters from the LU engine.
    ops: lu::OpCounts,
    /// Workspace high-water estimate (factors + row etas + scratch).
    peak_bytes: usize,
}

impl ScaledSolution {
    /// Converts the engine counters to the public [`SolveStats`].
    pub(super) fn stats(&self) -> crate::solution::SolveStats {
        crate::solution::SolveStats {
            ftran_solves: self.ops.ftran_solves,
            ftran_nnz: self.ops.ftran_nnz,
            btran_solves: self.ops.btran_solves,
            btran_nnz: self.ops.btran_nnz,
            peak_alloc_bytes: self.peak_bytes,
            ft_updates: self.ops.ft_updates,
            spike_nnz: self.ops.spike_nnz,
            update_nnz: self.ops.update_nnz,
            refactor_interval: self.ops.refactor_interval,
            refactor_fill: self.ops.refactor_fill,
            refactor_unstable: self.ops.refactor_unstable,
            refactor_repair: self.ops.refactor_repair,
            distress_retries: 0,
            dense_fallbacks: 0,
        }
    }
}

/// Handles the constraint-free case.
fn trivial_solve(sf: &StdForm) -> Result<ScaledSolution, LpError> {
    let mut x = vec![0.0; sf.n];
    for j in 0..sf.n_struct {
        let c = sf.c[j];
        x[j] = if c > 0.0 {
            sf.lb[j]
        } else if c < 0.0 {
            sf.ub[j]
        } else if sf.lb[j].is_finite() {
            sf.lb[j]
        } else if sf.ub[j].is_finite() {
            sf.ub[j]
        } else {
            0.0
        };
        if !x[j].is_finite() {
            return Err(LpError::Unbounded);
        }
    }
    Ok(ScaledSolution {
        x,
        y: Vec::new(),
        iterations: 0,
        refactorizations: 0,
        ops: lu::OpCounts::default(),
        peak_bytes: 0,
    })
}

struct Simplex<'a> {
    sf: &'a StdForm,
    opt: &'a SolverOptions,
    max_iterations: usize,
    /// Column occupying each basis position.
    basis: Vec<usize>,
    /// Status per column; `pos_of` gives the basis position of basic cols.
    stat: Vec<CStat>,
    pos_of: Vec<u32>,
    /// Current value of every column.
    x: Vec<f64>,
    facto: Factorization,
    /// Reduced costs (phase 2, incrementally maintained).
    z: Vec<f64>,
    /// Devex reference weights.
    devex: Vec<f64>,
    /// Dual-simplex Devex row weights (leaving-row steepest-edge proxy).
    dual_w: Vec<f64>,
    /// Consecutive degenerate pivots; Bland mode when past the trigger.
    degen_streak: usize,
    bland: bool,
    iterations: usize,
    refactorizations: usize,
    // Scratch
    col_buf: Vec<f64>,
    row_buf: Vec<f64>,
    rhs_buf: Vec<f64>,
    alpha_buf: Vec<f64>,
    alpha_touched: Vec<u32>,
    /// Steepest-edge beta accumulator (`beta_j = tau·a_j`) + its pattern.
    beta_buf: Vec<f64>,
    beta_touched: Vec<u32>,
    /// Entering-column FTRAN image (hyper-sparse).
    d_work: WorkVec,
    /// Pivot-row BTRAN image / phase-1 cost vector (hyper-sparse).
    rho_work: WorkVec,
    /// BFRT flip-column accumulator (dual simplex).
    flip_work: WorkVec,
    flip_pairs: Vec<(u32, f64)>,
    /// BFRT breakpoint list: `(ratio, |alpha|, column)`.
    breakpoints: Vec<(f64, f64, u32)>,
    /// Basis positions whose value may lie past a bound: every position
    /// violating a bound by more than half the feasibility tolerance is
    /// listed (stale entries are allowed and dropped lazily). Rebuilt at
    /// each refactorization and extended from the FTRAN/flip patterns
    /// that move basic values, so feasibility checks cost the list's
    /// length instead of `m`.
    infeas: Vec<u32>,
    /// Membership flag per basis position for `infeas`.
    in_infeas: Vec<bool>,
    /// `Some(phase1)` of the last `refactor_and_recompute` while nothing
    /// has moved since (no pivot, flip or nonbasic move); `None` once
    /// something has.
    fresh: Option<bool>,
}

/// Outcome of one pivot step.
enum StepOutcome {
    Moved,
    OptimalOrFeasible,
    Unbounded,
}

impl<'a> Simplex<'a> {
    fn new(sf: &'a StdForm, opt: &'a SolverOptions) -> Self {
        let n = sf.n;
        let m = sf.m;
        let max_iterations = if opt.max_iterations == 0 {
            (40 * (m + n)).max(20_000)
        } else {
            opt.max_iterations
        };
        // All-slack crash basis; structural columns nonbasic at a bound.
        let mut stat = Vec::with_capacity(n);
        let mut x = vec![0.0; n];
        for j in 0..n {
            if j >= sf.n_struct {
                stat.push(CStat::Basic);
                continue;
            }
            if sf.lb[j].is_finite() {
                stat.push(CStat::Lower);
                x[j] = sf.lb[j];
            } else if sf.ub[j].is_finite() {
                stat.push(CStat::Upper);
                x[j] = sf.ub[j];
            } else {
                stat.push(CStat::Free);
                x[j] = 0.0;
            }
        }
        let basis: Vec<usize> = (0..m).map(|i| sf.n_struct + i).collect();
        let mut pos_of = vec![u32::MAX; n];
        for (i, &j) in basis.iter().enumerate() {
            pos_of[j] = i as u32;
        }
        Simplex {
            sf,
            opt,
            max_iterations,
            basis,
            stat,
            pos_of,
            x,
            facto: Factorization::new(m),
            z: vec![0.0; n],
            devex: vec![1.0; n],
            dual_w: vec![1.0; m],
            degen_streak: 0,
            bland: false,
            iterations: 0,
            refactorizations: 0,
            col_buf: Vec::new(),
            row_buf: Vec::new(),
            rhs_buf: Vec::new(),
            alpha_buf: vec![0.0; n],
            alpha_touched: Vec::new(),
            beta_buf: vec![0.0; n],
            beta_touched: Vec::new(),
            d_work: WorkVec::with_dim(m),
            rho_work: WorkVec::with_dim(m),
            flip_work: WorkVec::with_dim(m),
            flip_pairs: Vec::new(),
            breakpoints: Vec::new(),
            infeas: Vec::new(),
            in_infeas: vec![false; m],
            fresh: None,
        }
    }

    /// Resets to the all-slack crash basis (used by the warm-solve stall
    /// guard when a snapshot turns out pathological, and as the last
    /// resort of basis repair).
    pub(super) fn reset_to_all_slack(&mut self) {
        for j in 0..self.sf.n_struct {
            self.park_at_bound(j);
            self.pos_of[j] = u32::MAX;
        }
        for r in 0..self.sf.m {
            let slack = self.sf.n_struct + r;
            self.stat[slack] = CStat::Basic;
            self.basis[r] = slack;
            self.pos_of[slack] = r as u32;
        }
        self.degen_streak = 0;
        self.bland = false;
        self.fresh = None;
    }

    /// Makes column `j` nonbasic at its lower bound, else its upper
    /// bound, else (free) at zero. Leaves `pos_of` to the caller.
    fn park_at_bound(&mut self, j: usize) {
        self.stat[j] = if self.sf.lb[j].is_finite() {
            self.x[j] = self.sf.lb[j];
            CStat::Lower
        } else if self.sf.ub[j].is_finite() {
            self.x[j] = self.sf.ub[j];
            CStat::Upper
        } else {
            self.x[j] = 0.0;
            CStat::Free
        };
    }

    fn run(&mut self) -> Result<ScaledSolution, LpError> {
        self.refactor_and_recompute(true)?;

        // ---- Phase 1 ----
        let mut phase1_retried = false;
        // The loop guard compacts and sorts the infeasibility list; only
        // a refactorization (which rebuilds the list) makes it stale
        // before `phase1_step` reads it.
        while self.max_infeasibility() > self.opt.feas_tol {
            if self.iterations >= self.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            if self.maybe_refactor(true)? {
                self.compact_infeasible();
            }
            match self.phase1_step()? {
                StepOutcome::Moved => {
                    phase1_retried = false;
                }
                StepOutcome::OptimalOrFeasible => {
                    // Phase-1 optimum with residual infeasibility. Rule
                    // out stale-factorization drift before declaring the
                    // model infeasible.
                    if !phase1_retried {
                        phase1_retried = true;
                        self.refactor_and_recompute(true)?;
                        continue;
                    }
                    if self.max_infeasibility() > self.opt.feas_tol {
                        return Err(LpError::Infeasible);
                    }
                    break;
                }
                StepOutcome::Unbounded => {
                    return Err(LpError::NumericalFailure(
                        "phase-1 objective unbounded; tolerance breakdown".into(),
                    ));
                }
            }
        }

        // ---- Phase 2 ----
        self.refactor_and_recompute(false)?;
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

        // Final hygiene: refactor and recompute basic values.
        self.refactor_and_recompute(false)?;
        let y = self.scaled_duals();
        Ok(self.finish(y))
    }

    /// Packages the terminal state into a [`ScaledSolution`].
    pub(super) fn finish(&mut self, y: Vec<f64>) -> ScaledSolution {
        ScaledSolution {
            x: std::mem::take(&mut self.x),
            y,
            iterations: self.iterations,
            refactorizations: self.refactorizations,
            ops: self.facto.op_counts(),
            peak_bytes: self.workspace_bytes(),
        }
    }

    /// Workspace high-water estimate: LU factors + row etas + the
    /// solver's own dense and indexed scratch, from `Vec` capacities.
    fn workspace_bytes(&self) -> usize {
        use std::mem::size_of;
        self.facto.heap_bytes()
            + (self.x.capacity()
                + self.z.capacity()
                + self.devex.capacity()
                + self.dual_w.capacity()
                + self.alpha_buf.capacity()
                + self.beta_buf.capacity()
                + self.col_buf.capacity()
                + self.row_buf.capacity()
                + self.rhs_buf.capacity())
                * size_of::<f64>()
            + self.d_work.heap_bytes()
            + self.rho_work.heap_bytes()
            + self.flip_work.heap_bytes()
            + self.basis.capacity() * size_of::<usize>()
            + (self.pos_of.capacity()
                + self.alpha_touched.capacity()
                + self.beta_touched.capacity()
                + self.infeas.capacity())
                * size_of::<u32>()
            + self.flip_pairs.capacity() * size_of::<(u32, f64)>()
            + self.breakpoints.capacity() * size_of::<(f64, f64, u32)>()
            + self.stat.capacity() * size_of::<CStat>()
            + self.in_infeas.capacity() * size_of::<bool>()
    }

    /// Row duals of the scaled problem at the current basis:
    /// `y = B⁻ᵀ c_B`.
    fn scaled_duals(&mut self) -> Vec<f64> {
        let mut cb = vec![0.0; self.sf.m];
        for (i, &j) in self.basis.iter().enumerate() {
            cb[i] = self.sf.c[j];
        }
        let mut y = Vec::new();
        self.facto.btran(&cb, &mut y);
        y
    }

    /// Largest bound violation among the listed basics. Every basic
    /// violating a bound by more than half the feasibility tolerance is
    /// listed, so the result decides `> feas_tol` exactly as a scan of all
    /// `m` basics would. Compacts and sorts the list on the way, which
    /// is what `phase1_step` expects to find.
    fn max_infeasibility(&mut self) -> f64 {
        self.compact_infeasible();
        let mut worst = 0.0f64;
        for &i in &self.infeas {
            let j = self.basis[i as usize];
            let v = self.x[j];
            worst = worst.max(v - self.sf.ub[j]).max(self.sf.lb[j] - v);
        }
        worst
    }

    /// The loose membership test of the infeasibility list: the basic at
    /// position `i` lies past a bound by more than half `feas_tol`.
    #[inline]
    fn loosely_infeasible(&self, i: usize) -> bool {
        let j = self.basis[i];
        let v = self.x[j];
        let half = 0.5 * self.opt.feas_tol;
        v - self.sf.ub[j] > half || self.sf.lb[j] - v > half
    }

    /// Records that the basic value at position `i` moved.
    #[inline]
    fn note_basic_moved(&mut self, i: usize) {
        if !self.in_infeas[i] && self.loosely_infeasible(i) {
            self.in_infeas[i] = true;
            self.infeas.push(i as u32);
        }
    }

    /// Rebuilds the infeasibility list with one scan of all basics.
    fn rebuild_infeasible(&mut self) {
        for &i in &self.infeas {
            self.in_infeas[i as usize] = false;
        }
        self.infeas.clear();
        for i in 0..self.sf.m {
            self.note_basic_moved(i);
        }
    }

    /// Drops listed positions that are feasible again and sorts the rest,
    /// so phase-1 consumers visit candidates in the order a full scan
    /// would (same tie-breaks, same sparse-vector patterns).
    fn compact_infeasible(&mut self) {
        self.retain_infeasible(|_, _| {});
        self.infeas.sort_unstable();
    }

    /// Drops listed positions that are feasible again, calling `visit`
    /// on each position kept, in list order.
    fn retain_infeasible(&mut self, mut visit: impl FnMut(&Self, usize)) {
        let mut list = std::mem::take(&mut self.infeas);
        let mut flags = std::mem::take(&mut self.in_infeas);
        list.retain(|&iu| {
            let i = iu as usize;
            let keep = self.loosely_infeasible(i);
            flags[i] = keep;
            if keep {
                visit(self, i);
            }
            keep
        });
        self.infeas = list;
        self.in_infeas = flags;
        debug_assert!(
            self.infeasible_list_covers(),
            "a basic past its bound is missing from the infeasibility list"
        );
    }

    /// Debug oracle for the list: a full O(m) scan finds no basic past
    /// its bound by more than `feas_tol` that the list missed.
    fn infeasible_list_covers(&self) -> bool {
        let tol = self.opt.feas_tol;
        (0..self.sf.m).all(|i| {
            let j = self.basis[i];
            let v = self.x[j];
            self.in_infeas[i] || !(v - self.sf.ub[j] > tol || self.sf.lb[j] - v > tol)
        })
    }

    /// Refactors on the fixed cadence, or early when the update file's
    /// fill (FT spikes + row etas) has outgrown the LU
    /// factors — FTRAN/BTRAN then cost more through the update chain
    /// than a fresh factorization would. Returns whether it refactored.
    fn maybe_refactor(&mut self, phase1: bool) -> Result<bool, LpError> {
        let cause = if self.facto.update_count() >= self.opt.refactor_interval {
            RefactorCause::Interval
        } else if self.facto.update_count() >= 16
            && self.facto.update_fill() > 2 * self.facto.factor_nnz() + 4 * self.sf.m
        {
            RefactorCause::Fill
        } else {
            return Ok(false);
        };
        self.facto.count_refactor(cause);
        self.refactor_and_recompute(phase1)?;
        Ok(true)
    }

    /// `refactor_and_recompute`, unless nothing has moved since the last
    /// one and it computed everything this one would: the factors, basic
    /// values, reduced costs and reset pricing weights are then already
    /// what a rebuild would reproduce.
    fn refresh(&mut self, phase1: bool) -> Result<(), LpError> {
        if self.fresh.is_some_and(|was_phase1| phase1 || !was_phase1) {
            return Ok(());
        }
        self.refactor_and_recompute(phase1)
    }

    /// Refactorizes the basis and recomputes basic values (and reduced
    /// costs when in phase 2).
    fn refactor_and_recompute(&mut self, phase1: bool) -> Result<(), LpError> {
        self.refactorizations += 1;
        if let Err(sing) = self
            .facto
            .refactor(&self.sf.a, &self.basis, self.opt.pivot_tol)
        {
            // Recovery: replace dependent columns with their rows' slacks.
            self.repair_basis(sing)?;
        }
        // x_B = B^{-1} (b - A_N x_N)
        self.rhs_buf.clear();
        self.rhs_buf.extend_from_slice(&self.sf.b);
        for j in 0..self.sf.n {
            if self.stat[j] != CStat::Basic && self.x[j] != 0.0 {
                let xj = self.x[j];
                for (r, v) in self.sf.a.col(j) {
                    self.rhs_buf[r as usize] -= v * xj;
                }
            }
        }
        let mut xb = std::mem::take(&mut self.col_buf);
        self.facto.ftran_dense(&self.rhs_buf, &mut xb);
        for (i, &j) in self.basis.iter().enumerate() {
            self.x[j] = xb[i];
        }
        self.col_buf = xb;

        if !phase1 {
            self.recompute_reduced_costs();
        }
        // Reset Devex reference frameworks (primal column and dual row).
        self.devex.iter_mut().for_each(|w| *w = 1.0);
        self.dual_w.iter_mut().for_each(|w| *w = 1.0);
        self.rebuild_infeasible();
        self.fresh = Some(phase1);
        Ok(())
    }

    /// Repairs a singular basis in one pass. The failed factorization
    /// reports every dependent column and the rows it left unpivoted;
    /// each dependent column leaves the basis for the slack of one of
    /// those rows (preferring a row the column touches), and the result
    /// is factored once. The pivoted columns keep nonzero pivots on their
    /// own rows and the slacks cover the rest, so that basis is
    /// nonsingular; should threshold pivoting still reject it, the basis
    /// falls back to all-slack — always factorizable, so repair never
    /// hard-errors on a merely *bad* basis.
    fn repair_basis(&mut self, sing: Singular) -> Result<(), LpError> {
        let mut free = vec![false; self.sf.m];
        for &r in &sing.rows {
            free[r as usize] = true;
        }
        let mut any_free = sing.rows.iter();
        for &p in &sing.positions {
            let p = p as usize;
            let out_col = self.basis[p];
            let row = match self.sf.a.col(out_col).find(|&(r, _)| free[r as usize]) {
                Some((r, _)) => r,
                None => *any_free
                    .find(|&&r| free[r as usize])
                    .expect("one unpivoted row per dependent column"),
            } as usize;
            free[row] = false;
            self.park_at_bound(out_col);
            self.pos_of[out_col] = u32::MAX;
            let slack = self.sf.n_struct + row;
            self.basis[p] = slack;
            self.pos_of[slack] = p as u32;
            self.stat[slack] = CStat::Basic;
        }
        self.facto.count_refactor(RefactorCause::Repair);
        if self
            .facto
            .refactor(&self.sf.a, &self.basis, self.opt.pivot_tol)
            .is_ok()
        {
            return Ok(());
        }
        // Last resort: the all-slack basis is the identity and always
        // factors. The warm start degrades to a crash start, but the
        // solve stays correct.
        self.reset_to_all_slack();
        self.facto.count_refactor(RefactorCause::Repair);
        self.facto
            .refactor(&self.sf.a, &self.basis, self.opt.pivot_tol)
            .map_err(|sing| {
                LpError::NumericalFailure(format!(
                    "all-slack basis failed to factor ({} dependent columns)",
                    sing.positions.len()
                ))
            })
    }

    /// Full reduced-cost recomputation: `z = c - Aᵀ B⁻ᵀ c_B`.
    fn recompute_reduced_costs(&mut self) {
        let m = self.sf.m;
        let mut cb = vec![0.0; m];
        for (i, &j) in self.basis.iter().enumerate() {
            cb[i] = self.sf.c[j];
        }
        let mut y = std::mem::take(&mut self.row_buf);
        self.facto.btran(&cb, &mut y);
        for j in 0..self.sf.n {
            self.z[j] = if self.stat[j] == CStat::Basic {
                0.0
            } else {
                self.sf.c[j] - self.sf.a.dot_col(j, &y)
            };
        }
        self.row_buf = y;
    }

    // ---------------- Phase 1 ----------------

    fn phase1_step(&mut self) -> Result<StepOutcome, LpError> {
        // Phase-1 costs: +1 above upper bound, -1 below lower bound.
        // Usually only a handful of basics are infeasible, so the cost
        // vector — and the BTRAN behind the pricing pass — is sparse.
        // Only listed basics can be infeasible; the caller compacted the
        // list into position order, as a full scan would visit them.
        let tol = self.opt.feas_tol;
        debug_assert!(self.infeas.windows(2).all(|w| w[0] < w[1]));
        let mut db = std::mem::take(&mut self.rho_work);
        db.clear_to_dim(self.sf.m);
        for &iu in &self.infeas {
            let i = iu as usize;
            let j = self.basis[i];
            let v = self.x[j];
            if v > self.sf.ub[j] + tol {
                db.vals[i] = 1.0;
                db.pattern.push(iu);
            } else if v < self.sf.lb[j] - tol {
                db.vals[i] = -1.0;
                db.pattern.push(iu);
            }
        }
        if db.nnz() == 0 {
            self.rho_work = db;
            return Ok(StepOutcome::OptimalOrFeasible);
        }
        self.facto.btran_sparse(&mut db);

        // Phase-1 reduced cost of column j is -y·a_j: only columns
        // intersecting y's nonzero rows can be eligible, so price
        // exactly those (row-oriented accumulation through the CSR
        // mirror). Bland mode takes the smallest eligible index.
        self.accumulate_pivot_row(&db);
        self.rho_work = db;
        let touched = std::mem::take(&mut self.alpha_touched);
        let mut best: Option<(usize, f64, f64)> = None; // (col, zj, score)
        for &jcol in &touched {
            let j = jcol as usize;
            let zj = -self.alpha_buf[j];
            self.alpha_buf[j] = 0.0;
            if self.eligible_direction(j, zj) == 0.0 {
                continue;
            }
            if self.bland {
                if best.is_none_or(|(bj, _, _)| j < bj) {
                    best = Some((j, zj, 0.0));
                }
            } else {
                let score = zj * zj / self.devex[j];
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((j, zj, score));
                }
            }
        }
        self.alpha_touched = touched;
        let Some((q, zq, _)) = best else {
            return Ok(StepOutcome::OptimalOrFeasible);
        };
        self.pivot(q, zq, true)
    }

    // ---------------- Phase 2 ----------------

    fn phase2_step(&mut self) -> Result<StepOutcome, LpError> {
        // Full pricing: the best Devex score over every nonbasic column,
        // or the first eligible one in Bland mode.
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.sf.n {
            if self.stat[j] == CStat::Basic {
                continue;
            }
            let zj = self.z[j];
            if self.eligible_direction(j, zj) == 0.0 {
                continue;
            }
            if self.bland {
                best = Some((j, zj, 0.0));
                break;
            }
            let score = zj * zj / self.devex[j];
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, zj, score));
            }
        }
        let Some((q, zq, _)) = best else {
            return Ok(StepOutcome::OptimalOrFeasible);
        };
        self.pivot(q, zq, false)
    }

    /// Direction of improvement for nonbasic `j` with reduced cost `zj`,
    /// or 0.0 when ineligible.
    #[inline]
    fn eligible_direction(&self, j: usize, zj: f64) -> f64 {
        let tol = self.opt.opt_tol * (1.0 + self.sf.c[j].abs());
        match self.stat[j] {
            CStat::Lower => {
                if zj < -tol {
                    1.0
                } else {
                    0.0
                }
            }
            CStat::Upper => {
                if zj > tol {
                    -1.0
                } else {
                    0.0
                }
            }
            CStat::Free => {
                if zj < -tol {
                    1.0
                } else if zj > tol {
                    -1.0
                } else {
                    0.0
                }
            }
            CStat::Basic => 0.0,
        }
    }

    /// Executes one pivot (or bound flip) with entering column `q`.
    fn pivot(&mut self, q: usize, zq: f64, phase1: bool) -> Result<StepOutcome, LpError> {
        self.iterations += 1;
        self.fresh = None;
        let sigma = self.eligible_direction(q, zq);
        debug_assert!(sigma != 0.0);

        // d = B^{-1} a_q in basis-position space (hyper-sparse: the
        // ratio test and the x-update below walk only its pattern).
        let mut d = std::mem::take(&mut self.d_work);
        self.facto.ftran_col(&self.sf.a, q, &mut d);

        // Ratio test.
        let feas_tol = self.opt.feas_tol;
        let mut theta = f64::INFINITY;
        let mut leave: Option<(usize, f64, bool)> = None; // (pos, |d|, hit_upper)
        for &iu in &d.pattern {
            let i = iu as usize;
            let di = d.vals[i];
            if di.abs() <= self.opt.pivot_tol {
                continue;
            }
            let j = self.basis[i];
            let xi = self.x[j];
            let (lbi, ubi) = (self.sf.lb[j], self.sf.ub[j]);
            let delta = sigma * di; // xi moves at rate -delta per unit theta
            let infeasible_above = phase1 && xi > ubi + feas_tol;
            let infeasible_below = phase1 && xi < lbi - feas_tol;

            let (ti, hits_upper) = if infeasible_above {
                if delta > 0.0 {
                    ((xi - ubi) / delta, true)
                } else {
                    continue; // moving further above; no block in phase 1
                }
            } else if infeasible_below {
                if delta < 0.0 {
                    ((xi - lbi) / delta, false)
                } else {
                    continue;
                }
            } else if delta > 0.0 {
                if lbi.is_finite() {
                    ((xi - lbi) / delta, false)
                } else {
                    continue;
                }
            } else if ubi.is_finite() {
                ((xi - ubi) / delta, true)
            } else {
                continue;
            };
            let ti = ti.max(0.0);
            let better = match leave {
                None => ti < theta,
                Some((_, best_abs, _)) => {
                    if self.bland {
                        // Bland: strictly smaller theta, tie -> smaller col.
                        ti < theta - 1e-12
                            || (ti < theta + 1e-12
                                && self.basis[i] < self.basis[leave.expect("set").0])
                    } else {
                        ti < theta - 1e-12 || (ti < theta + 1e-12 && di.abs() > best_abs)
                    }
                }
            };
            if better {
                theta = ti.min(theta);
                leave = Some((i, di.abs(), hits_upper));
            }
        }

        // Entering variable's own bound flip.
        let span = self.sf.ub[q] - self.sf.lb[q];
        let flip_theta = if self.stat[q] == CStat::Free {
            f64::INFINITY
        } else {
            span // infinite if a bound is infinite
        };

        if flip_theta < theta {
            // Bound flip: no basis change.
            let theta = flip_theta;
            for (i, di) in d.iter() {
                if di != 0.0 {
                    let j = self.basis[i as usize];
                    self.x[j] -= sigma * theta * di;
                    self.note_basic_moved(i as usize);
                }
            }
            match self.stat[q] {
                CStat::Lower => {
                    self.stat[q] = CStat::Upper;
                    self.x[q] = self.sf.ub[q];
                }
                CStat::Upper => {
                    self.stat[q] = CStat::Lower;
                    self.x[q] = self.sf.lb[q];
                }
                _ => unreachable!("flip requires finite bounds"),
            }
            self.d_work = d;
            self.note_progress(theta);
            return Ok(StepOutcome::Moved);
        }

        let Some((r, _, hit_upper)) = leave else {
            self.d_work = d;
            return Ok(StepOutcome::Unbounded);
        };
        if !theta.is_finite() {
            self.d_work = d;
            return Ok(StepOutcome::Unbounded);
        }

        // Apply the step. Position `r` changes hands below and is noted
        // once the entering column holds it.
        for (i, di) in d.iter() {
            if di != 0.0 {
                let j = self.basis[i as usize];
                self.x[j] -= sigma * theta * di;
                if i as usize != r {
                    self.note_basic_moved(i as usize);
                }
            }
        }
        let enter_from = self.x[q];
        self.x[q] = enter_from + sigma * theta;

        let jl = self.basis[r];
        // Snap the leaving variable exactly onto its bound.
        self.x[jl] = if hit_upper {
            self.sf.ub[jl]
        } else {
            self.sf.lb[jl]
        };

        // Reduced-cost and Devex updates (phase 2 only) need the pivot row
        // of the OLD basis: rho = B^{-T} e_r, alpha_j = rho·a_j. (The
        // dual row weights are left alone: no dual step follows a primal
        // pivot without a refactorization resetting them.)
        if !phase1 {
            self.update_duals_after_pivot(q, r, zq, d.vals[r], &d);
        }

        // Basis bookkeeping + Forrest–Tomlin factor update.
        let updated = self.facto.push_update(r, &d, 1e-14);
        self.stat[jl] = if hit_upper {
            CStat::Upper
        } else {
            CStat::Lower
        };
        self.pos_of[jl] = u32::MAX;
        self.basis[r] = q;
        self.pos_of[q] = r as u32;
        self.stat[q] = CStat::Basic;
        self.z[q] = 0.0;
        self.note_basic_moved(r);

        self.d_work = d;
        self.note_progress(theta);
        if !updated {
            // The FT stability monitor declined the spike, so the
            // factorization still represents the old basis: rebuild
            // from the new one before the next solve touches it.
            self.refactor_and_recompute(phase1)?;
        }
        Ok(StepOutcome::Moved)
    }

    /// Incremental reduced-cost + pricing-weight update for a pivot with
    /// entering `q`, leaving position `r`, entering reduced cost `zq`,
    /// pivot element `dr = d[r]`, entering FTRAN image `d = B⁻¹a_q`.
    fn update_duals_after_pivot(&mut self, q: usize, r: usize, zq: f64, dr: f64, d: &WorkVec) {
        let se = self.opt.pricing == Pricing::SteepestEdge;
        // rho = B^{-T} e_r, hyper-sparse.
        let mut rho = std::mem::take(&mut self.rho_work);
        self.facto.btran_unit(r, &mut rho);

        // Steepest edge needs tau = B^{-T} d and beta_j = tau·a_j to run
        // the Forrest–Goldfarb recurrence; gq = ‖d‖² is the entering
        // column's exact weight, recomputed from the FTRAN image rather
        // than trusted from the reference value.
        let mut gq = 0.0;
        if se {
            let mut tau = std::mem::take(&mut self.flip_work);
            tau.clear_to_dim(self.sf.m);
            for (i, di) in d.iter() {
                if di != 0.0 {
                    tau.vals[i as usize] = di;
                    tau.pattern.push(i);
                    gq += di * di;
                }
            }
            self.facto.btran_sparse(&mut tau);
            self.beta_touched.clear();
            for (i, ti) in tau.iter() {
                if ti.abs() <= 1e-12 {
                    continue;
                }
                for (jcol, v) in self.sf.a_csr.row(i as usize) {
                    let j = jcol as usize;
                    if self.beta_buf[j] == 0.0 {
                        self.beta_touched.push(jcol);
                    }
                    self.beta_buf[j] += ti * v;
                }
            }
            self.flip_work = tau;
        }

        // alpha_j = rho · a_j for nonbasic j, via CSR rows of nonzero rho.
        self.accumulate_pivot_row(&rho);
        let ratio = zq / dr;
        let wq = self.devex[q];
        // Pre-read the touched list to appease the borrow checker.
        let touched = std::mem::take(&mut self.alpha_touched);
        for &jcol in &touched {
            let j = jcol as usize;
            let alpha = self.alpha_buf[j];
            self.alpha_buf[j] = 0.0;
            if j == q {
                continue;
            }
            self.z[j] -= ratio * alpha;
            if se {
                // gamma_j' = gamma_j - 2(alpha/dr)·beta_j + (alpha/dr)²·gq,
                // floored at the provable lower bound (alpha/dr)².
                let ar = alpha / dr;
                let nw = self.devex[j] - 2.0 * ar * self.beta_buf[j] + ar * ar * gq;
                self.devex[j] = nw.max(ar * ar).max(1e-10);
            } else {
                // Devex weight propagation.
                let cand = (alpha / dr) * (alpha / dr) * wq;
                if cand > self.devex[j] {
                    self.devex[j] = cand;
                }
            }
        }
        self.alpha_touched = touched;
        if se {
            let bt = std::mem::take(&mut self.beta_touched);
            for &jcol in &bt {
                self.beta_buf[jcol as usize] = 0.0;
            }
            self.beta_touched = bt;
        }
        // Leaving variable becomes nonbasic with reduced cost -zq/dr.
        let jl = self.basis[r];
        self.z[jl] = -ratio;
        self.devex[jl] = if se {
            (gq / (dr * dr)).max(1e-10)
        } else {
            (wq / (dr * dr)).max(1.0)
        };
        self.rho_work = rho;
    }

    /// Accumulates the pivot row `alpha_j = rho · a_j` into `alpha_buf`
    /// for the nonbasic columns `j` (every consumer discards the basic
    /// ones), through the CSR rows of `rho`'s pattern; `alpha_touched`
    /// lists the touched columns in first-touch order.
    fn accumulate_pivot_row(&mut self, rho: &WorkVec) {
        self.alpha_touched.clear();
        for (i, ri) in rho.iter() {
            if ri.abs() <= 1e-12 {
                continue;
            }
            for (jcol, v) in self.sf.a_csr.row(i as usize) {
                let j = jcol as usize;
                if self.stat[j] == CStat::Basic {
                    continue;
                }
                if self.alpha_buf[j] == 0.0 {
                    self.alpha_touched.push(jcol);
                }
                self.alpha_buf[j] += ri * v;
            }
        }
    }

    /// Tracks degeneracy and toggles Bland's rule.
    fn note_progress(&mut self, theta: f64) {
        if theta <= 1e-10 {
            self.degen_streak += 1;
            if self.degen_streak >= self.opt.bland_trigger {
                self.bland = true;
            }
        } else {
            self.degen_streak = 0;
            self.bland = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{Cmp, Model, Sense};
    use crate::LpError;

    fn opts_no_presolve() -> super::SolverOptions {
        super::SolverOptions {
            presolve: false,
            ..Default::default()
        }
    }

    #[test]
    fn dantzig_example() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 3.0);
        let y = m.add_nonneg("y", 5.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-7);
        assert!((s.value(x) - 2.0).abs() < 1e-7);
        assert!((s.value(y) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + y = 10, x - y = 4  ->  x=7, y=3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Eq, 4.0);
        let s = m.solve_with(&opts_no_presolve()).unwrap();
        assert!((s.objective - 10.0).abs() < 1e-7);
        assert!((s.value(x) - 7.0).abs() < 1e-7);
        assert!((s.value(y) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
        // Same but past presolve's reach: two conflicting rows.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bounded_variables_and_flips() {
        // max x + y with 0<=x<=1, 0<=y<=1, x + y <= 1.5
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
        let s = m.solve().unwrap();
        assert!((s.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn free_variables() {
        // min |style| objective via free var: min x st x >= -5 encoded with
        // free x and constraint x >= -5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, -5.0);
        let s = m.solve_with(&opts_no_presolve()).unwrap();
        assert!((s.objective + 5.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_le_rows() {
        // x <= -2 with x in [-10, 0]: feasible, phase 1 must fix slack.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", -10.0, 0.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, -2.0);
        let s = m.solve_with(&opts_no_presolve()).unwrap();
        assert!((s.value(x) + 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate diamond; multiple optimal bases.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 1.0);
        m.add_constraint([(y, 1.0)], Cmp::Le, 1.0);
        m.add_constraint([(x, 2.0), (y, 2.0)], Cmp::Le, 2.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-7);
    }

    #[test]
    fn maximize_with_ge_rows() {
        // max 2x + 3y st x + y >= 2, x + 2y <= 8, x <= 3
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 2.0);
        let y = m.add_nonneg("y", 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Le, 8.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
        let s = m.solve().unwrap();
        // Optimum at x=3, y=2.5 -> 13.5
        assert!((s.objective - 13.5).abs() < 1e-7, "obj={}", s.objective);
    }
}

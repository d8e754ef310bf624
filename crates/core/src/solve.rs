//! The unified solving API: one trait every algorithm implements.
//!
//! The paper's experiments (§6) are head-to-head comparisons — the LP
//! lower bound vs Stretch vs the λ=1 heuristic vs the baselines — so the
//! suite needs a common notion of "an algorithm". [`CoflowSolver`] is
//! that notion: every scheduler (the paper pipeline in this crate, the
//! baselines in `coflow-baselines`) takes an instance, a routing model,
//! and a [`SolveContext`], and returns a validated [`SolveOutcome`].
//!
//! ```text
//! CoflowSolver::solve(inst, routing, ctx)
//!        │                         │
//!        │        ┌────────────────┴──────────────┐
//!        │        │ SolveContext caches, per       │
//!        │        │ (instance, routing) pair:      │
//!        │        │  · horizon T                   │
//!        │        │  · time-indexed LP relaxation  │
//!        │        │  · interval LP per ε           │
//!        ▼        └───────────────────────────────┘
//! SolveOutcome { cost, schedule, validation, lower bound?, LP stats? }
//! ```
//!
//! The context is the speed win: a figure point that runs five
//! algorithms on one instance solves each LP relaxation once, not once
//! per algorithm. The name→constructor registry over these solvers lives
//! in `coflow-baselines::registry` (it can see both this crate and the
//! baselines).
//!
//! # Example
//!
//! Run two pipeline variants on the paper's Figure-2 network through
//! one shared context — the second solve reuses the first's cached
//! time-indexed LP:
//!
//! ```
//! use coflow_core::model::{Coflow, CoflowInstance, Flow};
//! use coflow_core::routing::Routing;
//! use coflow_core::solve::{CoflowSolver, LpRoundingSolver, SolveContext};
//! use coflow_core::solver::Algorithm;
//! use coflow_netgraph::topology;
//!
//! let topo = topology::fig2_example();
//! let g = topo.graph;
//! let (s, t) = (g.node_by_label("s").unwrap(), g.node_by_label("t").unwrap());
//! let inst = CoflowInstance::new(
//!     g,
//!     vec![
//!         Coflow::new(vec![Flow::new(s, t, 3.0)]),
//!         Coflow::weighted(2.0, vec![Flow::new(s, t, 1.0)]),
//!     ],
//! )
//! .unwrap();
//!
//! // One context per (instance, routing) pair.
//! let mut ctx = SolveContext::new();
//! let heuristic = LpRoundingSolver::new(Algorithm::LpHeuristic)
//!     .solve(&inst, &Routing::FreePath, &mut ctx)
//!     .unwrap();
//! let stretch = LpRoundingSolver::new(Algorithm::Stretch { samples: 4, seed: 7 })
//!     .solve(&inst, &Routing::FreePath, &mut ctx)
//!     .unwrap();
//!
//! // Outcomes are validated certificates: both respect the shared LP
//! // lower bound, and both report it identically (same cached LP).
//! let lb = heuristic.lower_bound.unwrap();
//! assert_eq!(stretch.lower_bound, Some(lb));
//! assert!(heuristic.cost >= lb - 1e-9);
//! assert!(stretch.cost >= lb - 1e-9);
//! assert_eq!(stretch.sweep.as_ref().unwrap().samples.len(), 4);
//! ```

use crate::derand::derandomize;
use crate::error::CoflowError;
use crate::flowtime::interval_batch_online_with;
use crate::horizon::{horizon, HorizonMode};
use crate::interval::{solve_interval, solve_interval_chained, IntervalChain, IntervalRelaxation};
use crate::model::CoflowInstance;
use crate::online::{online_heuristic_with, OnlineOptions};
use crate::routing::Routing;
use crate::schedule::Schedule;
use crate::solver::{Algorithm, Relaxation};
use crate::stretch::{lambda_sweep, stretch_schedule, LambdaSweep, StretchOptions};
use crate::timeidx::{solve_time_indexed, LpRelaxation, LpSize};
use crate::validate::{validate, Tolerance, ValidationReport};
use coflow_lp::SolverOptions;
use std::sync::Arc;

/// A coflow scheduling algorithm: anything that can turn an instance
/// plus a routing model into a feasible, validated schedule.
///
/// Implementations must *validate* the schedule they return (the
/// [`SolveOutcome::from_schedule`] helper does this); a `SolveOutcome`
/// is a certificate, not a claim. Algorithms that only support one
/// routing model (e.g. Terra is free-path only) return
/// [`CoflowError::BadRouting`] for the others.
pub trait CoflowSolver {
    /// Solves `inst` under `routing`, reusing (and populating) the
    /// cached per-instance work in `ctx`.
    ///
    /// # Errors
    ///
    /// Routing mismatches, LP failures, or validation failures of the
    /// produced schedule (the latter indicates an algorithm bug).
    fn solve(
        &self,
        inst: &CoflowInstance,
        routing: &Routing,
        ctx: &mut SolveContext,
    ) -> Result<SolveOutcome, CoflowError>;
}

/// Everything a comparison harness needs from one solve, for any
/// algorithm: the validated schedule and its cost, plus the LP side
/// (lower bound, model size) when the algorithm has one.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Weighted completion time `Σ w_j C_j` of the returned schedule.
    pub cost: f64,
    /// Unweighted total completion time (Terra comparisons).
    pub unweighted_cost: f64,
    /// The feasible schedule that achieved `cost`.
    pub schedule: Schedule,
    /// Full validation output (completions, utilization).
    pub validation: ValidationReport,
    /// LP optimum of the algorithm's own relaxation. For the
    /// time-indexed LP this is an exact lower bound on the optimal
    /// cost; geometric-interval relaxations can overshoot the optimum
    /// by their interval resolution (coarse ε plus release-boundary
    /// rounding), so anchor soundness checks on the time-indexed bound.
    /// `None` for LP-free algorithms.
    pub lower_bound: Option<f64>,
    /// Dimensions of the LP the algorithm solved, when it solved one.
    pub lp_size: Option<LpSize>,
    /// Simplex iterations, when an LP was solved.
    pub lp_iterations: Option<usize>,
    /// Horizon the algorithm worked with, when it needed one.
    pub horizon: Option<u32>,
    /// λ-sweep statistics, for sampled-Stretch solvers.
    pub sweep: Option<LambdaSweep>,
    /// Algorithm-specific scalar extras (`("resolves", 3.0)`, `("best_lambda", 0.7)`, …).
    pub aux: Vec<(&'static str, f64)>,
}

impl SolveOutcome {
    /// Validates `schedule` and wraps it into an outcome with the costs
    /// filled in and every optional field empty. Solvers layer their LP
    /// stats and extras on top.
    ///
    /// # Errors
    ///
    /// [`CoflowError::InvalidSchedule`] when validation fails.
    pub fn from_schedule(
        inst: &CoflowInstance,
        routing: &Routing,
        schedule: Schedule,
        tolerance: Tolerance,
    ) -> Result<SolveOutcome, CoflowError> {
        let validation = validate(inst, routing, &schedule, tolerance)?;
        // Deadline-miss accounting rides along whenever the instance
        // carries deadlines, for any solver (most ignore them when
        // scheduling; the metric still shows what that costs).
        let mut aux = Vec::new();
        let total = inst.coflows.iter().filter(|c| c.deadline.is_some()).count();
        if total > 0 {
            let missed = inst
                .coflows
                .iter()
                .zip(&validation.completions.per_coflow)
                .filter(|(cf, &c)| cf.deadline.is_some_and(|d| c > d))
                .count();
            aux.push(("deadline_total", total as f64));
            aux.push(("deadline_missed", missed as f64));
            aux.push(("deadline_miss_rate", missed as f64 / total as f64));
        }
        Ok(SolveOutcome {
            cost: validation.completions.weighted_total,
            unweighted_cost: validation.completions.unweighted_total,
            schedule,
            validation,
            lower_bound: None,
            lp_size: None,
            lp_iterations: None,
            horizon: None,
            sweep: None,
            aux,
        })
    }

    /// Looks up an algorithm-specific extra by key.
    pub fn aux(&self, key: &str) -> Option<f64> {
        self.aux.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Per-instance cache shared by every solver run on the same
/// `(instance, routing)` pair: the horizon and each LP relaxation are
/// computed once and reused, so a figure point comparing five algorithms
/// pays for each relaxation once.
///
/// A context is only valid for **one** `(instance, routing)` pair —
/// create a fresh one per pair (cheap: all fields start empty). A debug
/// assertion catches accidental reuse across instances or routings
/// (path-based routings are identified by their path table; free-path
/// routings are interchangeable).
#[derive(Clone, Debug, Default)]
pub struct SolveContext {
    horizon_mode: HorizonMode,
    lp_opts: SolverOptions,
    tolerance: Tolerance,
    horizon: Option<u32>,
    time_indexed: Option<Arc<LpRelaxation>>,
    interval: Vec<(u64, Arc<IntervalRelaxation>)>,
    /// Warm-start state chained across interval solves at different ε
    /// (the basis cache of this `(relaxation family, routing)` pair): the
    /// first interval solve takes the ordinary presolved path, every
    /// later ε crashes from the previous optimal basis. Identical-ε
    /// re-solves never happen — the `interval` cache above returns the
    /// `Arc` — so this only fires when a shoot-out mixes ε values.
    interval_chain: Option<IntervalChain>,
    interval_solves: usize,
    // The LP half of each interval relaxation, shared so repeated
    // `relaxation()` calls at one ε clone the plan only once.
    interval_lp: Vec<(u64, Arc<LpRelaxation>)>,
    #[cfg(debug_assertions)]
    bound_to: Option<(usize, usize)>,
}

impl SolveContext {
    /// An empty context with default settings (greedy horizon with
    /// margin 1.25, default LP options and tolerance).
    pub fn new() -> SolveContext {
        SolveContext::default()
    }

    /// Selects how the horizon `T` is picked (shared by every solver
    /// using this context).
    pub fn with_horizon_mode(mut self, mode: HorizonMode) -> Self {
        self.horizon_mode = mode;
        self
    }

    /// Overrides LP solver options.
    pub fn with_lp_options(mut self, opts: SolverOptions) -> Self {
        self.lp_opts = opts;
        self
    }

    /// Overrides the validation tolerance.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The LP options solvers should use for any LP they build
    /// themselves (per-coflow CCT LPs, online re-solves, …).
    pub fn lp_options(&self) -> &SolverOptions {
        &self.lp_opts
    }

    /// The validation tolerance solvers should use.
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    #[cfg(debug_assertions)]
    fn check_binding(&mut self, inst: &CoflowInstance, routing: &Routing) {
        // Free-path routings carry no state and are interchangeable;
        // path-based routings are identified by their path tables.
        let r_key = match routing {
            Routing::FreePath => 1,
            Routing::SinglePath(paths) => paths.as_ptr() as usize,
            Routing::MultiPath(sets) => sets.as_ptr() as usize,
        };
        let key = (std::ptr::from_ref(inst) as usize, r_key);
        match self.bound_to {
            None => self.bound_to = Some(key),
            Some(k) => debug_assert!(
                k == key,
                "SolveContext reused across instances or routings — \
                 create one context per (instance, routing) pair"
            ),
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_binding(&mut self, _inst: &CoflowInstance, _routing: &Routing) {}

    /// The horizon `T` for this instance (cached).
    ///
    /// # Errors
    ///
    /// Propagates greedy-witness errors from horizon estimation.
    pub fn horizon(
        &mut self,
        inst: &CoflowInstance,
        routing: &Routing,
    ) -> Result<u32, CoflowError> {
        self.check_binding(inst, routing);
        if let Some(t) = self.horizon {
            return Ok(t);
        }
        let t = horizon(inst, routing, self.horizon_mode)?;
        self.horizon = Some(t);
        Ok(t)
    }

    /// The time-indexed LP relaxation (§3) of this instance (cached).
    ///
    /// # Errors
    ///
    /// Propagates horizon and LP errors.
    pub fn time_indexed(
        &mut self,
        inst: &CoflowInstance,
        routing: &Routing,
    ) -> Result<Arc<LpRelaxation>, CoflowError> {
        self.check_binding(inst, routing);
        if let Some(lp) = &self.time_indexed {
            return Ok(Arc::clone(lp));
        }
        let t = self.horizon(inst, routing)?;
        let lp = Arc::new(solve_time_indexed(inst, routing, t, &self.lp_opts)?);
        self.time_indexed = Some(Arc::clone(&lp));
        Ok(lp)
    }

    /// The geometric-interval LP relaxation (Appendix A) at `epsilon`
    /// (cached per ε).
    ///
    /// # Errors
    ///
    /// Propagates horizon and LP errors.
    pub fn interval(
        &mut self,
        inst: &CoflowInstance,
        routing: &Routing,
        epsilon: f64,
    ) -> Result<Arc<IntervalRelaxation>, CoflowError> {
        self.check_binding(inst, routing);
        let key = epsilon.to_bits();
        if let Some((_, iv)) = self.interval.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(iv));
        }
        let t = self.horizon(inst, routing)?;
        let iv = if self.interval_solves == 0 {
            // First interval LP of this context: the presolved cold path
            // (fastest when there is nothing to chain from).
            Arc::new(solve_interval(inst, routing, t, epsilon, &self.lp_opts)?)
        } else {
            // Later ε values crash from the previous optimal basis.
            let (rel, chain) = solve_interval_chained(
                inst,
                routing,
                t,
                epsilon,
                &self.lp_opts,
                self.interval_chain.as_ref(),
            )?;
            self.interval_chain = Some(chain);
            Arc::new(rel)
        };
        self.interval_solves += 1;
        self.interval.push((key, Arc::clone(&iv)));
        Ok(iv)
    }

    /// The LP relaxation selected by `relaxation`, through the cache.
    ///
    /// # Errors
    ///
    /// Propagates horizon and LP errors.
    pub fn relaxation(
        &mut self,
        inst: &CoflowInstance,
        routing: &Routing,
        relaxation: Relaxation,
    ) -> Result<Arc<LpRelaxation>, CoflowError> {
        match relaxation {
            Relaxation::TimeIndexed => self.time_indexed(inst, routing),
            Relaxation::Interval { epsilon } => {
                let key = epsilon.to_bits();
                if let Some((_, lp)) = self.interval_lp.iter().find(|(k, _)| *k == key) {
                    return Ok(Arc::clone(lp));
                }
                let lp = Arc::new(self.interval(inst, routing, epsilon)?.lp.clone());
                self.interval_lp.push((key, Arc::clone(&lp)));
                Ok(lp)
            }
        }
    }
}

/// The paper pipeline as a [`CoflowSolver`]: an LP relaxation
/// (time-indexed or geometric-interval) followed by a rounding (Stretch
/// with sampled λ, a fixed λ, or the λ=1 heuristic). Covers every
/// `Algorithm` × `Relaxation` combination of [`crate::solver`].
#[derive(Clone, Copy, Debug)]
pub struct LpRoundingSolver {
    /// Which relaxation to solve.
    pub relaxation: Relaxation,
    /// Which rounding to apply.
    pub rounding: Algorithm,
    /// Stretch options (idle-slot compaction).
    pub options: StretchOptions,
}

impl LpRoundingSolver {
    /// Time-indexed LP + the given rounding, default options.
    pub fn new(rounding: Algorithm) -> LpRoundingSolver {
        LpRoundingSolver {
            relaxation: Relaxation::TimeIndexed,
            rounding,
            options: StretchOptions::default(),
        }
    }

    /// Selects the relaxation.
    pub fn with_relaxation(mut self, relaxation: Relaxation) -> Self {
        self.relaxation = relaxation;
        self
    }
}

impl CoflowSolver for LpRoundingSolver {
    fn solve(
        &self,
        inst: &CoflowInstance,
        routing: &Routing,
        ctx: &mut SolveContext,
    ) -> Result<SolveOutcome, CoflowError> {
        let lp = ctx.relaxation(inst, routing, self.relaxation)?;
        let (schedule, sweep) = match self.rounding {
            Algorithm::LpHeuristic => (stretch_schedule(inst, &lp.plan, 1.0, self.options), None),
            Algorithm::FixedLambda(lambda) => {
                (stretch_schedule(inst, &lp.plan, lambda, self.options), None)
            }
            Algorithm::Stretch { samples, seed } => {
                let sweep = lambda_sweep(inst, &lp.plan, samples, seed, self.options);
                // Return the best sample's schedule (re-round at its λ).
                let best = sweep.best().lambda;
                (
                    stretch_schedule(inst, &lp.plan, best, self.options),
                    Some(sweep),
                )
            }
        };
        let mut out = SolveOutcome::from_schedule(inst, routing, schedule, ctx.tolerance())?;
        out.lower_bound = Some(lp.objective);
        out.lp_size = Some(lp.size);
        out.lp_iterations = Some(lp.lp_iterations);
        out.horizon = Some(lp.horizon);
        out.sweep = sweep;
        Ok(out)
    }
}

/// Derandomized Stretch as a [`CoflowSolver`]: computes the exact best
/// stretch factor λ* over `(0, 1]` ([`crate::derand`]) and returns the
/// *pure* (uncompacted) stretched schedule at λ*. Extras carry the
/// derandomization statistics: `best_lambda`, `best_cost` (the exact
/// profile cost at λ*), `heuristic_cost`, `expected_cost`, and
/// `candidates`.
#[derive(Clone, Copy, Debug)]
pub struct DerandSolver {
    /// Which relaxation feeds the profiles.
    pub relaxation: Relaxation,
}

impl Default for DerandSolver {
    fn default() -> Self {
        DerandSolver {
            relaxation: Relaxation::TimeIndexed,
        }
    }
}

impl CoflowSolver for DerandSolver {
    fn solve(
        &self,
        inst: &CoflowInstance,
        routing: &Routing,
        ctx: &mut SolveContext,
    ) -> Result<SolveOutcome, CoflowError> {
        let lp = ctx.relaxation(inst, routing, self.relaxation)?;
        let d = derandomize(inst, &lp.plan);
        // The derand optimum is over pure stretches — no compaction.
        let schedule = stretch_schedule(
            inst,
            &lp.plan,
            d.best_lambda,
            StretchOptions { compact: false },
        );
        let mut out = SolveOutcome::from_schedule(inst, routing, schedule, ctx.tolerance())?;
        out.lower_bound = Some(lp.objective);
        out.lp_size = Some(lp.size);
        out.lp_iterations = Some(lp.lp_iterations);
        out.horizon = Some(lp.horizon);
        out.aux.extend([
            ("best_lambda", d.best_lambda),
            ("best_cost", d.best_cost),
            ("heuristic_cost", d.heuristic_cost),
            ("expected_cost", d.expected_cost),
            ("candidates", d.candidates as f64),
        ]);
        Ok(out)
    }
}

/// The event-driven online re-solver ([`crate::online`]) as a
/// [`CoflowSolver`]: a persistent warm-started LP by default, all-slack
/// re-solves with `cold` (the `--cold` A/B escape hatch). Extras:
/// `resolves` — LP re-solves performed; `lp_iterations` — total simplex
/// iterations across them; `rebuilds` — horizon growths;
/// `certified_infeasible` / `solved_infeasible` — infeasible epoch
/// answers from the load certificate / from an LP solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineSolver {
    /// Re-solve every epoch from the all-slack crash basis.
    pub cold: bool,
}

impl CoflowSolver for OnlineSolver {
    fn solve(
        &self,
        inst: &CoflowInstance,
        routing: &Routing,
        ctx: &mut SolveContext,
    ) -> Result<SolveOutcome, CoflowError> {
        let opts = OnlineOptions {
            cold: self.cold,
            shadow_cold: false,
        };
        let run = online_heuristic_with(inst, routing, ctx.lp_options(), &opts)?;
        let mut out = SolveOutcome::from_schedule(inst, routing, run.schedule, ctx.tolerance())?;
        out.lp_iterations = Some(run.lp_iterations);
        out.aux.extend([
            ("resolves", run.resolves as f64),
            ("lp_iterations", run.lp_iterations as f64),
            ("rebuilds", run.rebuilds as f64),
            ("certified_infeasible", run.certified_infeasible as f64),
            ("solved_infeasible", run.solved_infeasible as f64),
        ]);
        Ok(out)
    }
}

/// The doubling-batch online framework ([`crate::flowtime`]) as a
/// [`CoflowSolver`]: each batch appends onto one persistent warm-started
/// LP (`cold` re-solves each batch from the all-slack basis). Extras:
/// `batches` — offline solves performed; `lp_iterations` — total
/// simplex iterations across them; `certified_infeasible` /
/// `solved_infeasible` — as for [`OnlineSolver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchOnlineSolver {
    /// Re-solve every batch from the all-slack crash basis.
    pub cold: bool,
}

impl CoflowSolver for BatchOnlineSolver {
    fn solve(
        &self,
        inst: &CoflowInstance,
        routing: &Routing,
        ctx: &mut SolveContext,
    ) -> Result<SolveOutcome, CoflowError> {
        let run = interval_batch_online_with(inst, routing, ctx.lp_options(), !self.cold)?;
        let mut out = SolveOutcome::from_schedule(inst, routing, run.schedule, ctx.tolerance())?;
        out.lp_iterations = Some(run.lp_iterations);
        out.aux.extend([
            ("batches", run.batches as f64),
            ("lp_iterations", run.lp_iterations as f64),
            ("certified_infeasible", run.certified_infeasible as f64),
            ("solved_infeasible", run.solved_infeasible as f64),
        ]);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Coflow, Flow};
    use coflow_netgraph::topology;

    fn fig2_instance() -> CoflowInstance {
        let topo = topology::fig2_example();
        let g = topo.graph;
        let s = g.node_by_label("s").unwrap();
        let t = g.node_by_label("t").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let v2 = g.node_by_label("v2").unwrap();
        let v3 = g.node_by_label("v3").unwrap();
        CoflowInstance::new(
            g,
            vec![
                Coflow::new(vec![Flow::new(v1, t, 1.0)]),
                Coflow::new(vec![Flow::new(v2, t, 1.0)]),
                Coflow::new(vec![Flow::new(v3, t, 1.0)]),
                Coflow::new(vec![Flow::new(s, t, 3.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn context_caches_the_time_indexed_relaxation() {
        let inst = fig2_instance();
        let mut ctx = SolveContext::new();
        let a = ctx.time_indexed(&inst, &Routing::FreePath).unwrap();
        let b = ctx.time_indexed(&inst, &Routing::FreePath).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
    }

    #[test]
    fn context_caches_interval_relaxations_per_epsilon() {
        let inst = fig2_instance();
        let mut ctx = SolveContext::new();
        let a = ctx.interval(&inst, &Routing::FreePath, 0.5).unwrap();
        let b = ctx.interval(&inst, &Routing::FreePath, 0.5).unwrap();
        let c = ctx.interval(&inst, &Routing::FreePath, 0.25).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c), "different ε is a different LP");
    }

    #[test]
    fn trait_solve_matches_the_legacy_scheduler() {
        use crate::solver::Scheduler;
        let inst = fig2_instance();
        let report = Scheduler::new(Algorithm::LpHeuristic)
            .solve(&inst, &Routing::FreePath)
            .unwrap();
        let mut ctx = SolveContext::new();
        let out = LpRoundingSolver::new(Algorithm::LpHeuristic)
            .solve(&inst, &Routing::FreePath, &mut ctx)
            .unwrap();
        assert_eq!(out.cost, report.cost);
        assert_eq!(out.lower_bound, Some(report.lower_bound));
        assert_eq!(out.horizon, Some(report.horizon));
    }

    #[test]
    fn outcomes_are_validated_and_bounded() {
        let inst = fig2_instance();
        let mut ctx = SolveContext::new();
        let solvers: Vec<Box<dyn CoflowSolver>> = vec![
            Box::new(LpRoundingSolver::new(Algorithm::LpHeuristic)),
            Box::new(LpRoundingSolver::new(Algorithm::Stretch {
                samples: 5,
                seed: 7,
            })),
            Box::new(DerandSolver::default()),
            Box::new(OnlineSolver::default()),
            Box::new(BatchOnlineSolver::default()),
        ];
        let lb = ctx
            .time_indexed(&inst, &Routing::FreePath)
            .unwrap()
            .objective;
        for s in solvers {
            let out = s.solve(&inst, &Routing::FreePath, &mut ctx).unwrap();
            assert!(out.cost >= lb - 1e-6, "cost {} below LP {lb}", out.cost);
            assert!(out.validation.peak_utilization <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn derand_extras_expose_the_exact_optimum() {
        let inst = fig2_instance();
        let mut ctx = SolveContext::new();
        let out = DerandSolver::default()
            .solve(&inst, &Routing::FreePath, &mut ctx)
            .unwrap();
        let best = out.aux("best_cost").unwrap();
        let lambda = out.aux("best_lambda").unwrap();
        assert!(lambda > 0.0 && lambda <= 1.0);
        // The materialized pure-stretch schedule realizes the profile cost.
        assert!((out.cost - best).abs() < 1e-6 * (1.0 + best));
    }
}

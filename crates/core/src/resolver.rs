//! A persistent, warm-started time-indexed LP that survives across
//! arrival epochs and batch dispatches.
//!
//! The online algorithms solve *sequences* of nearly-identical
//! time-indexed relaxations: each arrival epoch adds a few flows and
//! freezes the slots that were just executed, everything else is
//! unchanged. Rebuilding and cold-solving the LP at every epoch (what
//! [`crate::online`] did before this module) throws the previous basis
//! away exactly when it is most useful. [`TimeIndexedResolver`] keeps
//! one [`Model`] and one [`Basis`] alive instead:
//!
//! * **arrival** — the new flows' columns and rows are *appended* to the
//!   solved model ([`Model::add_var`] / [`Model::add_constraint`] /
//!   [`Model::add_term`] into the shared capacity rows), the basis is
//!   patched up with [`Basis::grow`], and the dual simplex pivots back
//!   to optimality;
//! * **execution** — the fractions actually transmitted in the window
//!   just played are frozen with [`fix_slot`](TimeIndexedResolver::fix_slot)
//!   (bound changes keep the basis dual feasible), so the next re-solve
//!   schedules only the remaining work;
//! * **growth** — when arrivals land past the horizon, or an epoch is
//!   infeasible because the composed online schedule outgrew the
//!   horizon estimate, the caller grows the horizon with
//!   [`grow_horizon`](TimeIndexedResolver::grow_horizon). The live model
//!   is extended in place (new slots for every active flow, demand rows
//!   moved to the new last prefix, coflow chains and completion rows
//!   extended) and the basis grows with it, so the next solve is warm.
//!   Growth is common, not rare: perfbench's `serve_fleet` workload
//!   grows about once per tenant.
//!
//! Two things keep growth cheap. A per-node load certificate (kept up
//! to date from the logs) answers most infeasible epochs without an LP
//! solve: when the unfixed demand a node sources or sinks cannot fit in
//! its capacity over the open slots, [`solve`](TimeIndexedResolver::solve)
//! returns `None` straight away. And the in-place growth patches the
//! kept basis so it stays nonsingular and primal feasible for the flows
//! the last optimum served: the dual simplex only schedules what is new.
//!
//! The model lives on the *global* timeline of the original instance:
//! flow variables start at the flow's activation slot, and executed
//! history stays in the model as fixed variables. The first solve is
//! built lazily over everything activated so far and shares one cold
//! start with the offline [`crate::timeidx`] relaxation: the slot-block
//! crash, then the dual simplex with steepest-edge pricing. When every
//! flow activates at `release + 1` before the first solve, the model
//! (and hence the solution) is bit-for-bit the offline relaxation. That
//! solve hands back its optimal basis, so later solves re-solve warm
//! with [`Model::solve_warm`] from a basis that factors as it is.
//! Construct with `warm = false` (the `--cold` escape hatch) to solve
//! first through the presolved path and re-solve every epoch from the
//! all-slack crash basis instead, for A/B iteration measurements.
//!
//! [`rebuild`](TimeIndexedResolver::rebuild) replays the activation and
//! fix logs into a fresh model and seeds the same slot-block crash. It
//! serves only resolvers that have never solved (no basis to keep) and
//! journal recovery, which builds once from restored logs.

use crate::error::CoflowError;
use crate::model::{Coflow, CoflowInstance};
use crate::routing::Routing;
use crate::timeidx::{self, Built, FlowVars, LpRelaxation, LpSize, XChain};
use coflow_lp::{Basis, BasisStatus, Cmp, ConstraintId, Model, Pricing, SolverOptions, VarId};
use coflow_netgraph::{EdgeId, NodeId};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Persistent warm-started solver for a growing time-indexed LP.
/// See the module docs for the epoch loop it serves.
///
/// The instance is held as a [`Cow`]: batch callers borrow it
/// ([`new`](Self::new), zero-copy, the historical API), while the
/// streaming service owns it ([`new_owned`](Self::new_owned)) so coflows
/// can be admitted incrementally with
/// [`push_coflow`](Self::push_coflow) while the resolver is alive.
pub struct TimeIndexedResolver<'a> {
    inst: Cow<'a, CoflowInstance>,
    routing: Cow<'a, Routing>,
    horizon: u32,
    warm: bool,
    built: Option<Built>,
    /// `(slot, edge) → capacity row` index mirroring `built.cap_rows`.
    cap_index: BTreeMap<(u32, EdgeId), ConstraintId>,
    basis: Option<Basis>,
    solved_once: bool,
    // Replay logs for `rebuild`.
    activations: Vec<(usize, usize, u32)>,
    fixes: Vec<(usize, usize, u32, f64)>,
    certificate: LoadCertificate,
    // Instrumentation.
    resolves: usize,
    certified_infeasible: usize,
    solved_infeasible: usize,
    total_iterations: usize,
    last_iterations: usize,
    last_was_warm: bool,
}

impl<'a> TimeIndexedResolver<'a> {
    /// Creates an empty resolver over `(inst, routing)` with the given
    /// global horizon. Flows contribute nothing until
    /// [`activate_flow`](TimeIndexedResolver::activate_flow)ed.
    ///
    /// `warm = false` keeps every mutation but re-solves from the
    /// all-slack crash basis each time — the measurement baseline.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadRouting`] when routing does not match the
    /// instance.
    pub fn new(
        inst: &'a CoflowInstance,
        routing: &'a Routing,
        horizon: u32,
        warm: bool,
    ) -> Result<Self, CoflowError> {
        routing.validate(inst)?;
        Ok(Self::from_cows(
            Cow::Borrowed(inst),
            Cow::Borrowed(routing),
            horizon,
            warm,
        ))
    }

    /// Like [`new`](Self::new), but the resolver *owns* instance and
    /// routing — the streaming-service mode. An owned resolver has no
    /// borrow tying it to a caller frame, so it can live in a tenant map
    /// across epochs and move between runtime workers; it also unlocks
    /// [`push_coflow`](Self::push_coflow) for incremental admission.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadRouting`] when routing does not match the
    /// instance.
    pub fn new_owned(
        inst: CoflowInstance,
        routing: Routing,
        horizon: u32,
        warm: bool,
    ) -> Result<TimeIndexedResolver<'static>, CoflowError> {
        routing.validate(&inst)?;
        Ok(TimeIndexedResolver::from_cows(
            Cow::Owned(inst),
            Cow::Owned(routing),
            horizon,
            warm,
        ))
    }

    fn from_cows(
        inst: Cow<'a, CoflowInstance>,
        routing: Cow<'a, Routing>,
        horizon: u32,
        warm: bool,
    ) -> Self {
        TimeIndexedResolver {
            inst,
            routing,
            horizon,
            warm,
            built: None,
            cap_index: BTreeMap::new(),
            basis: None,
            solved_once: false,
            activations: Vec::new(),
            fixes: Vec::new(),
            certificate: LoadCertificate::default(),
            resolves: 0,
            certified_infeasible: 0,
            solved_infeasible: 0,
            total_iterations: 0,
            last_iterations: 0,
            last_was_warm: false,
        }
    }

    /// Admits a new coflow into an *owned* resolver (see
    /// [`new_owned`](Self::new_owned)), returning its index. The coflow
    /// is validated against the graph but contributes nothing to the
    /// model until its flows are
    /// [`activate_flow`](Self::activate_flow)ed — mirroring how the
    /// offline build skips inactive flows, so admission is O(1) on the
    /// LP.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadInstance`] when the resolver borrows its
    /// instance or the coflow fails validation;
    /// [`CoflowError::BadRouting`] under routing models whose per-flow
    /// path sets are indexed by the original coflow list (admission is
    /// supported for [`Routing::FreePath`] only).
    pub fn push_coflow(&mut self, cf: Coflow) -> Result<usize, CoflowError> {
        if !matches!(&*self.routing, Routing::FreePath) {
            return Err(CoflowError::BadRouting(
                "streaming admission is only supported under free-path routing".into(),
            ));
        }
        let nflows = cf.flows.len();
        let inst = match &mut self.inst {
            Cow::Owned(inst) => inst,
            Cow::Borrowed(_) => {
                return Err(CoflowError::BadInstance(
                    "push_coflow needs an owned instance — construct with new_owned".into(),
                ))
            }
        };
        let j = inst.push_coflow(cf)?;
        if let Some(built) = &mut self.built {
            // Mirror the offline build's placeholder layout: a freshly
            // admitted coflow is all-inactive until activated.
            built
                .flow_vars
                .push((0..nflows).map(|_| FlowVars::inactive()).collect());
            built.c_vars.push(None);
            built.x_coflow.push(None);
        }
        Ok(j)
    }

    /// The instance scheduled by this resolver (grows under
    /// [`push_coflow`](Self::push_coflow)).
    pub fn instance(&self) -> &CoflowInstance {
        &self.inst
    }

    /// The routing the model is built under.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The global horizon `T` the model is built over.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// LP solves run so far. An infeasible answer from the load
    /// certificate runs no LP and is not counted here (see
    /// [`certified_infeasible`](Self::certified_infeasible)).
    pub fn resolves(&self) -> usize {
        self.resolves
    }

    /// Infeasible answers the load certificate gave without an LP solve.
    pub fn certified_infeasible(&self) -> usize {
        self.certified_infeasible
    }

    /// Infeasible answers that took an LP solve to find (counted in
    /// [`resolves`](Self::resolves)).
    pub fn solved_infeasible(&self) -> usize {
        self.solved_infeasible
    }

    /// Simplex iterations across all solves.
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }

    /// Iterations of the most recent solve.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// Whether the most recent solve started from a supplied basis: one
    /// kept from an earlier solve, or the crash a
    /// [`rebuild`](Self::rebuild) seeded. The first solve of a resolver
    /// that never rebuilt is not warm, although it too runs the dual
    /// simplex from the slot-block crash.
    pub fn last_was_warm(&self) -> bool {
        self.last_was_warm
    }

    /// Activates flow `(j, i)`: its variables cover slots
    /// `first_slot ..= horizon`. Before the first solve this only
    /// records the activation (the model is built lazily, in offline
    /// build order); afterwards the flow's columns and rows are appended
    /// to the solved model and the kept basis is grown to match.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadInstance`] when `first_slot` lies outside
    /// `1..=horizon` — grow the horizon with
    /// [`grow_horizon`](Self::grow_horizon) first.
    pub fn activate_flow(
        &mut self,
        j: usize,
        i: usize,
        first_slot: u32,
    ) -> Result<(), CoflowError> {
        if !(1..=self.horizon).contains(&first_slot) {
            return Err(CoflowError::BadInstance(format!(
                "activation slot {first_slot} outside horizon {} for flow ({j},{i})",
                self.horizon
            )));
        }
        self.activations.push((j, i, first_slot));
        if self.built.is_some() {
            self.append_flow(j, i, first_slot);
        }
        Ok(())
    }

    /// Freezes the transmitted fraction of flow `(j, i)` in global
    /// `slot` (a bound change; the kept basis stays dual feasible).
    /// Fractions are of the flow's *original* demand. Panics when the
    /// flow is inactive or the slot precedes its activation.
    pub fn fix_slot(&mut self, j: usize, i: usize, slot: u32, fraction: f64) {
        assert!(
            self.built.is_some(),
            "fix_slot before the first solve — nothing was executed yet"
        );
        let fraction = fraction.clamp(0.0, 1.0);
        self.fixes.push((j, i, slot, fraction));
        self.apply_fix(j, i, slot, fraction);
    }

    /// The append-only activation log `(coflow, flow, first_slot)` that
    /// [`Self::rebuild`] replays. Exposed so a service-layer journal can
    /// persist resolver state in its native replay shape.
    pub fn activations(&self) -> &[(usize, usize, u32)] {
        &self.activations
    }

    /// The append-only executed-slot fix log
    /// `(coflow, flow, slot, fraction)` that [`Self::rebuild`] replays after
    /// the model is rebuilt.
    pub fn fixes(&self) -> &[(usize, usize, u32, f64)] {
        &self.fixes
    }

    /// Installs journaled activation/fix logs on a resolver that has
    /// never been built, in preparation for a single [`Self::rebuild`] that
    /// replays them — the crash-recovery path. No solves happen here or
    /// in [`Self::rebuild`]; recovery cost is one model build plus the fix
    /// replay, which is why journal recovery is an order of magnitude
    /// cheaper than re-solving every epoch.
    ///
    /// # Panics
    ///
    /// If the resolver already built a model or logged events of its
    /// own — recovery must start from a freshly constructed resolver.
    pub fn restore_logs(
        &mut self,
        activations: Vec<(usize, usize, u32)>,
        fixes: Vec<(usize, usize, u32, f64)>,
    ) {
        assert!(
            self.built.is_none() && self.activations.is_empty() && self.fixes.is_empty(),
            "restore_logs on a resolver that already has state"
        );
        self.activations = activations;
        self.fixes = fixes;
    }

    /// Re-solves the current model, warm-starting from the kept basis
    /// when one exists (and `warm` is on). `Ok(None)` reports
    /// infeasibility — the caller should
    /// [`grow_horizon`](Self::grow_horizon) and solve again.
    ///
    /// Before any LP work, the load certificate checks that every node's
    /// unfixed demand fits in its capacity over the open slots. When it
    /// does not, the answer is `None` without an LP solve: no model is
    /// built, the basis and [`last_was_warm`](Self::last_was_warm) stay
    /// as they are, and neither [`resolves`](Self::resolves) nor
    /// [`total_iterations`](Self::total_iterations) moves; only
    /// [`certified_infeasible`](Self::certified_infeasible) counts it.
    /// The certificate fires only where the LP is infeasible too.
    ///
    /// # Errors
    ///
    /// Any LP failure other than infeasibility.
    pub fn solve(&mut self, opts: &SolverOptions) -> Result<Option<LpRelaxation>, CoflowError> {
        if self
            .certificate
            .refutes(&self.inst, self.horizon, &self.activations, &self.fixes)
        {
            self.certified_infeasible += 1;
            return Ok(None);
        }
        self.ensure_built()?;
        self.resolves += 1;
        let built = self.built.as_ref().expect("ensured above");
        let size = LpSize {
            rows: built.model.num_constraints(),
            cols: built.model.num_vars(),
            nonzeros: built.model.num_nonzeros(),
        };
        if let Some(b) = &mut self.basis {
            b.grow(built.model.num_vars(), built.model.num_constraints());
        }
        let warm = if self.warm { self.basis.as_ref() } else { None };
        self.last_was_warm = warm.is_some();
        let result = if self.solved_once || warm.is_some() {
            // Epoch re-solves (and the first solve after a rebuild seeded
            // a basis) run dual steepest edge, whichever pricing rule the
            // caller's options carry.
            let epoch_opts = SolverOptions {
                pricing: Pricing::SteepestEdge,
                ..opts.clone()
            };
            built
                .model
                .solve_warm(warm, &epoch_opts)
                .map(|(sol, basis)| (sol, Some(basis)))
        } else if self.warm {
            // First solve: the cold start every time-indexed solve shares
            // with the offline relaxation, so a resolver whose flows all
            // activated up front reproduces it exactly, and its optimal
            // basis is kept for the next epoch. It started from a crash,
            // not a kept basis, so it does not count as warm.
            timeidx::solve_built(&built.model, opts)
        } else {
            // The `warm = false` baseline keeps the presolved first solve.
            built.model.solve_with(opts).map(|sol| (sol, None))
        };
        match result {
            Ok((sol, basis)) => {
                self.solved_once = true;
                if self.warm {
                    self.basis = basis;
                }
                self.last_iterations = sol.iterations;
                self.total_iterations += sol.iterations;
                Ok(Some(timeidx::extract(
                    &self.inst,
                    &self.routing,
                    built,
                    &sol,
                    self.horizon,
                    size,
                )))
            }
            Err(coflow_lp::LpError::Infeasible) => {
                self.solved_infeasible += 1;
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Solves the *current* model state from the all-slack crash basis
    /// without touching the resolver's basis or counters — the shadow
    /// measurement behind warm-vs-cold iteration comparisons on
    /// identical LPs. Returns `(objective, iterations)`, or `None` when
    /// infeasible.
    ///
    /// # Errors
    ///
    /// Any LP failure other than infeasibility.
    pub fn probe_cold(&self, opts: &SolverOptions) -> Result<Option<(f64, usize)>, CoflowError> {
        let Some(built) = &self.built else {
            return Err(CoflowError::Lp("probe_cold before the first solve".into()));
        };
        match built.model.solve_warm(None, opts) {
            Ok((sol, _)) => Ok(Some((sol.objective, sol.iterations))),
            Err(coflow_lp::LpError::Infeasible) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Grows the global horizon to `new_horizon` — the one growth entry
    /// point of the epoch loops. A resolver that has solved extends its
    /// live model in place: every active flow gets the new slots, its
    /// demand row moves to the new last prefix, every coflow chain gains
    /// the new `X_j(t)` and its completion right-hand side becomes
    /// `1 + new_horizon`. The kept basis grows with the model and stays
    /// nonsingular (see `grow_in_place`), so the next solve is warm and
    /// factors without a repair. A resolver that has never
    /// solved has no basis worth keeping and
    /// [`rebuild`](Self::rebuild)s from its logs instead. Panics if the
    /// horizon shrinks.
    ///
    /// # Errors
    ///
    /// As [`rebuild`](Self::rebuild), on the rebuild path only.
    pub fn grow_horizon(&mut self, new_horizon: u32) -> Result<(), CoflowError> {
        assert!(
            new_horizon >= self.horizon,
            "resolver horizon cannot shrink ({} -> {new_horizon})",
            self.horizon
        );
        if !self.solved_once {
            return self.rebuild(new_horizon);
        }
        if new_horizon > self.horizon {
            self.grow_in_place(new_horizon);
        }
        Ok(())
    }

    /// Rebuilds the model over a (possibly larger) horizon from the
    /// activation and fix logs, dropping the basis. With `warm` on, the
    /// slot-block crash of [`timeidx`]'s cold start seeds the next solve
    /// (counted as warm: it starts from a supplied basis); without the
    /// block signature, or with `warm` off, the next solve is a first
    /// solve again. Growth goes through [`grow_horizon`](Self::grow_horizon),
    /// which rebuilds only a resolver that has never solved; the other
    /// caller is journal recovery, which builds once from restored logs
    /// ([`restore_logs`](Self::restore_logs)). Panics if the horizon
    /// shrinks.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadInstance`] if a replayed activation no longer
    /// fits (cannot happen when the horizon grew).
    pub fn rebuild(&mut self, new_horizon: u32) -> Result<(), CoflowError> {
        assert!(
            new_horizon >= self.horizon,
            "resolver horizon cannot shrink ({} -> {new_horizon})",
            self.horizon
        );
        self.horizon = new_horizon;
        self.built = None;
        self.cap_index.clear();
        self.basis = None;
        self.solved_once = false;
        self.ensure_built()?;
        if self.warm {
            // Seed the cold start of `timeidx::solve_built`: the next
            // solve runs from the slot-block crash, dual steepest edge.
            let built = self.built.as_ref().expect("just built");
            self.basis = timeidx::crash_basis(&built.model);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Builds the model lazily from the activation log (offline build
    /// order), then replays any executed-slot fixes.
    fn ensure_built(&mut self) -> Result<(), CoflowError> {
        if self.built.is_some() {
            return Ok(());
        }
        let mut starts: Vec<Vec<Option<u32>>> = self
            .inst
            .coflows
            .iter()
            .map(|cf| vec![None; cf.flows.len()])
            .collect();
        for &(j, i, first_slot) in &self.activations {
            starts[j][i] = Some(first_slot);
        }
        let built = timeidx::build_with_starts(&self.inst, &self.routing, self.horizon, &starts)?;
        self.cap_index = built
            .cap_rows
            .iter()
            .map(|&(t, e, c)| ((t, e), c))
            .collect();
        self.built = Some(built);
        let fixes = std::mem::take(&mut self.fixes);
        for &(j, i, slot, fraction) in &fixes {
            self.apply_fix(j, i, slot, fraction);
        }
        self.fixes = fixes;
        Ok(())
    }

    /// Appends one flow's columns and rows to the built model, stitching
    /// it into the shared capacity rows and the coflow's completion
    /// structure.
    fn append_flow(&mut self, j: usize, i: usize, first_slot: u32) {
        let t_max = self.horizon;
        let built = self.built.as_mut().expect("append after build");
        built.flow_vars[j][i] = FlowVars {
            start: first_slot,
            ..FlowVars::inactive()
        };
        self.emit_slots(j, i, first_slot, t_max);

        // ---- Coflow completion structure ----
        let built = self.built.as_mut().expect("append after build");
        let model = &mut built.model;
        let fv = &built.flow_vars[j][i];
        match &mut built.x_coflow[j] {
            slot @ None => {
                // First active flow of this coflow: X_j spans its slots.
                let x: Vec<VarId> = (first_slot..=t_max)
                    .map(|_| model.add_var("", 0.0, 1.0, 0.0))
                    .collect();
                let c = model.add_var("", 1.0, f64::INFINITY, self.inst.coflows[j].weight);
                link_rows(model, fv, first_slot, &x, first_slot..=t_max);
                let mut terms: Vec<(VarId, f64)> = vec![(c, 1.0)];
                terms.extend(x.iter().map(|&v| (v, 1.0)));
                let completion = model.add_constraint(terms, Cmp::Ge, 1.0 + t_max as f64);
                *slot = Some(XChain {
                    start: first_slot,
                    x,
                    completion,
                });
                built.c_vars[j] = Some(c);
            }
            Some(chain) => {
                // A later flow joined: the coflow cannot have completed
                // before this flow's first slot — clamp earlier X to 0 —
                // and from then on X is bounded by the new flow's prefix.
                for t in chain.start..first_slot.max(chain.start) {
                    model.set_bounds(chain.x[(t - chain.start) as usize], 0.0, 0.0);
                }
                let from = first_slot.max(chain.start);
                link_rows(model, fv, chain.start, &chain.x, from..=t_max);
            }
        }
        if let Some(b) = &mut self.basis {
            b.grow(model.num_vars(), model.num_constraints());
        }
    }

    /// Extends the live model from the horizon `T` to `new_horizon`: every
    /// active flow gets slots `T+1 ..= new_horizon` and its demand row
    /// moves to the new last prefix; every coflow chain gets the new
    /// `X_j(t)`, linked to each active flow, in its completion row, whose
    /// right-hand side becomes `1 + new_horizon`.
    ///
    /// The kept basis grows with the model, and each flow's new prefixes
    /// `S_f(T+1 ..= T')` become basic in place of their prefix rows'
    /// slacks. Ordered after the old basis, that block is unit lower
    /// bidiagonal, and its Schur complement is the old basis itself: the
    /// only old column that changed, `S_f(T)`, lost its demand-row entry,
    /// and the complement puts it back. So the grown basis factors
    /// without a repair, and with the new slots idle its basic values
    /// are the old ones plus `S_f(t) = S_f(T)` for the new `t`, primal
    /// feasible for every flow the last optimum served.
    fn grow_in_place(&mut self, new_horizon: u32) {
        let from = self.horizon + 1;
        self.horizon = new_horizon;
        // The activation log names every active flow once.
        let mut prefixes = Vec::new();
        for k in 0..self.activations.len() {
            let (j, i, _) = self.activations[k];
            prefixes.extend(self.emit_slots(j, i, from, new_horizon));
        }
        let built = self.built.as_mut().expect("grow after build");
        let model = &mut built.model;
        for (chain, flows) in built.x_coflow.iter_mut().zip(&built.flow_vars) {
            let Some(chain) = chain else {
                continue;
            };
            let first_new = chain.x.len();
            chain
                .x
                .extend((from..=new_horizon).map(|_| model.add_var("", 0.0, 1.0, 0.0)));
            for fv in flows.iter().filter(|fv| !fv.s.is_empty()) {
                link_rows(model, fv, chain.start, &chain.x, from..=new_horizon);
            }
            for &xv in &chain.x[first_new..] {
                model.add_term(chain.completion, xv, 1.0);
            }
            model.set_rhs(chain.completion, 1.0 + f64::from(new_horizon));
        }
        if let Some(b) = &mut self.basis {
            b.grow(model.num_vars(), model.num_constraints());
            for (s, row) in prefixes {
                b.vars[s.index()] = BasisStatus::Basic;
                b.rows[row.index()] = BasisStatus::Lower;
            }
        }
    }

    /// Emits slots `from ..= to` of flow `(j, i)`, whose variables start
    /// at `flow_vars[j][i].start` and so far end at `from - 1`: the slot
    /// variables (per kind, in the offline build's per-flow layout), the
    /// prefix rows, the demand row on the new last prefix (added for a
    /// new flow, moved for a grown one), and the capacity terms — plus
    /// the conservation rows under free path. Returns the new prefix
    /// variables `S_f(t)`, each with its prefix row.
    fn emit_slots(&mut self, j: usize, i: usize, from: u32, to: u32) -> Vec<(VarId, ConstraintId)> {
        let built = self.built.as_mut().expect("emit after build");
        let model = &mut built.model;
        let fv = &mut built.flow_vars[j][i];
        let g = &self.inst.graph;
        let f = &self.inst.coflows[j].flows[i];
        let slots = (from - fv.start) as usize..(to + 1 - fv.start) as usize;
        let new_vars = |model: &mut Model| -> Vec<VarId> {
            slots
                .clone()
                .map(|_| model.add_var("", 0.0, 1.0, 0.0))
                .collect()
        };

        // ---- Variables ----
        match &*self.routing {
            Routing::SinglePath(_) | Routing::FreePath => fv.x.extend(new_vars(model)),
            Routing::MultiPath(sets) => {
                fv.paths.resize_with(sets[j][i].len(), Vec::new);
                for pv in &mut fv.paths {
                    pv.extend(new_vars(model));
                }
            }
        }
        fv.s.extend(new_vars(model));
        if matches!(&*self.routing, Routing::FreePath) {
            if fv.edges.is_empty() {
                fv.edges = timeidx::free_path_mask(g, f.src, f.dst)
                    .into_iter()
                    .map(|e| (e, Vec::new()))
                    .collect();
            }
            for (_, vars) in &mut fv.edges {
                vars.extend(new_vars(model));
            }
        }

        // ---- Prefix chain + total demand ----
        let mut prefixes = Vec::with_capacity(slots.len());
        for idx in slots.clone() {
            let mut terms: Vec<(VarId, f64)> = vec![(fv.s[idx], 1.0)];
            if idx > 0 {
                terms.push((fv.s[idx - 1], -1.0));
            }
            match &*self.routing {
                Routing::MultiPath(_) => {
                    for pv in &fv.paths {
                        terms.push((pv[idx], -1.0));
                    }
                }
                _ => terms.push((fv.x[idx], -1.0)),
            }
            prefixes.push((fv.s[idx], model.add_constraint(terms, Cmp::Eq, 0.0)));
        }
        let last = fv.s[slots.end - 1];
        match fv.demand {
            None => fv.demand = Some(model.add_constraint([(last, 1.0)], Cmp::Eq, 1.0)),
            Some(row) => {
                // `S_f(T) = 1` becomes `S_f(T') = 1`.
                model.add_term(row, fv.s[slots.start - 1], -1.0);
                model.add_term(row, last, 1.0);
            }
        }

        // ---- Capacity (and conservation for free path) ----
        let mut cap = |model: &mut Model, t: u32, e: EdgeId, v: VarId| {
            let row = Self::capacity_row(&mut self.cap_index, &mut built.cap_rows, model, g, t, e);
            model.add_term(row, v, f.demand);
        };
        match &*self.routing {
            Routing::SinglePath(paths) => {
                for idx in slots {
                    let t = fv.start + idx as u32;
                    for &e in paths[j][i].edges() {
                        cap(model, t, e, fv.x[idx]);
                    }
                }
            }
            Routing::MultiPath(sets) => {
                for (k, path) in sets[j][i].iter().enumerate() {
                    for idx in slots.clone() {
                        let t = fv.start + idx as u32;
                        for &e in path.edges() {
                            cap(model, t, e, fv.paths[k][idx]);
                        }
                    }
                }
            }
            Routing::FreePath => {
                let mut incident: BTreeMap<coflow_netgraph::NodeId, (Vec<usize>, Vec<usize>)> =
                    BTreeMap::new();
                for (pos, &(e, _)) in fv.edges.iter().enumerate() {
                    incident.entry(g.src(e)).or_default().1.push(pos); // out
                    incident.entry(g.dst(e)).or_default().0.push(pos); // in
                }
                for idx in slots {
                    let t = fv.start + idx as u32;
                    for (&v, (ins, outs)) in &incident {
                        let mut terms: Vec<(VarId, f64)> = Vec::new();
                        if v == f.src {
                            for &pos in outs {
                                terms.push((fv.edges[pos].1[idx], 1.0));
                            }
                            terms.push((fv.x[idx], -1.0));
                        } else if v == f.dst {
                            for &pos in ins {
                                terms.push((fv.edges[pos].1[idx], 1.0));
                            }
                            terms.push((fv.x[idx], -1.0));
                        } else {
                            for &pos in ins {
                                terms.push((fv.edges[pos].1[idx], 1.0));
                            }
                            for &pos in outs {
                                terms.push((fv.edges[pos].1[idx], -1.0));
                            }
                        }
                        model.add_constraint(terms, Cmp::Eq, 0.0);
                    }
                    for &(e, ref vars) in &fv.edges {
                        cap(model, t, e, vars[idx]);
                    }
                }
            }
        }
        prefixes
    }

    /// Looks up (or creates, with empty terms) the capacity row of
    /// `(slot, edge)`.
    fn capacity_row(
        cap_index: &mut BTreeMap<(u32, EdgeId), ConstraintId>,
        cap_rows: &mut Vec<(u32, EdgeId, ConstraintId)>,
        model: &mut Model,
        g: &coflow_netgraph::Graph,
        t: u32,
        e: EdgeId,
    ) -> ConstraintId {
        *cap_index.entry((t, e)).or_insert_with(|| {
            let row =
                model.add_constraint(std::iter::empty::<(VarId, f64)>(), Cmp::Le, g.capacity(e));
            cap_rows.push((t, e, row));
            row
        })
    }

    /// Applies one executed-slot fix to the built model.
    fn apply_fix(&mut self, j: usize, i: usize, slot: u32, fraction: f64) {
        let built = self.built.as_mut().expect("fix after build");
        let fv = &built.flow_vars[j][i];
        assert!(
            !fv.s.is_empty() && slot >= fv.start && slot <= self.horizon,
            "fix_slot({j},{i},{slot}): flow inactive or slot outside its variables"
        );
        let idx = (slot - fv.start) as usize;
        match &*self.routing {
            Routing::SinglePath(_) | Routing::FreePath => {
                built.model.set_bounds(fv.x[idx], fraction, fraction);
            }
            Routing::MultiPath(_) => {
                // No aggregate variable: pin the per-slot path sum with
                // an appended equality row instead.
                let terms: Vec<(VarId, f64)> = fv.paths.iter().map(|pv| (pv[idx], 1.0)).collect();
                built.model.add_constraint(terms, Cmp::Eq, fraction);
                if let Some(b) = &mut self.basis {
                    b.grow(built.model.num_vars(), built.model.num_constraints());
                }
            }
        }
    }
}

/// Adds the progress rows `S_f(t) ≥ X_j(t)` (constraint (2)) of flow
/// `fv` for `slots`, against the chain `x` that starts at `x_start`.
fn link_rows(
    model: &mut Model,
    fv: &FlowVars,
    x_start: u32,
    x: &[VarId],
    slots: std::ops::RangeInclusive<u32>,
) {
    for t in slots {
        let s = fv.s[(t - fv.start) as usize];
        let xv = x[(t - x_start) as usize];
        model.add_constraint([(s, 1.0), (xv, -1.0)], Cmp::Ge, 0.0);
    }
}

/// How far a node's unfixed load must exceed its open capacity, relative
/// to capacity and to the node's demand, before [`LoadCertificate`]
/// refutes the LP. It is far above the LP's summed feasibility
/// tolerances, so near-tight loads are always left to the LP.
const CERTIFICATE_MARGIN: f64 = 1e-3;

/// A necessary condition for the time-indexed LP to be feasible, checked
/// per node without building or solving it.
///
/// Whatever path it takes, a flow's unfixed demand `d_f·(1 − Σ fixed
/// fractions)` leaves its source, and enters its sink, in the flow's
/// open slots (active and not fixed). So the unfixed demand of the flows
/// a node sources must fit in the node's out-capacity times the number
/// of slots in which at least one of them is open, and likewise for
/// sinks and in-capacity. This holds under every routing; on a port
/// fabric whose flows share one open window it is also sufficient.
///
/// The state follows the resolver's activation and fix logs: each check
/// applies only the entries logged since the previous one, plus any
/// horizon growth.
#[derive(Default)]
struct LoadCertificate {
    horizon: u32,
    /// Entries of the activation and fix logs applied so far.
    activations: usize,
    fixes: usize,
    /// Per active flow: its first slot, and the fraction fixed in each
    /// slot from there on (negative while open), the last fix winning.
    flows: BTreeMap<(usize, usize), (u32, Vec<f64>)>,
    /// The load on each node's out-capacity (`(v, false)`) and
    /// in-capacity (`(v, true)`), for nodes that source or sink a flow.
    sides: BTreeMap<(NodeId, bool), SideLoad>,
}

/// The flows one node sources (or sinks), aggregated.
#[derive(Default)]
struct SideLoad {
    /// Capacity of the node's out- (or in-) edges.
    capacity: f64,
    /// Active flows.
    flows: u32,
    /// Their total demand `Σ d_f`.
    demand: f64,
    /// Their fixed volume `Σ d_f·fraction`.
    shipped: f64,
    /// Per slot `t` (at `t − 1`): how many of the flows have `t` open.
    open: Vec<u32>,
    /// Slots with at least one of the flows open.
    open_slots: u32,
}

impl SideLoad {
    fn open_slot(&mut self, t: u32) {
        let n = &mut self.open[t as usize - 1];
        *n += 1;
        if *n == 1 {
            self.open_slots += 1;
        }
    }

    fn close_slot(&mut self, t: u32) {
        let n = &mut self.open[t as usize - 1];
        *n -= 1;
        if *n == 0 {
            self.open_slots -= 1;
        }
    }

    /// Whether the unfixed demand overflows the open capacity by more
    /// than the margin.
    fn overloaded(&self) -> bool {
        let room = self.capacity * f64::from(self.open_slots);
        self.demand - self.shipped > room + CERTIFICATE_MARGIN * (room + self.demand)
    }
}

impl LoadCertificate {
    /// Brings the state up to `horizon` and the logs, then reports
    /// whether some node's load refutes feasibility.
    fn refutes(
        &mut self,
        inst: &CoflowInstance,
        horizon: u32,
        activations: &[(usize, usize, u32)],
        fixes: &[(usize, usize, u32, f64)],
    ) -> bool {
        if horizon > self.horizon {
            // Every active flow spans the whole horizon, so the new
            // slots are open for all of them.
            let grown = horizon - self.horizon;
            for side in self.sides.values_mut() {
                side.open.resize(horizon as usize, side.flows);
                side.open_slots += grown;
            }
            self.horizon = horizon;
        }
        let g = &inst.graph;
        for &(j, i, start) in &activations[self.activations..] {
            self.flows.insert((j, i), (start, Vec::new()));
            let f = &inst.coflows[j].flows[i];
            for (v, sinks) in [(f.src, false), (f.dst, true)] {
                let side = self.sides.entry((v, sinks)).or_insert_with(|| {
                    let edges = if sinks { g.in_edges(v) } else { g.out_edges(v) };
                    SideLoad {
                        capacity: edges.iter().map(|&e| g.capacity(e)).sum(),
                        open: vec![0; horizon as usize],
                        ..SideLoad::default()
                    }
                });
                side.flows += 1;
                side.demand += f.demand;
                for t in start..=horizon {
                    side.open_slot(t);
                }
            }
        }
        self.activations = activations.len();
        for &(j, i, slot, fraction) in &fixes[self.fixes..] {
            let (start, fixed) = self.flows.get_mut(&(j, i)).expect("fixed flows are active");
            let idx = (slot - *start) as usize;
            if fixed.len() <= idx {
                fixed.resize(idx + 1, -1.0);
            }
            let before = std::mem::replace(&mut fixed[idx], fraction);
            let f = &inst.coflows[j].flows[i];
            for key in [(f.src, false), (f.dst, true)] {
                let side = self.sides.get_mut(&key).expect("active flows have sides");
                if before < 0.0 {
                    side.close_slot(slot);
                } else {
                    side.shipped -= f.demand * before;
                }
                side.shipped += f.demand * fraction;
            }
        }
        self.fixes = fixes.len();
        self.sides.values().any(SideLoad::overloaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon::{horizon, HorizonMode};
    use crate::model::{Coflow, Flow};
    use crate::timeidx::solve_time_indexed;
    use coflow_netgraph::gadget::{with_io_gadget, IoLimit};
    use coflow_netgraph::topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fig2_instance() -> CoflowInstance {
        let topo = topology::fig2_example();
        let g = topo.graph;
        let s = g.node_by_label("s").unwrap();
        let t = g.node_by_label("t").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let v2 = g.node_by_label("v2").unwrap();
        CoflowInstance::new(
            g,
            vec![
                Coflow::weighted(2.0, vec![Flow::new(v1, t, 1.0)]),
                Coflow::weighted(1.0, vec![Flow::new(v2, t, 1.0)]),
                Coflow::weighted(3.0, vec![Flow::new(s, t, 3.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_at_once_first_solve_matches_offline_bitwise() {
        let inst = fig2_instance();
        let opts = SolverOptions::default();
        let t = 8;
        let offline = solve_time_indexed(&inst, &Routing::FreePath, t, &opts).unwrap();
        let mut r = TimeIndexedResolver::new(&inst, &Routing::FreePath, t, true).unwrap();
        for (key, f) in inst.flows() {
            let _ = f;
            r.activate_flow(key.coflow as usize, key.flow as usize, f.release + 1)
                .unwrap();
        }
        let lp = r.solve(&opts).unwrap().expect("feasible");
        assert_eq!(lp.objective.to_bits(), offline.objective.to_bits());
        assert_eq!(lp.lp_iterations, offline.lp_iterations);
    }

    #[test]
    fn appended_flow_resolves_warm_and_matches_cold() {
        let inst = fig2_instance();
        let opts = SolverOptions::default();
        let t = 8;
        let mut r = TimeIndexedResolver::new(&inst, &Routing::FreePath, t, true).unwrap();
        // Activate the two unit coflows, solve, then append the heavy one.
        r.activate_flow(0, 0, 1).unwrap();
        r.activate_flow(1, 0, 1).unwrap();
        r.solve(&opts).unwrap().expect("feasible");
        r.activate_flow(2, 0, 2).unwrap();
        let warm = r.solve(&opts).unwrap().expect("feasible");
        assert!(r.last_was_warm());
        let (cold_obj, _) = r.probe_cold(&opts).unwrap().expect("feasible");
        assert!(
            (warm.objective - cold_obj).abs() < 1e-6 * (1.0 + cold_obj.abs()),
            "warm {} vs cold probe {cold_obj}",
            warm.objective
        );
    }

    #[test]
    fn fixed_slots_freeze_history() {
        let inst = fig2_instance();
        let opts = SolverOptions::default();
        let mut r = TimeIndexedResolver::new(&inst, &Routing::FreePath, 10, true).unwrap();
        for (key, f) in inst.flows() {
            let _ = f;
            r.activate_flow(key.coflow as usize, key.flow as usize, 1)
                .unwrap();
        }
        r.solve(&opts).unwrap().expect("feasible");
        // Pretend nothing moved in slot 1 for the heavy coflow.
        r.fix_slot(2, 0, 1, 0.0);
        let lp = r.solve(&opts).unwrap().expect("feasible");
        let seg_in_slot1: f64 = lp.plan.flows[2][0]
            .segments
            .iter()
            .filter(|s| s.t1 <= 1.0 + 1e-9)
            .map(|s| s.volume())
            .sum();
        assert!(seg_in_slot1 < 1e-9, "slot 1 still carries {seg_in_slot1}");
    }

    #[test]
    fn pushed_coflow_joins_the_live_model() {
        let inst = fig2_instance();
        let opts = SolverOptions::default();
        // Start from the first two coflows only; the heavy one arrives
        // later through the streaming admission path.
        let late = inst.coflows[2].clone();
        let early = CoflowInstance::new(inst.graph.clone(), inst.coflows[..2].to_vec()).unwrap();
        let mut r = TimeIndexedResolver::new_owned(early, Routing::FreePath, 8, true).unwrap();
        r.activate_flow(0, 0, 1).unwrap();
        r.activate_flow(1, 0, 1).unwrap();
        r.solve(&opts).unwrap().expect("feasible");
        let j = r.push_coflow(late).unwrap();
        assert_eq!(j, 2);
        assert_eq!(r.instance().num_coflows(), 3);
        r.activate_flow(j, 0, 2).unwrap();
        let warm = r.solve(&opts).unwrap().expect("feasible");
        assert!(r.last_was_warm());
        // Same model as activating the pre-declared coflow at slot 2.
        let full = fig2_instance();
        let mut b = TimeIndexedResolver::new(&full, &Routing::FreePath, 8, true).unwrap();
        b.activate_flow(0, 0, 1).unwrap();
        b.activate_flow(1, 0, 1).unwrap();
        b.solve(&opts).unwrap().expect("feasible");
        b.activate_flow(2, 0, 2).unwrap();
        let reference = b.solve(&opts).unwrap().expect("feasible");
        assert_eq!(warm.objective.to_bits(), reference.objective.to_bits());
    }

    #[test]
    fn push_coflow_rejected_on_borrowed_instance() {
        let inst = fig2_instance();
        let extra = inst.coflows[0].clone();
        let mut r = TimeIndexedResolver::new(&inst, &Routing::FreePath, 8, true).unwrap();
        assert!(matches!(
            r.push_coflow(extra),
            Err(CoflowError::BadInstance(_))
        ));
    }

    #[test]
    fn rebuild_grows_the_horizon_and_replays_state() {
        let inst = fig2_instance();
        let opts = SolverOptions::default();
        let t0 = horizon(
            &inst,
            &Routing::FreePath,
            HorizonMode::Greedy { margin: 1.25 },
        )
        .unwrap();
        let mut r = TimeIndexedResolver::new(&inst, &Routing::FreePath, t0, true).unwrap();
        for (key, f) in inst.flows() {
            let _ = f;
            r.activate_flow(key.coflow as usize, key.flow as usize, 1)
                .unwrap();
        }
        let a = r.solve(&opts).unwrap().expect("feasible");
        r.fix_slot(0, 0, 1, 0.5);
        r.rebuild(t0 * 2).unwrap();
        let b = r.solve(&opts).unwrap().expect("feasible after rebuild");
        // The horizon only caps completions, so growing it leaves the
        // optimum in place, while the replayed fix can only restrict.
        assert!(b.objective >= a.objective - 1e-6);
        assert_eq!(r.horizon(), t0 * 2);
    }

    /// Two coflows that share `s → t` traffic plus a unit coflow, on
    /// the Figure-2 network (every edge capacity 1, cut into `t` of 3).
    fn growth_instance() -> CoflowInstance {
        let g = topology::fig2_example().graph;
        let node = |l: &str| g.node_by_label(l).unwrap();
        let (s, t) = (node("s"), node("t"));
        CoflowInstance::new(
            g.clone(),
            vec![
                Coflow::weighted(
                    2.0,
                    vec![Flow::new(node("v1"), t, 1.0), Flow::new(s, t, 2.0)],
                ),
                Coflow::weighted(1.0, vec![Flow::new(node("v2"), t, 1.0)]),
                Coflow::weighted(
                    3.0,
                    vec![Flow::new(node("v3"), t, 1.0), Flow::new(s, t, 1.0)],
                ),
            ],
        )
        .unwrap()
    }

    fn growth_routings(inst: &CoflowInstance) -> Vec<Routing> {
        let mut rng = StdRng::seed_from_u64(3);
        vec![
            Routing::FreePath,
            crate::routing::random_shortest_paths(inst, &mut rng).unwrap(),
            crate::routing::k_shortest_path_sets(inst, 3).unwrap(),
        ]
    }

    /// Grows `r` to `t` and checks that it grew in place.
    fn grow(r: &mut TimeIndexedResolver<'_>, t: u32) {
        r.grow_horizon(t).unwrap();
        assert_eq!(r.horizon(), t);
        assert!(r.solved_once, "a solved resolver grows in place");
    }

    /// The grown model is the LP a rebuild from the same logs at the same
    /// horizon builds, and it re-solves warm, without a basis repair, to
    /// the cold optimum.
    fn assert_matches_rebuild(r: &mut TimeIndexedResolver<'_>, opts: &SolverOptions) {
        let (grown, _) = r.probe_cold(opts).unwrap().expect("grown model feasible");
        let mut fresh = TimeIndexedResolver::new_owned(
            r.instance().clone(),
            r.routing().clone(),
            r.horizon(),
            true,
        )
        .unwrap();
        fresh.restore_logs(r.activations().to_vec(), r.fixes().to_vec());
        fresh.rebuild(r.horizon()).unwrap();
        let (rebuilt, _) = fresh.probe_cold(opts).unwrap().expect("rebuilt feasible");
        assert!(
            (grown - rebuilt).abs() <= 1e-9 * (1.0 + rebuilt.abs()),
            "grown {grown} vs rebuilt {rebuilt}"
        );
        let warm = r.solve(opts).unwrap().expect("feasible after growth");
        assert!(r.last_was_warm());
        // The patched basis factors as it is.
        assert_eq!(warm.stats.refactor_repair, 0, "grown basis needed a repair");
        assert!(
            (warm.objective - grown).abs() <= 1e-6 * (1.0 + grown.abs()),
            "warm {} vs cold probe {grown}",
            warm.objective
        );
    }

    /// Freezes `slot` of every flow active by then at the fraction `lp`
    /// planned for it (multi-path adds fix rows).
    fn fix_as_planned(r: &mut TimeIndexedResolver<'_>, lp: &LpRelaxation, slot: u32) {
        let active: Vec<(usize, usize, u32)> = r.activations().to_vec();
        for (j, i, first) in active.into_iter().filter(|a| a.2 <= slot) {
            let _ = first;
            let demand = r.instance().coflows[j].flows[i].demand;
            let vol: f64 = lp.plan.flows[j][i]
                .segments
                .iter()
                .filter(|seg| seg.t1 == f64::from(slot))
                .map(|seg| seg.volume())
                .sum();
            r.fix_slot(j, i, slot, vol / demand);
        }
    }

    #[test]
    fn growth_in_place_matches_a_rebuild_from_the_logs() {
        let inst = growth_instance();
        let opts = SolverOptions::default();
        for routing in growth_routings(&inst) {
            let mut r = TimeIndexedResolver::new(&inst, &routing, 6, true).unwrap();
            r.activate_flow(0, 0, 1).unwrap();
            r.activate_flow(1, 0, 1).unwrap();
            r.solve(&opts).unwrap().expect("feasible");
            // Coflow 0's second flow joins late: its X chain started at
            // slot 1 and is clamped to 0 before slot 3.
            r.activate_flow(0, 1, 3).unwrap();
            let lp = r.solve(&opts).unwrap().expect("feasible");
            fix_as_planned(&mut r, &lp, 1);
            fix_as_planned(&mut r, &lp, 2);
            grow(&mut r, 8);
            assert_matches_rebuild(&mut r, &opts);
            // Grow before activating past the old horizon.
            grow(&mut r, 12);
            r.activate_flow(2, 0, 10).unwrap();
            r.activate_flow(2, 1, 10).unwrap();
            assert_matches_rebuild(&mut r, &opts);
        }
    }

    #[test]
    fn growth_after_an_infeasible_warm_solve_resolves_warm() {
        let inst = growth_instance();
        let opts = SolverOptions::default();
        for routing in growth_routings(&inst) {
            let mut r = TimeIndexedResolver::new(&inst, &routing, 3, true).unwrap();
            r.activate_flow(0, 0, 1).unwrap();
            r.activate_flow(1, 0, 1).unwrap();
            r.solve(&opts).unwrap().expect("feasible");
            // Four units into `t` in the last slot, whose cut is 3.
            r.activate_flow(0, 1, 3).unwrap();
            r.activate_flow(2, 0, 3).unwrap();
            r.activate_flow(2, 1, 3).unwrap();
            assert!(r.solve(&opts).unwrap().is_none(), "{routing:?}");
            assert!(r.last_was_warm());
            grow(&mut r, 6);
            assert_matches_rebuild(&mut r, &opts);
        }
    }

    #[test]
    fn growth_before_the_first_solve_rebuilds() {
        let inst = growth_instance();
        let opts = SolverOptions::default();
        let mut r = TimeIndexedResolver::new(&inst, &Routing::FreePath, 2, true).unwrap();
        r.activate_flow(0, 0, 1).unwrap();
        r.grow_horizon(5).unwrap();
        assert!(!r.solved_once);
        r.activate_flow(1, 0, 4).unwrap();
        assert!(r.solve(&opts).unwrap().is_some());
    }

    /// Endpoints for random flows: the inner port nodes of a 4-port big
    /// switch whose port limits come from the I/O gadget, or any two
    /// SWAN sites. Returns the graph, sources, sinks and a demand scale
    /// that overloads some nodes of a few-slot horizon.
    fn endpoints(switch: bool) -> (coflow_netgraph::Graph, Vec<NodeId>, Vec<NodeId>, f64) {
        if switch {
            let fabric = topology::bipartite_switch(4, 1.0);
            let limits = vec![IoLimit::symmetric(1.0); fabric.graph.node_count()];
            let gg = with_io_gadget(&fabric.graph, &limits);
            let inner =
                |vs: &[NodeId]| -> Vec<NodeId> { vs.iter().map(|v| gg.inner[v.index()]).collect() };
            let (srcs, dsts) = (inner(&fabric.sources), inner(&fabric.sinks));
            (gg.graph, srcs, dsts, 2.5)
        } else {
            let g = topology::swan().graph;
            let all: Vec<NodeId> = g.nodes().collect();
            (g, all.clone(), all, 45.0)
        }
    }

    /// One of the three routing models, by `kind`.
    fn routing_of(inst: &CoflowInstance, kind: usize, rng: &mut StdRng) -> Routing {
        match kind {
            0 => Routing::FreePath,
            1 => crate::routing::random_shortest_paths(inst, rng).unwrap(),
            _ => crate::routing::k_shortest_path_sets(inst, 2).unwrap(),
        }
    }

    /// Solves `r` and reports whether the load certificate answered.
    /// Whenever it does, the LP on the same model must be infeasible.
    fn certified(r: &mut TimeIndexedResolver<'_>, opts: &SolverOptions) -> bool {
        let before = (r.certified_infeasible(), r.resolves());
        let out = r.solve(opts).unwrap();
        if r.certified_infeasible() == before.0 {
            return false;
        }
        assert!(out.is_none());
        assert_eq!(r.resolves(), before.1, "a certified answer runs no LP");
        r.ensure_built().unwrap();
        assert!(
            r.probe_cold(opts).unwrap().is_none(),
            "the certificate refuted a feasible LP"
        );
        true
    }

    /// Fixes a random slot of each active flow with probability 1/2, at
    /// a random fraction (the slot may have been fixed before).
    fn fix_some(r: &mut TimeIndexedResolver<'_>, rng: &mut StdRng) {
        r.ensure_built().unwrap();
        for (j, i, start) in r.activations().to_vec() {
            if rng.gen_bool(0.5) {
                let slot = rng.gen_range(start..=r.horizon());
                r.fix_slot(j, i, slot, rng.gen_range(0.0..0.6));
            }
        }
    }

    #[test]
    fn first_solve_keeps_its_optimal_basis() {
        // The first solve starts from the slot-block crash, which is not
        // a kept basis, and keeps the optimal basis it ends on: the
        // second solve is warm and factors that basis as it is. (A basis
        // crashed from the optimal point needed a repair in every case.)
        let opts = SolverOptions::default();
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..12 {
            let (g, srcs, dsts, scale) = endpoints(case % 2 == 1);
            let coflows: Vec<Coflow> = (0..6)
                .map(|_| {
                    let flows = (0..rng.gen_range(1..=2))
                        .map(|_| {
                            let a = srcs[rng.gen_range(0..srcs.len())];
                            let mut b = dsts[rng.gen_range(0..dsts.len())];
                            while b == a {
                                b = dsts[rng.gen_range(0..dsts.len())];
                            }
                            Flow::new(a, b, rng.gen_range(0.2..1.0) * scale / 3.0)
                        })
                        .collect();
                    Coflow::weighted(rng.gen_range(1.0..10.0), flows)
                })
                .collect();
            let inst = CoflowInstance::new(g, coflows).unwrap();
            let routing = routing_of(&inst, case % 3, &mut rng);
            let t = horizon(&inst, &routing, HorizonMode::Greedy { margin: 1.5 }).unwrap();
            let mut r = TimeIndexedResolver::new(&inst, &routing, t, true).unwrap();
            let activate = |r: &mut TimeIndexedResolver<'_>, js: std::ops::Range<usize>, at| {
                for j in js {
                    for i in 0..inst.coflows[j].flows.len() {
                        r.activate_flow(j, i, at).unwrap();
                    }
                }
            };
            activate(&mut r, 0..4, 1);
            r.solve(&opts).unwrap().expect("feasible");
            assert!(!r.last_was_warm(), "case {case}: a crash start is not warm");
            activate(&mut r, 4..6, 2);
            let second = r.solve(&opts).unwrap().expect("feasible");
            assert!(r.last_was_warm(), "case {case}");
            assert_eq!(
                second.stats.refactor_repair, 0,
                "case {case}: the first solve's basis needed a repair"
            );
            let (cold, _) = r.probe_cold(&opts).unwrap().expect("feasible");
            assert!(
                (second.objective - cold).abs() <= 1e-9 * cold.abs().max(1.0),
                "case {case}: warm {} vs cold probe {cold}",
                second.objective
            );
        }
    }

    #[test]
    fn load_certificate_only_refutes_infeasible_lps() {
        let opts = SolverOptions::default();
        let mut rng = StdRng::seed_from_u64(20);
        let (mut cases, mut fired) = (0, 0);
        for case in 0..120 {
            let (g, srcs, dsts, scale) = endpoints(case % 2 == 0);
            let coflows: Vec<Coflow> = (0..rng.gen_range(2..5))
                .map(|_| {
                    let flows = (0..rng.gen_range(1..3))
                        .map(|_| {
                            let a = srcs[rng.gen_range(0..srcs.len())];
                            let mut b = dsts[rng.gen_range(0..dsts.len())];
                            while b == a {
                                b = dsts[rng.gen_range(0..dsts.len())];
                            }
                            Flow::new(a, b, rng.gen_range(0.1..scale))
                        })
                        .collect();
                    Coflow::weighted(rng.gen_range(1.0..3.0), flows)
                })
                .collect();
            let inst = CoflowInstance::new(g, coflows).unwrap();
            let routing = routing_of(&inst, case / 2 % 3, &mut rng);
            let flows: Vec<(usize, usize)> = inst
                .flows()
                .map(|(k, _)| (k.coflow as usize, k.flow as usize))
                .collect();
            let (early, late) = flows.split_at(rng.gen_range(1..=flows.len()));
            let mut r =
                TimeIndexedResolver::new(&inst, &routing, rng.gen_range(2..5), true).unwrap();
            for &(j, i) in early {
                r.activate_flow(j, i, rng.gen_range(1..=r.horizon()))
                    .unwrap();
            }
            // Check after the activations, after fixes, after growth
            // (in place or rebuilt) and after late activations.
            for step in 0..4 {
                match step {
                    1 => fix_some(&mut r, &mut rng),
                    2 => r.grow_horizon(r.horizon() + rng.gen_range(1..3)).unwrap(),
                    3 => {
                        for &(j, i) in late {
                            r.activate_flow(j, i, rng.gen_range(1..=r.horizon()))
                                .unwrap();
                        }
                        fix_some(&mut r, &mut rng);
                    }
                    _ => {}
                }
                cases += 1;
                fired += usize::from(certified(&mut r, &opts));
            }
        }
        // Not vacuous: 211 of the 480 checks fire with this seed, on
        // both topologies under every routing.
        assert!(
            fired >= 150,
            "certificate fired on {fired} of {cases} checks"
        );
    }

    #[test]
    fn load_certificate_leaves_near_tight_loads_to_the_lp() {
        let opts = SolverOptions::default();
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..60 {
            let (g, srcs, dsts, _) = endpoints(case % 2 == 0);
            // One source node sends to every sink; its load after `k`
            // fixed slots is within the margin of its capacity over the
            // remaining open slots.
            let src = srcs[rng.gen_range(0..srcs.len())];
            let sinks: Vec<NodeId> = dsts.iter().copied().filter(|&d| d != src).collect();
            let cap: f64 = g.out_edges(src).iter().map(|&e| g.capacity(e)).sum();
            let (start, horizon) = (rng.gen_range(1..3), rng.gen_range(4..8));
            let k = rng.gen_range(0..horizon - start);
            let open = horizon - start + 1 - k;
            let delta = rng.gen_range(-2e-3..0.99 * CERTIFICATE_MARGIN);
            let target = cap * f64::from(open) * (1.0 + delta);
            // Fraction `u/2` of each flow is fixed across the `k` slots.
            // Demands follow the sinks' in-capacities, which leaves every
            // sink below its own bound.
            let u: Vec<f64> = sinks.iter().map(|_| rng.gen_range(0.0..0.5)).collect();
            let w: Vec<f64> = sinks
                .iter()
                .map(|&d| {
                    let in_cap: f64 = g.in_edges(d).iter().map(|&e| g.capacity(e)).sum();
                    in_cap * rng.gen_range(0.9..1.0)
                })
                .collect();
            let unfixed_per_unit: f64 = w
                .iter()
                .zip(&u)
                .map(|(w, u)| w * if k > 0 { 1.0 - u / 2.0 } else { 1.0 })
                .sum();
            let flows = sinks
                .iter()
                .zip(&w)
                .map(|(&d, w)| Flow::new(src, d, w * target / unfixed_per_unit))
                .collect();
            let inst = CoflowInstance::new(g, vec![Coflow::weighted(1.0, flows)]).unwrap();
            let routing = routing_of(&inst, case / 2 % 3, &mut rng);
            let mut r = TimeIndexedResolver::new(&inst, &routing, horizon, true).unwrap();
            for i in 0..sinks.len() {
                r.activate_flow(0, i, start).unwrap();
            }
            r.ensure_built().unwrap();
            for (i, u) in u.iter().enumerate() {
                for slot in start..start + k {
                    r.fix_slot(0, i, slot, u / 2.0 / f64::from(k));
                }
            }
            let _ = r.solve(&opts).unwrap();
            assert_eq!(r.certified_infeasible(), 0, "case {case}: delta {delta:e}");
        }
    }
}

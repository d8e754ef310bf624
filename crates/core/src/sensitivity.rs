//! What-if analysis on a built time-indexed relaxation, powered by
//! warm-started LP re-solves.
//!
//! WAN operators ask "what happens to coflow completion times if this
//! link degrades to 40%?" or "how much does doubling this tenant's
//! priority cost everyone else?". Both questions perturb an LP that was
//! already solved: capacity changes touch only right-hand sides (the old
//! basis stays *dual* feasible → dual simplex), weight changes touch
//! only objective coefficients (the old basis stays *primal* feasible →
//! phase 2 resumes). [`Sensitivity`] keeps the model and basis alive
//! across a whole sweep, so an n-point sweep costs one cold solve plus
//! n−1 cheap re-solves instead of n cold solves.
//!
//! ```
//! use coflow_core::model::{Coflow, CoflowInstance, Flow};
//! use coflow_core::routing::Routing;
//! use coflow_core::sensitivity::Sensitivity;
//! use coflow_lp::SolverOptions;
//! use coflow_netgraph::topology;
//!
//! let topo = topology::line(2, 1.0);
//! let g = topo.graph;
//! let v0 = g.node_by_label("v0").unwrap();
//! let v1 = g.node_by_label("v1").unwrap();
//! let inst = CoflowInstance::new(
//!     g,
//!     vec![Coflow::new(vec![Flow::new(v0, v1, 2.0)])],
//! ).unwrap();
//!
//! let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 8).unwrap();
//! let base = sens.solve(&SolverOptions::default()).unwrap();
//! sens.scale_all_capacities(0.5); // every link at half speed
//! let degraded = sens.solve(&SolverOptions::default()).unwrap();
//! assert!(degraded.objective >= base.objective - 1e-6);
//! ```

use crate::error::CoflowError;
use crate::model::CoflowInstance;
use crate::routing::Routing;
use crate::timeidx::{self, Built, LpRelaxation, LpSize};
use coflow_lp::{Basis, SolverOptions};
use coflow_netgraph::EdgeId;

/// A reusable what-if solver over one instance/routing/horizon triple.
/// See the module docs for the intended sweep loop.
pub struct Sensitivity<'a> {
    inst: &'a CoflowInstance,
    routing: &'a Routing,
    horizon: u32,
    built: Built,
    /// Baseline capacity per edge index (for factor-based perturbation).
    base_cap: Vec<f64>,
    /// Current multiplicative factor per edge index.
    factor: Vec<f64>,
    basis: Option<Basis>,
    /// Iterations of the most recent [`solve`](Sensitivity::solve).
    last_iterations: usize,
    /// Whether the most recent solve reused a basis.
    last_was_warm: bool,
    /// Row duals from the most recent solve.
    last_duals: Option<Vec<f64>>,
}

impl<'a> Sensitivity<'a> {
    /// Builds the time-indexed LP once. Perturb-and-solve afterwards.
    ///
    /// # Errors
    ///
    /// Same construction errors as
    /// [`solve_time_indexed`](crate::timeidx::solve_time_indexed):
    /// mismatched routing or an impossible horizon.
    pub fn new(
        inst: &'a CoflowInstance,
        routing: &'a Routing,
        horizon: u32,
    ) -> Result<Self, CoflowError> {
        let built = timeidx::build(inst, routing, horizon)?;
        let g = &inst.graph;
        let base_cap: Vec<f64> = (0..g.edge_count())
            .map(|i| g.capacity(EdgeId::from_index(i)))
            .collect();
        let factor = vec![1.0; base_cap.len()];
        Ok(Sensitivity {
            inst,
            routing,
            horizon,
            built,
            base_cap,
            factor,
            basis: None,
            last_iterations: 0,
            last_was_warm: false,
            last_duals: None,
        })
    }

    /// Scales the capacity of every edge to `factor ×` its *baseline*
    /// value (not cumulative: calling with `0.5` twice still means 50%).
    ///
    /// Panics on a non-positive or non-finite factor — a zero-capacity
    /// network can never ship the demands and the LP would just report
    /// infeasible in a less legible way.
    pub fn scale_all_capacities(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "capacity factor must be positive and finite"
        );
        self.factor.iter_mut().for_each(|f| *f = factor);
        self.apply_capacities();
    }

    /// Scales one edge to `factor ×` its baseline capacity. Same
    /// non-cumulative semantics and panics as
    /// [`scale_all_capacities`](Sensitivity::scale_all_capacities).
    pub fn scale_edge_capacity(&mut self, e: EdgeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "capacity factor must be positive and finite"
        );
        self.factor[e.index()] = factor;
        self.apply_capacities();
    }

    /// Changes the weight (priority) of coflow `j` in the objective.
    /// The instance itself is untouched; only the LP objective moves.
    pub fn set_weight(&mut self, j: usize, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "coflow weight must be finite and non-negative"
        );
        let c = self.built.c_vars[j].expect("offline build covers every coflow");
        self.built.model.set_obj(c, weight);
    }

    fn apply_capacities(&mut self) {
        for &(_, e, row) in &self.built.cap_rows {
            let cap = self.base_cap[e.index()] * self.factor[e.index()];
            self.built.model.set_rhs(row, cap);
        }
    }

    /// Re-solves the (possibly perturbed) LP, warm-starting from the
    /// previous basis when one exists.
    ///
    /// # Errors
    ///
    /// [`CoflowError::Lp`] — in particular `Infeasible` when capacities
    /// were cut so far the demands no longer fit in the horizon.
    pub fn solve(&mut self, opts: &SolverOptions) -> Result<LpRelaxation, CoflowError> {
        self.solve_or_infeasible(opts)?
            .ok_or(CoflowError::Lp(coflow_lp::LpError::Infeasible.to_string()))
    }

    /// Like [`solve`](Sensitivity::solve), but reports infeasibility as
    /// `Ok(None)` instead of an error — handy inside sweeps where some
    /// points are expected to starve the network.
    ///
    /// # Errors
    ///
    /// Any LP failure *other* than infeasibility.
    pub fn solve_or_infeasible(
        &mut self,
        opts: &SolverOptions,
    ) -> Result<Option<LpRelaxation>, CoflowError> {
        let size = LpSize {
            rows: self.built.model.num_constraints(),
            cols: self.built.model.num_vars(),
            nonzeros: self.built.model.num_nonzeros(),
        };
        self.last_was_warm = self.basis.is_some();
        // Without a basis, the time-indexed cold start (slot-block crash,
        // dual steepest edge) — a crash, not a kept basis, so not warm.
        // Presolve stays off so that a model without the block signature
        // still reports the duals behind `shadow_prices`.
        let result = match &self.basis {
            Some(basis) => self
                .built
                .model
                .solve_warm(Some(basis), opts)
                .map(|(sol, basis)| (sol, Some(basis))),
            None => {
                let cold = SolverOptions {
                    presolve: false,
                    ..opts.clone()
                };
                timeidx::solve_built(&self.built.model, &cold)
            }
        };
        match result {
            Ok((sol, basis)) => {
                self.last_iterations = sol.iterations;
                self.basis = basis;
                self.last_duals = sol.duals.clone();
                Ok(Some(timeidx::extract(
                    self.inst,
                    self.routing,
                    &self.built,
                    &sol,
                    self.horizon,
                    size,
                )))
            }
            Err(coflow_lp::LpError::Infeasible) => {
                self.last_iterations = 0;
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Simplex iterations of the most recent solve.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// Whether the most recent solve reused a basis.
    pub fn last_was_warm(&self) -> bool {
        self.last_was_warm
    }

    /// Drops the stored basis; the next solve starts cold. Useful for
    /// apples-to-apples iteration-count comparisons.
    pub fn reset_basis(&mut self) {
        self.basis = None;
    }

    /// Per-edge **shadow prices** from the most recent solve: the
    /// marginal decrease in `Σ w_j C_j` per extra unit of capacity on
    /// that edge (summed over the capacity rows of all time slots,
    /// sign-flipped so bigger = more critical; always ≥ 0 up to solver
    /// tolerance).
    ///
    /// This answers "which link is the bottleneck?" from one solve,
    /// where a brute-force answer needs one re-solve per link. Returns
    /// `None` before the first successful solve. At degenerate optima
    /// the prices are one valid subgradient choice — treat near-zero
    /// values as "not binding" rather than exactly zero.
    pub fn shadow_prices(&self) -> Option<Vec<f64>> {
        let duals = self.last_duals.as_ref()?;
        let mut per_edge = vec![0.0; self.base_cap.len()];
        for &(_, e, row) in &self.built.cap_rows {
            per_edge[e.index()] -= duals[row.index()];
        }
        Some(per_edge)
    }
}

/// One point of a [`capacity_sweep`].
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Capacity factor applied to every edge.
    pub factor: f64,
    /// LP lower bound at this factor, `None` when infeasible (demands
    /// no longer fit the horizon at this capacity).
    pub lp_bound: Option<f64>,
    /// Simplex iterations the (warm) re-solve needed.
    pub iterations: usize,
}

/// Sweeps a uniform capacity factor across `factors`, warm-starting
/// every step, and reports the LP lower bound per point.
///
/// Factors are visited in the order given; sorting them (descending
/// capacity loss) usually minimizes total pivots.
///
/// # Errors
///
/// Construction errors from [`Sensitivity::new`]. Per-point
/// infeasibility is *not* an error — it is reported as `lp_bound: None`
/// (the basis is reset so the next point starts cold).
pub fn capacity_sweep(
    inst: &CoflowInstance,
    routing: &Routing,
    horizon: u32,
    factors: &[f64],
    opts: &SolverOptions,
) -> Result<Vec<SweepPoint>, CoflowError> {
    let mut sens = Sensitivity::new(inst, routing, horizon)?;
    let mut out = Vec::with_capacity(factors.len());
    for &factor in factors {
        sens.scale_all_capacities(factor);
        match sens.solve_or_infeasible(opts)? {
            Some(lp) => out.push(SweepPoint {
                factor,
                lp_bound: Some(lp.objective),
                iterations: sens.last_iterations(),
            }),
            None => {
                out.push(SweepPoint {
                    factor,
                    lp_bound: None,
                    iterations: sens.last_iterations(),
                });
                sens.reset_basis();
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Coflow, Flow};
    use crate::timeidx::solve_time_indexed;
    use coflow_netgraph::topology;

    fn small_instance() -> CoflowInstance {
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
    fn warm_sweep_matches_cold_solves_per_point() {
        let inst = small_instance();
        let opts = SolverOptions::default();
        let factors = [1.0, 0.9, 0.8, 0.7, 0.6];
        let sweep = capacity_sweep(&inst, &Routing::FreePath, 10, &factors, &opts).unwrap();
        for pt in &sweep {
            // Cold reference: rebuild the instance with scaled capacities.
            let topo = topology::fig2_example().scale_capacity(pt.factor);
            let g = topo.graph;
            let s = g.node_by_label("s").unwrap();
            let t = g.node_by_label("t").unwrap();
            let v1 = g.node_by_label("v1").unwrap();
            let v2 = g.node_by_label("v2").unwrap();
            let cold_inst = CoflowInstance::new(
                g,
                vec![
                    Coflow::weighted(2.0, vec![Flow::new(v1, t, 1.0)]),
                    Coflow::weighted(1.0, vec![Flow::new(v2, t, 1.0)]),
                    Coflow::weighted(3.0, vec![Flow::new(s, t, 3.0)]),
                ],
            )
            .unwrap();
            let cold = solve_time_indexed(&cold_inst, &Routing::FreePath, 10, &opts).unwrap();
            let warm = pt.lp_bound.expect("feasible at these factors");
            assert!(
                (warm - cold.objective).abs() < 1e-5 * (1.0 + cold.objective.abs()),
                "factor {}: warm {} cold {}",
                pt.factor,
                warm,
                cold.objective
            );
        }
    }

    #[test]
    fn degrading_capacity_never_improves_the_bound() {
        let inst = small_instance();
        let opts = SolverOptions::default();
        let factors = [1.0, 0.8, 0.6, 0.5];
        let sweep = capacity_sweep(&inst, &Routing::FreePath, 12, &factors, &opts).unwrap();
        let bounds: Vec<f64> = sweep.iter().map(|p| p.lp_bound.unwrap()).collect();
        for w in bounds.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "less capacity must not lower the bound: {bounds:?}"
            );
        }
    }

    #[test]
    fn single_edge_degradation_only_hurts_users_of_that_edge() {
        // Cutting an edge no flow can use leaves the bound unchanged.
        let topo = topology::fig2_example();
        let g = topo.graph.clone();
        let v1 = g.node_by_label("v1").unwrap();
        let v3 = g.node_by_label("v3").unwrap();
        let t = g.node_by_label("t").unwrap();
        let inst =
            CoflowInstance::new(g.clone(), vec![Coflow::new(vec![Flow::new(v1, t, 1.0)])]).unwrap();
        let opts = SolverOptions::default();
        let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 6).unwrap();
        let base = sens.solve(&opts).unwrap().objective;
        // v3->t is unusable for a v1->t flow whose mask excludes edges
        // into the source; degrade an edge on the far side.
        let far = g.find_edge(v3, t).expect("edge exists");
        sens.scale_edge_capacity(far, 0.1);
        let after = sens.solve(&opts).unwrap().objective;
        assert!(
            (after - base).abs() < 1e-6,
            "unrelated edge changed the bound: {base} -> {after}"
        );
    }

    #[test]
    fn weight_change_scales_the_objective_contribution() {
        let inst = small_instance();
        let opts = SolverOptions::default();
        let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 10).unwrap();
        let base = sens.solve(&opts).unwrap();
        // Double the heavy coflow's weight; bound grows by at most
        // w_j·C_j (the completion can only be re-balanced, not worsen
        // for free), and at least stays put.
        sens.set_weight(2, 6.0);
        let after = sens.solve(&opts).unwrap();
        assert!(after.objective >= base.objective - 1e-6);
        assert!(after.objective <= base.objective + 3.0 * base.completions[2] + 1e-6);
        // And the re-solve was warm.
        assert!(sens.last_was_warm());
    }

    #[test]
    fn warm_resolves_are_cheaper_than_cold_across_a_sweep() {
        let inst = small_instance();
        let opts = SolverOptions::default();
        let factors = [0.95, 0.9, 0.85, 0.8, 0.75];
        // Warm chain.
        let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 12).unwrap();
        sens.solve(&opts).unwrap();
        let mut warm_total = 0usize;
        for &f in &factors {
            sens.scale_all_capacities(f);
            sens.solve(&opts).unwrap();
            warm_total += sens.last_iterations();
        }
        // Cold chain on the same model (reset basis each step).
        let mut cold = Sensitivity::new(&inst, &Routing::FreePath, 12).unwrap();
        let mut cold_total = 0usize;
        for &f in &factors {
            cold.scale_all_capacities(f);
            cold.reset_basis();
            cold.solve(&opts).unwrap();
            cold_total += cold.last_iterations();
        }
        assert!(
            warm_total <= cold_total,
            "warm sweep {warm_total} pivots vs cold {cold_total}"
        );
    }

    #[test]
    fn shadow_prices_identify_the_binding_bottleneck() {
        // One unit edge carrying 3 units of demand within a tight-ish
        // horizon: its capacity rows must carry all the dual weight.
        let topo = topology::line(2, 1.0);
        let g = topo.graph;
        let v0 = g.node_by_label("v0").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let inst = CoflowInstance::new(
            g.clone(),
            vec![Coflow::weighted(2.0, vec![Flow::new(v0, v1, 3.0)])],
        )
        .unwrap();
        let opts = SolverOptions::default();
        let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 6).unwrap();
        assert!(sens.shadow_prices().is_none(), "no solve yet");
        let base = sens.solve(&opts).unwrap().objective;
        let prices = sens.shadow_prices().expect("solved");
        let e = g.find_edge(v0, v1).unwrap();
        assert!(
            prices[e.index()] > 1e-6,
            "bottleneck edge has no shadow price: {prices:?}"
        );
        // Prices are nonnegative up to tolerance.
        for (i, &p) in prices.iter().enumerate() {
            assert!(p >= -1e-6, "edge {i} price {p}");
        }
        // Predictive check: adding capacity to the priced edge lowers
        // the bound.
        sens.scale_edge_capacity(e, 1.5);
        let boosted = sens.solve(&opts).unwrap().objective;
        assert!(
            boosted < base - 1e-6,
            "boosting the priced edge did not help: {base} -> {boosted}"
        );
    }

    #[test]
    fn a_model_without_slot_blocks_still_reports_shadow_prices() {
        // One slot, one capacity row: no slot-block signature, so the
        // first solve takes the fallback path, which must keep the duals.
        let topo = topology::line(2, 1.0);
        let g = topo.graph;
        let v0 = g.node_by_label("v0").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let inst = CoflowInstance::new(g, vec![Coflow::new(vec![Flow::new(v0, v1, 1.0)])]).unwrap();
        let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 1).unwrap();
        assert!(coflow_lp::detect_slot_blocks(&sens.built.model).is_none());
        sens.solve(&SolverOptions::default()).unwrap();
        assert!(!sens.last_was_warm());
        assert!(sens.shadow_prices().is_some(), "solved, yet no duals");
    }

    #[test]
    fn unused_edges_carry_no_shadow_price() {
        let inst = small_instance(); // flows v1->t, v2->t, s->t
        let opts = SolverOptions::default();
        let mut sens = Sensitivity::new(&inst, &Routing::FreePath, 10).unwrap();
        sens.solve(&opts).unwrap();
        let prices = sens.shadow_prices().unwrap();
        // The v3->t direction is reachable, but t->v3 (into a relay,
        // away from every sink) can never carry useful flow.
        let g = &inst.graph;
        let t = g.node_by_label("t").unwrap();
        let v3 = g.node_by_label("v3").unwrap();
        let back = g.find_edge(t, v3).unwrap();
        assert!(
            prices[back.index()].abs() < 1e-9,
            "unusable edge priced: {}",
            prices[back.index()]
        );
    }

    #[test]
    fn starving_capacity_reports_infeasible_points() {
        let inst = small_instance();
        let opts = SolverOptions::default();
        // Demand 3 through a unit edge in horizon 6; factor 0.01 cannot
        // fit (needs 300 slots).
        let sweep = capacity_sweep(&inst, &Routing::FreePath, 6, &[1.0, 0.01, 1.0], &opts).unwrap();
        assert!(sweep[0].lp_bound.is_some());
        assert!(
            sweep[1].lp_bound.is_none(),
            "1% capacity must be infeasible"
        );
        // Recovery after the infeasible point.
        let a = sweep[0].lp_bound.unwrap();
        let b = sweep[2].lp_bound.unwrap();
        assert!((a - b).abs() < 1e-6, "factor 1.0 twice: {a} vs {b}");
    }
}

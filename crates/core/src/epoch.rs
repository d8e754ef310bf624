//! The epoch driver shared by every online loop: event-driven
//! re-solving ([`crate::online`]), doubling batches
//! ([`crate::flowtime`]) and the streaming service's shard cores.
//!
//! An [`EpochDriver`] owns one warm [`TimeIndexedResolver`] plus the
//! loop's bookkeeping — remaining demand, the executed schedule, epoch
//! objectives, shadow-cold tallies, solver counters and the committed
//! end of dispatched batches. Callers are arrival policies: they decide
//! *when* an epoch or batch runs and call one of two steps.
//!
//! * [`event_epoch`](EpochDriver::event_epoch) reveals the epoch's
//!   arrivals to the LP, re-solves, follows the λ=1 heuristic over the
//!   residual work until the window closes, and freezes the window in
//!   the LP.
//! * [`batch`](EpochDriver::batch) appends a batch of coflows after the
//!   committed work, solves, and freezes the batch's whole schedule.
//!
//! Both steps grow the model when it is too short, with two rules:
//! `max(needed, ⌈1.5h⌉)` before activating flows past the horizon `h`,
//! and `⌈1.5h⌉ + 1` after an infeasible answer, at most
//! [`GROWTH_BUDGET`] times per solve. That answer comes either from the
//! resolver's load certificate, without an LP solve, or from an LP
//! solve (see [`TimeIndexedResolver::solve`]). Both go through
//! [`TimeIndexedResolver::grow_horizon`]: once the resolver has solved,
//! the live model grows in place and the next solve stays warm; before
//! that it is rebuilt from the logs.

use crate::error::CoflowError;
use crate::heuristic::lp_heuristic;
use crate::horizon::{horizon, HorizonMode};
use crate::model::{Coflow, CoflowInstance, Flow};
use crate::rateplan::RatePlan;
use crate::resolver::TimeIndexedResolver;
use crate::routing::Routing;
use crate::schedule::{Schedule, SlotTransfer};
use crate::stretch::StretchOptions;
use crate::timeidx::LpRelaxation;
use coflow_lp::{SolveStats, SolverOptions};
use std::collections::BTreeMap;

/// Horizon growths one solve may spend before it gives up.
pub const GROWTH_BUDGET: usize = 8;

/// Maps `(sub coflow, sub flow)` of a sub-instance back to
/// `(coflow, flow)` of the driver's instance.
type SubIndex = Vec<Vec<(usize, usize)>>;

/// What one epoch or batch did.
#[derive(Clone, Debug)]
pub struct EpochStep {
    /// Objective of the step's LP solve.
    pub objective: f64,
    /// Simplex iterations of that solve.
    pub iterations: usize,
    /// Whether the solve started from a kept basis.
    pub warm: bool,
    /// Iterations the same model costs from the all-slack crash basis
    /// (when the driver measures shadow-cold solves).
    pub cold_iterations: Option<usize>,
    /// Executed `(coflow, global slot, volume)`, summed per coflow ×
    /// slot, in ascending order.
    pub executed: Vec<(usize, u32, f64)>,
}

/// One warm resolver and the bookkeeping of the loop around it. See the
/// module docs.
pub struct EpochDriver<'a> {
    resolver: TimeIndexedResolver<'a>,
    lp_opts: SolverOptions,
    shadow_cold: bool,
    remaining: Vec<Vec<f64>>,
    schedule: Schedule,
    epoch_objectives: Vec<f64>,
    cold_objectives: Vec<f64>,
    cold_iterations: usize,
    lp_stats: SolveStats,
    rebuilds: usize,
    committed_end: u32,
}

impl<'a> EpochDriver<'a> {
    /// Wraps `resolver`: every flow of its instance starts with its full
    /// demand remaining. With `shadow_cold`, each solve is repeated from
    /// the all-slack crash basis on the side, for warm-vs-cold
    /// measurements on identical LPs.
    pub fn new(
        resolver: TimeIndexedResolver<'a>,
        lp_opts: SolverOptions,
        shadow_cold: bool,
    ) -> Self {
        let inst = resolver.instance();
        let remaining: Vec<Vec<f64>> = inst
            .coflows
            .iter()
            .map(|c| c.flows.iter().map(|f| f.demand).collect())
            .collect();
        let schedule = Schedule {
            flows: remaining
                .iter()
                .map(|r| vec![Vec::new(); r.len()])
                .collect(),
        };
        EpochDriver {
            resolver,
            lp_opts,
            shadow_cold,
            remaining,
            schedule,
            epoch_objectives: Vec::new(),
            cold_objectives: Vec::new(),
            cold_iterations: 0,
            lp_stats: SolveStats::default(),
            rebuilds: 0,
            committed_end: 0,
        }
    }

    /// Admits a coflow into an owned resolver, returning its index.
    ///
    /// # Errors
    ///
    /// As [`TimeIndexedResolver::push_coflow`].
    pub fn admit(&mut self, cf: Coflow) -> Result<usize, CoflowError> {
        let demands: Vec<f64> = cf.flows.iter().map(|f| f.demand).collect();
        let j = self.resolver.push_coflow(cf)?;
        self.schedule.flows.push(vec![Vec::new(); demands.len()]);
        self.remaining.push(demands);
        Ok(j)
    }

    /// Runs the arrival epoch `epoch`: activates the flows released at
    /// `epoch`, re-solves over everything released and unfinished,
    /// executes the λ=1 heuristic schedule through slot `window_end`
    /// and freezes slots `epoch + 1 ..= window_end` in the LP.
    /// `window_end = None` runs to completion (the last epoch). Returns
    /// `None` when nothing is pending.
    ///
    /// # Errors
    ///
    /// LP failures, and horizon growth that does not restore
    /// feasibility within [`GROWTH_BUDGET`] growths.
    pub fn event_epoch(
        &mut self,
        epoch: u32,
        window_end: Option<u32>,
    ) -> Result<Option<EpochStep>, CoflowError> {
        let arrivals: Vec<(usize, usize)> = self
            .resolver
            .instance()
            .flows()
            .filter(|(_, f)| f.release == epoch)
            .map(|(key, _)| (key.coflow as usize, key.flow as usize))
            .collect();
        self.activate(&arrivals, epoch + 1, epoch + 1)?;
        let remaining = &self.remaining;
        let pending = self.sub_instance(0..remaining.len(), |j, i, f| {
            (f.release <= epoch && remaining[j][i] > 1e-9).then_some(remaining[j][i])
        })?;
        let Some((sub, _, index)) = pending else {
            return Ok(None);
        };
        let (lp, cold) = self.solve()?;
        // Later slots are superseded by the next re-solve.
        let window = window_end.map_or(u32::MAX, |next| next - epoch);
        let done = self.execute(&sub, &index, &lp, epoch, window);
        // Pin every pending flow's window slots to what actually ran
        // (including zero), so the next re-solve schedules only the
        // remaining work.
        if let Some(next) = window_end {
            let mut executed: BTreeMap<(usize, usize, u32), f64> = BTreeMap::new();
            for &(j, i, slot, vol) in &done {
                *executed.entry((j, i, slot)).or_insert(0.0) += vol;
            }
            let last = next.min(self.resolver.horizon());
            for &(j, i) in index.iter().flatten() {
                let demand = self.resolver.instance().coflows[j].flows[i].demand;
                for slot in epoch + 1..=last {
                    let vol = executed.get(&(j, i, slot)).copied().unwrap_or(0.0);
                    self.resolver.fix_slot(j, i, slot, vol / demand);
                }
            }
        }
        Ok(Some(self.step(&lp, cold, &done)))
    }

    /// Dispatches the coflows `members` as one batch at
    /// `max(boundary, committed end)`: sizes the batch horizon, activates
    /// the members there, solves, and executes and freezes the batch's
    /// whole λ=1 heuristic schedule. Returns `None` for an empty batch.
    ///
    /// # Errors
    ///
    /// As [`event_epoch`](Self::event_epoch), plus routing errors from
    /// the batch horizon estimate.
    pub fn batch(
        &mut self,
        boundary: u32,
        members: &[usize],
    ) -> Result<Option<EpochStep>, CoflowError> {
        // The batch re-plans from scratch at its dispatch slot.
        let batch = self.sub_instance(members.iter().copied(), |_, _, f| Some(f.demand))?;
        let Some((sub, sub_routing, index)) = batch else {
            return Ok(None);
        };
        let t_batch = horizon(&sub, &sub_routing, HorizonMode::Greedy { margin: 1.25 })?;
        let start = boundary.max(self.committed_end);
        let flows: Vec<(usize, usize)> = index.iter().flatten().copied().collect();
        self.activate(&flows, start + 1, start + t_batch)?;
        let (lp, cold) = self.solve()?;
        let done = self.execute(&sub, &index, &lp, start, u32::MAX);
        // Later batches re-solve around the dispatched transfers, not
        // over them.
        for &(j, i, slot, vol) in &done {
            let demand = self.resolver.instance().coflows[j].flows[i].demand;
            self.resolver.fix_slot(j, i, slot, vol / demand);
        }
        self.committed_end = done.iter().fold(start, |end, t| end.max(t.2));
        Ok(Some(self.step(&lp, cold, &done)))
    }

    /// Records an executed transfer of flow `(j, i)`: its volume leaves
    /// the remaining demand and the transfer joins the schedule. The
    /// steps call this for every transfer they execute; journal
    /// recovery calls it to replay them.
    pub fn replay_transfer(&mut self, j: usize, i: usize, st: SlotTransfer) {
        let r = &mut self.remaining[j][i];
        *r -= st.volume;
        if *r < 1e-9 {
            *r = 0.0;
        }
        self.schedule.flows[j][i].push(st);
    }

    /// Reinstates a recovered run on a fresh driver: replays the
    /// journaled resolver logs with one model rebuild at the current
    /// horizon (no solves) and takes over the run's epoch objectives and
    /// committed end. Executed transfers follow through
    /// [`replay_transfer`](Self::replay_transfer).
    ///
    /// # Errors
    ///
    /// As [`TimeIndexedResolver::rebuild`].
    ///
    /// # Panics
    ///
    /// If the driver already solved or logged anything (see
    /// [`TimeIndexedResolver::restore_logs`]).
    pub fn restore(
        &mut self,
        activations: Vec<(usize, usize, u32)>,
        fixes: Vec<(usize, usize, u32, f64)>,
        epoch_objectives: Vec<f64>,
        committed_end: u32,
    ) -> Result<(), CoflowError> {
        self.resolver.restore_logs(activations, fixes);
        self.resolver.rebuild(self.resolver.horizon())?;
        self.epoch_objectives = epoch_objectives;
        self.committed_end = committed_end;
        Ok(())
    }

    /// The resolver, for its horizon, counters and replay logs.
    pub fn resolver(&self) -> &TimeIndexedResolver<'a> {
        &self.resolver
    }

    /// The executed schedule so far, in execution order per flow.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Takes flow `(j, i)`'s executed transfers, sorted by slot.
    pub fn take_transfers(&mut self, j: usize, i: usize) -> Vec<SlotTransfer> {
        let mut fl = std::mem::take(&mut self.schedule.flows[j][i]);
        fl.sort_by_key(|st| st.slot);
        fl
    }

    /// The executed schedule with every flow's transfers sorted by slot.
    pub fn into_schedule(mut self) -> Schedule {
        for fl in self.schedule.flows.iter_mut().flatten() {
            fl.sort_by_key(|st| st.slot);
        }
        self.schedule
    }

    /// The first flow with more than 1e-6 of its demand unmoved, as
    /// `(coflow, flow, remaining)`.
    pub fn unmoved(&self) -> Option<(usize, usize, f64)> {
        self.remaining.iter().enumerate().find_map(|(j, row)| {
            row.iter()
                .enumerate()
                .find_map(|(i, &r)| (r > 1e-6).then_some((j, i, r)))
        })
    }

    /// Objective of each step's LP solve, in step order.
    pub fn epoch_objectives(&self) -> &[f64] {
        &self.epoch_objectives
    }

    /// Shadow-cold objective of each step, in step order.
    pub fn cold_objectives(&self) -> &[f64] {
        &self.cold_objectives
    }

    /// Total shadow-cold iterations.
    pub fn cold_iterations(&self) -> usize {
        self.cold_iterations
    }

    /// Engine counters merged over every solve.
    pub fn lp_stats(&self) -> SolveStats {
        self.lp_stats
    }

    /// Horizon growths so far (in place or rebuilt; see
    /// [`TimeIndexedResolver::grow_horizon`]).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Last slot used by the dispatched batches.
    pub fn committed_end(&self) -> u32 {
        self.committed_end
    }

    /// Activates `flows` from `first_slot` on, first growing the model
    /// to `max(needed, ⌈1.5h⌉)` when `needed` lies past the horizon `h`.
    fn activate(
        &mut self,
        flows: &[(usize, usize)],
        first_slot: u32,
        needed: u32,
    ) -> Result<(), CoflowError> {
        let h = self.resolver.horizon();
        if !flows.is_empty() && needed > h {
            self.rebuilds += 1;
            self.resolver.grow_horizon(needed.max(grown(h)))?;
        }
        for &(j, i) in flows {
            self.resolver.activate_flow(j, i, first_slot)?;
        }
        Ok(())
    }

    /// Solves the current model, growing the horizon to `⌈1.5h⌉ + 1`
    /// after each infeasible answer, and records the solve. Returns the
    /// relaxation and the shadow-cold iterations.
    fn solve(&mut self) -> Result<(LpRelaxation, Option<usize>), CoflowError> {
        let mut budget = GROWTH_BUDGET;
        let lp = loop {
            if let Some(lp) = self.resolver.solve(&self.lp_opts)? {
                break lp;
            }
            if budget == 0 {
                return Err(CoflowError::Lp(
                    "epoch driver: horizon growth did not restore feasibility".into(),
                ));
            }
            budget -= 1;
            self.rebuilds += 1;
            self.resolver
                .grow_horizon(grown(self.resolver.horizon()) + 1)?;
        };
        self.lp_stats.merge(&lp.stats);
        self.epoch_objectives.push(lp.objective);
        if !self.shadow_cold {
            return Ok((lp, None));
        }
        let (objective, iterations) =
            self.resolver.probe_cold(&self.lp_opts)?.ok_or_else(|| {
                CoflowError::Lp("shadow cold solve found the warm-feasible model infeasible".into())
            })?;
        self.cold_objectives.push(objective);
        self.cold_iterations += iterations;
        Ok((lp, Some(iterations)))
    }

    /// The sub-instance of the flows `pick` selects, coflow by coflow in
    /// `coflows` order: releases reset to 0, demands as `pick` returns
    /// them. Returns it with its routing and index, or `None` when
    /// nothing was picked.
    fn sub_instance(
        &self,
        coflows: impl IntoIterator<Item = usize>,
        mut pick: impl FnMut(usize, usize, &Flow) -> Option<f64>,
    ) -> Result<Option<(CoflowInstance, Routing, SubIndex)>, CoflowError> {
        let inst = self.resolver.instance();
        let mut sub = Vec::new();
        let mut index: SubIndex = Vec::new();
        for j in coflows {
            let cf = &inst.coflows[j];
            let mut flows = Vec::new();
            let mut idx_row = Vec::new();
            for (i, f) in cf.flows.iter().enumerate() {
                if let Some(demand) = pick(j, i, f) {
                    flows.push(Flow::new(f.src, f.dst, demand));
                    idx_row.push((j, i));
                }
            }
            if !flows.is_empty() {
                sub.push(Coflow::weighted(cf.weight, flows));
                index.push(idx_row);
            }
        }
        if sub.is_empty() {
            return Ok(None);
        }
        let sub_routing = match self.resolver.routing() {
            Routing::SinglePath(p) => Routing::SinglePath(select(p, &index)),
            Routing::MultiPath(p) => Routing::MultiPath(select(p, &index)),
            Routing::FreePath => Routing::FreePath,
        };
        let sub_inst = CoflowInstance::new(inst.graph.clone(), sub)?;
        Ok(Some((sub_inst, sub_routing, index)))
    }

    /// Runs the λ=1 heuristic on a sub-instance over the LP plan from
    /// slot `start` on, and executes its transfers in slots `1..=window`
    /// of the sub-instance's timeline. Returns them as `(coflow, flow,
    /// global slot, volume)`, in plan order.
    fn execute(
        &mut self,
        sub: &CoflowInstance,
        index: &SubIndex,
        lp: &LpRelaxation,
        start: u32,
        window: u32,
    ) -> Vec<(usize, usize, u32, f64)> {
        let plan = lp_heuristic(
            sub,
            &slice_plan(&lp.plan, index, start),
            StretchOptions::default(),
        );
        let mut done = Vec::new();
        for (sj, row) in plan.flows.into_iter().enumerate() {
            for (si, fl) in row.into_iter().enumerate() {
                let (j, i) = index[sj][si];
                for st in fl.into_iter().filter(|st| st.slot <= window) {
                    let slot = start + st.slot;
                    done.push((j, i, slot, st.volume));
                    self.replay_transfer(j, i, SlotTransfer { slot, ..st });
                }
            }
        }
        done
    }

    fn step(
        &self,
        lp: &LpRelaxation,
        cold_iterations: Option<usize>,
        done: &[(usize, usize, u32, f64)],
    ) -> EpochStep {
        let mut per_coflow: BTreeMap<(usize, u32), f64> = BTreeMap::new();
        for &(j, _, slot, vol) in done {
            *per_coflow.entry((j, slot)).or_insert(0.0) += vol;
        }
        EpochStep {
            objective: lp.objective,
            iterations: lp.lp_iterations,
            warm: self.resolver.last_was_warm(),
            cold_iterations,
            executed: per_coflow
                .into_iter()
                .map(|((j, slot), vol)| (j, slot, vol))
                .collect(),
        }
    }
}

/// The per-flow entries of `per_flow` that `index` selects, shaped like
/// the sub-instance.
fn select<T: Clone>(per_flow: &[Vec<T>], index: &SubIndex) -> Vec<Vec<T>> {
    index
        .iter()
        .map(|row| row.iter().map(|&(j, i)| per_flow[j][i].clone()).collect())
        .collect()
}

/// `⌈1.5h⌉`, the growth step of both horizon-growth rules.
fn grown(h: u32) -> u32 {
    (f64::from(h) * 1.5).ceil() as u32
}

/// Slices the resolver's global-timeline plan down to a sub-instance:
/// its flows only, segments after `start` shifted so the sub-instance's
/// timeline starts at 0.
fn slice_plan(global: &RatePlan, index: &SubIndex, start: u32) -> RatePlan {
    let s0 = f64::from(start);
    RatePlan {
        flows: index
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(j, i)| global.flows[j][i].tail_from(s0))
                    .collect()
            })
            .collect(),
    }
}

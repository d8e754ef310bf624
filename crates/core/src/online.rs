//! Online coflow scheduling by repeated re-solving — the direction the
//! paper's conclusion (§7) points at ("developing online methods for
//! coflow scheduling"), in the spirit of the offline-to-online
//! frameworks it cites (Khuller et al., LATIN 2018).
//!
//! The scheduler is clairvoyant about *demands* but not arrivals: at
//! every release epoch it re-solves the time-indexed relaxation over the
//! released, unfinished work and follows the λ=1 heuristic schedule
//! until the next arrival. The execution trace is assembled into an
//! ordinary [`Schedule`] over the original instance, so the standard
//! validator and completion accounting apply unchanged — and the
//! offline LP bound remains a valid yardstick.
//!
//! This module is only the arrival policy: it lists the release epochs
//! and hands each to [`EpochDriver::event_epoch`], which owns the
//! epoch body. The per-epoch LP is **not** rebuilt: the driver's
//! persistent [`TimeIndexedResolver`] keeps one model on the global
//! timeline, each epoch *appends* the newly released flows' columns and
//! rows, freezes the fractions executed in the window just played, and
//! re-solves warm from the previous basis. Pass
//! [`OnlineOptions::cold`] to re-solve every epoch from the all-slack
//! crash basis instead (the `--cold` A/B escape hatch), and
//! [`OnlineOptions::shadow_cold`] to *additionally* cold-solve each
//! epoch's exact model on the side — the rigorous warm-vs-cold
//! iteration comparison on identical LPs that `perf_report` records.

use crate::epoch::EpochDriver;
use crate::error::CoflowError;
use crate::horizon::{horizon, HorizonMode};
use crate::model::CoflowInstance;
use crate::resolver::TimeIndexedResolver;
use crate::routing::Routing;
use crate::schedule::Schedule;
use coflow_lp::SolverOptions;

/// Knobs for [`online_heuristic_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineOptions {
    /// Drop the basis before every epoch re-solve (A/B baseline;
    /// mutation bookkeeping is unchanged, only the warm start is off).
    pub cold: bool,
    /// Additionally solve each epoch's exact model from the all-slack
    /// crash basis, recording its objective and iteration count in
    /// [`OnlineOutcome::cold_objectives`] /
    /// [`OnlineOutcome::cold_iterations`]. This is the apples-to-apples
    /// measurement: same LP sequence, warm vs cold.
    pub shadow_cold: bool,
}

/// Result of an online run.
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// The executed schedule (validates against the original instance).
    pub schedule: Schedule,
    /// Number of LP re-solves performed (one per arrival epoch with
    /// pending work).
    pub resolves: usize,
    /// Total simplex iterations across all epoch re-solves — the LP
    /// effort the run actually spent (plotted by the perf harness).
    pub lp_iterations: usize,
    /// Engine counters summed over the epoch re-solves (FTRAN/BTRAN
    /// solves and nonzeros add; the peak-workspace estimate is the max).
    pub lp_stats: coflow_lp::SolveStats,
    /// Objective of each epoch's LP re-solve, in epoch order.
    pub epoch_objectives: Vec<f64>,
    /// With [`OnlineOptions::shadow_cold`]: total iterations the same
    /// LP sequence costs from the all-slack crash basis.
    pub cold_iterations: Option<usize>,
    /// With [`OnlineOptions::shadow_cold`]: each epoch's cold objective
    /// (must match [`OnlineOutcome::epoch_objectives`] to LP tolerance).
    pub cold_objectives: Option<Vec<f64>>,
    /// Horizon growths the resolver needed, in place or rebuilt (0 when
    /// the initial greedy estimate covered the whole run).
    pub rebuilds: usize,
    /// Infeasible answers the resolver's load certificate gave without
    /// an LP solve (see [`TimeIndexedResolver::solve`]).
    pub certified_infeasible: usize,
    /// Infeasible answers that took an LP solve.
    pub solved_infeasible: usize,
}

/// Runs the online re-solving heuristic with default options (warm
/// re-solves). See module docs.
///
/// # Errors
///
/// Propagates LP/routing errors from the per-epoch solves.
pub fn online_heuristic(
    inst: &CoflowInstance,
    routing: &Routing,
    lp_opts: &SolverOptions,
) -> Result<OnlineOutcome, CoflowError> {
    online_heuristic_with(inst, routing, lp_opts, &OnlineOptions::default())
}

/// Runs the online re-solving heuristic. See module docs.
///
/// # Errors
///
/// Propagates LP/routing errors from the per-epoch solves.
pub fn online_heuristic_with(
    inst: &CoflowInstance,
    routing: &Routing,
    lp_opts: &SolverOptions,
    online_opts: &OnlineOptions,
) -> Result<OnlineOutcome, CoflowError> {
    routing.validate(inst)?;

    // Arrival epochs: distinct flow releases, ascending.
    let mut epochs: Vec<u32> = inst.flows().map(|(_, f)| f.release).collect();
    epochs.sort_unstable();
    epochs.dedup();

    let t0 = horizon(inst, routing, HorizonMode::Greedy { margin: 1.25 })?;
    let resolver = TimeIndexedResolver::new(inst, routing, t0, !online_opts.cold)?;
    let mut driver = EpochDriver::new(resolver, lp_opts.clone(), online_opts.shadow_cold);
    let mut resolves = 0;
    for (ei, &epoch) in epochs.iter().enumerate() {
        // Execute until the next epoch (or to completion after the last).
        if driver
            .event_epoch(epoch, epochs.get(ei + 1).copied())?
            .is_some()
        {
            resolves += 1;
        }
    }

    // All work must be done: the final epoch's schedule ran to completion.
    if let Some((j, i, r)) = driver.unmoved() {
        return Err(CoflowError::InvalidSchedule(format!(
            "online run left flow ({j},{i}) with {r} unmoved"
        )));
    }
    let shadow = online_opts.shadow_cold;
    Ok(OnlineOutcome {
        resolves,
        lp_iterations: driver.resolver().total_iterations(),
        lp_stats: driver.lp_stats(),
        epoch_objectives: driver.epoch_objectives().to_vec(),
        cold_iterations: shadow.then(|| driver.cold_iterations()),
        cold_objectives: shadow.then(|| driver.cold_objectives().to_vec()),
        rebuilds: driver.rebuilds(),
        certified_infeasible: driver.resolver().certified_infeasible(),
        solved_infeasible: driver.resolver().solved_infeasible(),
        schedule: driver.into_schedule(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{Coflow, Flow};
    use crate::solver::{Algorithm, Scheduler};
    use crate::validate::{validate, Tolerance};
    use coflow_netgraph::topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One single-flow coflow per release on a 5×-capacity SWAN, with
    /// seeded random endpoints, weights and demands.
    pub(crate) fn staggered_instance(seed: u64, releases: &[u32]) -> CoflowInstance {
        let topo = topology::swan().scale_capacity(5.0);
        let g = topo.graph;
        let nodes: Vec<_> = g.nodes().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let coflows = releases
            .iter()
            .map(|&r| {
                let a = nodes[rng.gen_range(0..nodes.len())];
                let mut b = nodes[rng.gen_range(0..nodes.len())];
                while b == a {
                    b = nodes[rng.gen_range(0..nodes.len())];
                }
                Coflow::weighted(
                    rng.gen_range(1.0..10.0),
                    vec![Flow::released(a, b, rng.gen_range(20.0..60.0), r)],
                )
            })
            .collect();
        CoflowInstance::new(g, coflows).unwrap()
    }

    #[test]
    fn without_releases_online_equals_offline_heuristic() {
        let inst = staggered_instance(1, &[0, 0, 0]);
        let offline = Scheduler::new(Algorithm::LpHeuristic)
            .solve(&inst, &Routing::FreePath)
            .unwrap();
        let online =
            online_heuristic(&inst, &Routing::FreePath, &SolverOptions::default()).unwrap();
        assert_eq!(online.resolves, 1);
        let rep = validate(
            &inst,
            &Routing::FreePath,
            &online.schedule,
            Tolerance::default(),
        )
        .unwrap();
        assert!(
            (rep.completions.weighted_total - offline.cost).abs() < 1e-6,
            "online {} vs offline {}",
            rep.completions.weighted_total,
            offline.cost
        );
    }

    #[test]
    fn staggered_arrivals_validate_and_respect_the_offline_bound() {
        let inst = staggered_instance(2, &[0, 3, 3, 7]);
        let online =
            online_heuristic(&inst, &Routing::FreePath, &SolverOptions::default()).unwrap();
        assert_eq!(online.resolves, 3, "three distinct arrival epochs");
        let rep = validate(
            &inst,
            &Routing::FreePath,
            &online.schedule,
            Tolerance::default(),
        )
        .unwrap();
        // The offline LP bound is a bound for the online algorithm too.
        let offline = Scheduler::new(Algorithm::LpHeuristic)
            .solve(&inst, &Routing::FreePath)
            .unwrap();
        assert!(rep.completions.weighted_total >= offline.lower_bound - 1e-6);
        // Releases respected is part of validation; completions after
        // releases is implied, re-check explicitly.
        for (j, &c) in rep.completions.per_coflow.iter().enumerate() {
            assert!(c > inst.coflows[j].release());
        }
    }

    #[test]
    fn single_path_online_runs() {
        let inst = staggered_instance(3, &[0, 2, 5]);
        let mut rng = StdRng::seed_from_u64(9);
        let r = crate::routing::random_shortest_paths(&inst, &mut rng).unwrap();
        let online = online_heuristic(&inst, &r, &SolverOptions::default()).unwrap();
        validate(&inst, &r, &online.schedule, Tolerance::default()).unwrap();
    }

    #[test]
    fn late_heavy_arrival_preempts_light_work() {
        // A light coflow starts alone; a heavy-weight one arrives later
        // and the re-solve should not strand it behind the light one.
        let topo = topology::line(2, 1.0);
        let g = topo.graph;
        let v0 = g.node_by_label("v0").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let inst = CoflowInstance::new(
            g,
            vec![
                Coflow::weighted(1.0, vec![Flow::new(v0, v1, 10.0)]),
                Coflow::weighted(100.0, vec![Flow::released(v0, v1, 2.0, 2)]),
            ],
        )
        .unwrap();
        let online =
            online_heuristic(&inst, &Routing::FreePath, &SolverOptions::default()).unwrap();
        let rep = validate(
            &inst,
            &Routing::FreePath,
            &online.schedule,
            Tolerance::default(),
        )
        .unwrap();
        // The heavy coflow (2 units, released after slot 2) should finish
        // by ~slot 4-5 rather than waiting for the light one's 10 units.
        assert!(
            rep.completions.per_coflow[1] <= 5,
            "heavy coflow finished at {}",
            rep.completions.per_coflow[1]
        );
    }
}

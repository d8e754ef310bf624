//! Weighted flow time and the doubling-batch online framework — the
//! paper's §7 directions, made concrete.
//!
//! The conclusion singles out two follow-ups: *online* coflow
//! scheduling, where "prior work \[17\] deals with the problem of
//! minimizing weighted completion time by making use of offline
//! approximation algorithms", and the harder objective of weighted
//! **flow time** `Σ_j w_j (C_j − r_j)`. This module supplies both
//! ingredients:
//!
//! * [`flow_times`] — flow-time accounting for any completion vector
//!   (completion-time algorithms can always be *scored* on flow time);
//! * [`interval_batch_online`] — the classic doubling framework the
//!   cited prior work builds on: collect arrivals up to each boundary
//!   `τ_k = 2^k`, run the offline algorithm on the batch, and append the
//!   batch's schedule after everything already committed. With a
//!   ρ-approximate offline algorithm this is O(ρ)-competitive for
//!   weighted completion time; batches never preempt each other, so the
//!   composed schedule is feasible by construction.
//!
//! The event-driven alternative that re-solves at every arrival lives in
//! [`crate::online`]; benches compare the two (re-solving is greedier
//! and usually wins on cost, the batch framework holds the guarantee and
//! solves exponentially fewer LPs). Both are arrival policies over one
//! [`crate::epoch::EpochDriver`]: this module only groups coflows into
//! batches, and the driver's [`batch`](crate::epoch::EpochDriver::batch)
//! step solves, executes and freezes each one.

use crate::epoch::EpochDriver;
use crate::error::CoflowError;
use crate::horizon::{horizon, HorizonMode};
use crate::model::CoflowInstance;
use crate::resolver::TimeIndexedResolver;
use crate::routing::Routing;
use crate::schedule::{Completions, Schedule};
use coflow_lp::SolverOptions;
use std::collections::BTreeMap;

/// Flow-time statistics (`C_j − r_j`, release-relative latency).
#[derive(Clone, Debug)]
pub struct FlowTimes {
    /// Per-coflow flow time, using each coflow's earliest flow release.
    pub per_coflow: Vec<f64>,
    /// `Σ_j w_j (C_j − r_j)`.
    pub weighted_total: f64,
    /// `Σ_j (C_j − r_j)`.
    pub unweighted_total: f64,
    /// Largest single flow time (tail latency).
    pub max: f64,
}

/// Scores a completion vector on the flow-time objective.
///
/// Releases are slot boundaries and completions are slot indices, so a
/// coflow released at `r` finishing in slot `r + 1` (the first slot it
/// may use) has flow time 1 — flow times are always ≥ 1.
pub fn flow_times(inst: &CoflowInstance, completions: &Completions) -> FlowTimes {
    let per_coflow: Vec<f64> = inst
        .coflows
        .iter()
        .zip(&completions.per_coflow)
        .map(|(cf, &c)| f64::from(c) - f64::from(cf.release()))
        .collect();
    let weighted_total = per_coflow
        .iter()
        .zip(&inst.coflows)
        .map(|(&ft, cf)| cf.weight * ft)
        .sum();
    FlowTimes {
        unweighted_total: per_coflow.iter().sum(),
        max: per_coflow.iter().fold(0.0f64, |a, &b| a.max(b)),
        weighted_total,
        per_coflow,
    }
}

/// Result of [`interval_batch_online`].
#[derive(Clone, Debug)]
pub struct BatchedOutcome {
    /// The composed schedule over the original instance (feasible and
    /// complete; validate with [`crate::validate::validate`]).
    pub schedule: Schedule,
    /// Number of non-empty batches = number of offline solves.
    pub batches: usize,
    /// The boundary slot at which each batch was dispatched.
    pub dispatched_at: Vec<u32>,
    /// Total simplex iterations across the per-batch solves.
    pub lp_iterations: usize,
    /// Infeasible answers the resolver's load certificate gave without
    /// an LP solve (see [`TimeIndexedResolver::solve`]).
    pub certified_infeasible: usize,
    /// Infeasible answers that took an LP solve.
    pub solved_infeasible: usize,
}

/// The batch boundary a coflow with full release `r` joins under the
/// doubling framework: the first element of `0, 1, 2, 4, 8, …` that is
/// `≥ r`. [`interval_batch_online`] and the streaming service both
/// assign coflows to batches with it.
pub fn doubling_boundary(r: u32) -> u32 {
    if r == 0 {
        0
    } else {
        r.next_power_of_two()
    }
}

/// The doubling-batch online framework. See module docs.
///
/// Batch boundaries are `0, 1, 2, 4, 8, …`; a coflow joins the first
/// batch whose boundary covers its *full* release (all flows present —
/// coflows are atomic here, matching the offline objective). Each batch
/// is solved offline with the λ=1 LP heuristic and appended after
/// `max(boundary, end of committed work)`.
///
/// # Errors
///
/// Propagates routing and LP errors from the per-batch solves.
pub fn interval_batch_online(
    inst: &CoflowInstance,
    routing: &Routing,
    lp_opts: &SolverOptions,
) -> Result<BatchedOutcome, CoflowError> {
    interval_batch_online_with(inst, routing, lp_opts, true)
}

/// [`interval_batch_online`] with the warm start togglable: each batch
/// *appends* its coflows to one persistent [`TimeIndexedResolver`] model
/// (dispatched work stays frozen in place) and re-solves from the
/// previous batch's basis; `warm = false` re-solves each batch from the
/// all-slack crash basis instead.
///
/// # Errors
///
/// Propagates routing and LP errors from the per-batch solves.
pub fn interval_batch_online_with(
    inst: &CoflowInstance,
    routing: &Routing,
    lp_opts: &SolverOptions,
    warm: bool,
) -> Result<BatchedOutcome, CoflowError> {
    routing.validate(inst)?;
    // Each coflow joins the batch of its doubling boundary; batches
    // dispatch in boundary order, members in coflow order.
    let mut batches: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (j, cf) in inst.coflows.iter().enumerate() {
        batches
            .entry(doubling_boundary(cf.full_release()))
            .or_default()
            .push(j);
    }

    let t0 = horizon(inst, routing, HorizonMode::Greedy { margin: 1.25 })?;
    let resolver = TimeIndexedResolver::new(inst, routing, t0, warm)?;
    let mut driver = EpochDriver::new(resolver, lp_opts.clone(), false);
    let mut dispatched_at = Vec::with_capacity(batches.len());
    for (&boundary, members) in &batches {
        dispatched_at.push(boundary.max(driver.committed_end()));
        driver.batch(boundary, members)?;
    }
    Ok(BatchedOutcome {
        batches: dispatched_at.len(),
        dispatched_at,
        lp_iterations: driver.resolver().total_iterations(),
        certified_infeasible: driver.resolver().certified_infeasible(),
        solved_infeasible: driver.resolver().solved_infeasible(),
        schedule: driver.into_schedule(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::tests::staggered_instance as staggered;
    use crate::solver::{Algorithm, Scheduler};
    use crate::validate::{validate, Tolerance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flow_time_arithmetic_by_hand() {
        let inst = staggered(1, &[0, 4]);
        let completions = Completions {
            per_coflow: vec![3, 9],
            weighted_total: 0.0, // unused here
            unweighted_total: 0.0,
            makespan: 9,
        };
        let ft = flow_times(&inst, &completions);
        assert_eq!(ft.per_coflow, vec![3.0, 5.0]);
        assert_eq!(ft.unweighted_total, 8.0);
        assert_eq!(ft.max, 5.0);
        let expect_weighted = inst.coflows[0].weight * 3.0 + inst.coflows[1].weight * 5.0;
        assert!((ft.weighted_total - expect_weighted).abs() < 1e-12);
    }

    #[test]
    fn all_released_at_zero_is_one_batch_equal_to_offline() {
        let inst = staggered(2, &[0, 0, 0]);
        let out =
            interval_batch_online(&inst, &Routing::FreePath, &SolverOptions::default()).unwrap();
        assert_eq!(out.batches, 1);
        assert_eq!(out.dispatched_at, vec![0]);
        let rep = validate(
            &inst,
            &Routing::FreePath,
            &out.schedule,
            Tolerance::default(),
        )
        .unwrap();
        let offline = Scheduler::new(Algorithm::LpHeuristic)
            .solve(&inst, &Routing::FreePath)
            .unwrap();
        assert!(
            (rep.completions.weighted_total - offline.cost).abs() < 1e-6,
            "batched {} vs offline {}",
            rep.completions.weighted_total,
            offline.cost
        );
    }

    #[test]
    fn doubling_boundary_closed_form() {
        // First element of 0, 1, 2, 4, 8, … that is ≥ r.
        for r in 0..200u32 {
            let mut b = 0u32;
            let mut step = 1u32;
            while b < r {
                b = step;
                step *= 2;
            }
            assert_eq!(doubling_boundary(r), b, "release {r}");
        }
    }

    #[test]
    fn doubling_boundaries_group_arrivals() {
        // Releases 0, 3, 9 → boundaries 0 and 4 and 16 → three batches.
        let inst = staggered(3, &[0, 3, 9]);
        let out =
            interval_batch_online(&inst, &Routing::FreePath, &SolverOptions::default()).unwrap();
        assert_eq!(out.batches, 3);
        // Dispatch slots respect both the boundary and committed work.
        assert_eq!(out.dispatched_at[0], 0);
        assert!(out.dispatched_at[1] >= 4);
        assert!(out.dispatched_at[2] >= 16);
        let rep = validate(
            &inst,
            &Routing::FreePath,
            &out.schedule,
            Tolerance::default(),
        )
        .unwrap();
        // No coflow starts before its release.
        for (j, &c) in rep.completions.per_coflow.iter().enumerate() {
            assert!(c > inst.coflows[j].release());
        }
    }

    #[test]
    fn batched_cost_within_constant_of_event_driven() {
        // The guarantee-holding framework may lose to greedy re-solving,
        // but not unboundedly: the doubling analysis caps the gap.
        let inst = staggered(4, &[0, 2, 2, 5, 11]);
        let opts = SolverOptions::default();
        let batched = interval_batch_online(&inst, &Routing::FreePath, &opts).unwrap();
        let event = crate::online::online_heuristic(&inst, &Routing::FreePath, &opts).unwrap();
        let bat = validate(
            &inst,
            &Routing::FreePath,
            &batched.schedule,
            Tolerance::default(),
        )
        .unwrap()
        .completions
        .weighted_total;
        let evt = validate(
            &inst,
            &Routing::FreePath,
            &event.schedule,
            Tolerance::default(),
        )
        .unwrap()
        .completions
        .weighted_total;
        let offline = Scheduler::new(Algorithm::LpHeuristic)
            .solve(&inst, &Routing::FreePath)
            .unwrap();
        assert!(bat >= offline.lower_bound - 1e-6);
        assert!(evt >= offline.lower_bound - 1e-6);
        assert!(
            bat <= 8.0 * evt,
            "batched {bat} suspiciously far above event-driven {evt}"
        );
        // Exponentially fewer solves: 4 epochs for events vs 4 doubling
        // batches here, but the batch count is O(log max_release).
        assert!(batched.batches <= 4);
    }

    #[test]
    fn flow_time_scores_any_schedule() {
        let inst = staggered(5, &[0, 6]);
        let out =
            interval_batch_online(&inst, &Routing::FreePath, &SolverOptions::default()).unwrap();
        let rep = validate(
            &inst,
            &Routing::FreePath,
            &out.schedule,
            Tolerance::default(),
        )
        .unwrap();
        let ft = flow_times(&inst, &rep.completions);
        // Flow times are at least 1 and releases were subtracted.
        for (j, &f) in ft.per_coflow.iter().enumerate() {
            assert!(f >= 1.0 - 1e-9, "coflow {j} flow time {f}");
            assert!(
                f <= f64::from(rep.completions.per_coflow[j]),
                "flow time exceeds completion time"
            );
        }
        assert!(ft.weighted_total > 0.0);
        assert!(ft.max >= 1.0);
    }

    #[test]
    fn single_path_batches_validate() {
        let inst = staggered(6, &[0, 3, 7]);
        let mut rng = StdRng::seed_from_u64(8);
        let routing = crate::routing::random_shortest_paths(&inst, &mut rng).unwrap();
        let out = interval_batch_online(&inst, &routing, &SolverOptions::default()).unwrap();
        validate(&inst, &routing, &out.schedule, Tolerance::default()).unwrap();
    }
}

//! Warm-started re-solves must be invisible in the *results*: on
//! randomized SWAN and switch workloads, every epoch re-solve of the
//! online pipeline and every ε point of a chained interval sweep must
//! land on the same objective the cold path finds (to LP tolerance), and
//! the executed schedules must independently validate.
//!
//! This extends the cross-algorithm pattern of `registry_properties.rs`
//! down one layer: where that test audits algorithm *outcomes*, this one
//! audits the warm-start machinery itself — the shadow cold probe solves
//! each epoch's exact model from the all-slack crash basis, so the
//! comparison is on identical LPs, not merely similar ones.

use coflow_suite::core::interval::{solve_interval, solve_interval_chained, IntervalChain};
use coflow_suite::core::model::CoflowInstance;
use coflow_suite::core::online::{online_heuristic_with, OnlineOptions};
use coflow_suite::core::routing::Routing;
use coflow_suite::core::validate::{validate, Tolerance};
use coflow_suite::lp::SolverOptions;
use coflow_suite::netgraph::topology;
use coflow_suite::workloads::{build_instance, WorkloadConfig, WorkloadKind};

/// Randomized workloads on the two fabrics the suite cares about: the
/// SWAN WAN and the big switch (via dense port-to-port traffic).
fn instances() -> Vec<(&'static str, CoflowInstance)> {
    let mut out = Vec::new();
    for (seed, kind) in [(11, WorkloadKind::Facebook), (12, WorkloadKind::TpcDs)] {
        let topo = topology::swan();
        let cfg = WorkloadConfig {
            kind,
            num_jobs: 5,
            seed,
            slot_seconds: 50.0,
            mean_interarrival_slots: 0.8,
            weighted: true,
            demand_scale: 0.02,
        };
        out.push(("swan", build_instance(&topo, &cfg).expect("builds")));
    }
    for seed in [13, 14] {
        let topo = topology::bipartite_switch(6, 2.0);
        let cfg = WorkloadConfig {
            kind: WorkloadKind::Facebook,
            num_jobs: 4,
            seed,
            slot_seconds: 50.0,
            mean_interarrival_slots: 1.0,
            weighted: false,
            demand_scale: 0.02,
        };
        out.push(("switch", build_instance(&topo, &cfg).expect("builds")));
    }
    out
}

#[test]
fn warm_epoch_resolves_match_cold_objectives_and_validate() {
    let lp_opts = SolverOptions::default();
    for (label, inst) in instances() {
        let run = online_heuristic_with(
            &inst,
            &Routing::FreePath,
            &lp_opts,
            &OnlineOptions {
                cold: false,
                shadow_cold: true,
            },
        )
        .unwrap_or_else(|e| panic!("{label}: online run failed: {e}"));

        // Per-epoch: the warm solve and the all-slack solve of the
        // same model agree on the optimum.
        let cold = run.cold_objectives.as_ref().expect("shadow mode records");
        assert_eq!(cold.len(), run.epoch_objectives.len());
        for (k, (w, c)) in run.epoch_objectives.iter().zip(cold).enumerate() {
            assert!(
                (w - c).abs() <= 1e-6 * (1.0 + c.abs()),
                "{label}: epoch {k} warm objective {w} vs cold {c}"
            );
        }
        // The executed schedule independently validates.
        validate(
            &inst,
            &Routing::FreePath,
            &run.schedule,
            Tolerance::default(),
        )
        .unwrap_or_else(|e| panic!("{label}: warm online schedule invalid: {e}"));
        // Effort accounting is populated.
        assert!(run.lp_iterations > 0);
        assert_eq!(run.epoch_objectives.len(), run.resolves);
    }
}

#[test]
fn warm_and_cold_trajectories_both_produce_valid_schedules() {
    // The --cold escape hatch follows its own (cold-solved) trajectory;
    // both trajectories must validate and respect the same LP bound.
    let lp_opts = SolverOptions::default();
    for (label, inst) in instances() {
        let mut costs = Vec::new();
        for cold in [false, true] {
            let run = online_heuristic_with(
                &inst,
                &Routing::FreePath,
                &lp_opts,
                &OnlineOptions {
                    cold,
                    shadow_cold: false,
                },
            )
            .unwrap_or_else(|e| panic!("{label}: cold={cold} run failed: {e}"));
            let rep = validate(
                &inst,
                &Routing::FreePath,
                &run.schedule,
                Tolerance::default(),
            )
            .unwrap_or_else(|e| panic!("{label}: cold={cold} schedule invalid: {e}"));
            costs.push(rep.completions.weighted_total);
        }
        // Shared lower bound: the offline time-indexed relaxation.
        let mut ctx = coflow_suite::core::solve::SolveContext::new();
        let bound = ctx
            .time_indexed(&inst, &Routing::FreePath)
            .expect("LP solves")
            .objective;
        for (cost, mode) in costs.iter().zip(["warm", "cold"]) {
            assert!(
                *cost >= bound - 1e-6 * (1.0 + bound.abs()),
                "{label}: {mode} trajectory cost {cost} beats the LP bound {bound}"
            );
        }
    }
}

#[test]
fn chained_interval_sweeps_match_cold_and_discretize_validly() {
    let lp_opts = SolverOptions::default();
    for (label, inst) in instances() {
        let horizon = coflow_suite::core::horizon::horizon(
            &inst,
            &Routing::FreePath,
            coflow_suite::core::horizon::HorizonMode::Greedy { margin: 1.25 },
        )
        .expect("horizon");
        let mut chain: Option<IntervalChain> = None;
        for k in 1..=5 {
            let eps = k as f64 * 0.2;
            let cold = solve_interval(&inst, &Routing::FreePath, horizon, eps, &lp_opts)
                .unwrap_or_else(|e| panic!("{label}: cold ε={eps} failed: {e}"));
            let (warm, next) = solve_interval_chained(
                &inst,
                &Routing::FreePath,
                horizon,
                eps,
                &lp_opts,
                chain.as_ref(),
            )
            .unwrap_or_else(|e| panic!("{label}: chained ε={eps} failed: {e}"));
            assert!(
                (warm.lp.objective - cold.lp.objective).abs()
                    <= 1e-6 * (1.0 + cold.lp.objective.abs()),
                "{label}: ε={eps} chained {} vs cold {}",
                warm.lp.objective,
                cold.lp.objective
            );
            // The warm point's uniform-rate plan is a real schedule.
            let sched = warm.lp.plan.discretize();
            let rep = validate(&inst, &Routing::FreePath, &sched, Tolerance::default())
                .unwrap_or_else(|e| panic!("{label}: ε={eps} chained plan invalid: {e}"));
            assert!(rep.peak_utilization <= 1.0 + 1e-6);
            chain = Some(next);
        }
    }
}

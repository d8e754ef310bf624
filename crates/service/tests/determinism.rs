//! Service determinism: streaming the bundled fb2010 trace through the
//! daemon's epoch engine reproduces the batch pipeline's per-epoch
//! objectives.
//!
//! The event-policy engine replays `coflow_core::online`'s exact
//! transformation sequence; with a single shard, sorted arrivals, and
//! the batch run's initial horizon as [`EngineConfig::horizon_hint`]
//! the per-epoch LP models are built identically, so the objectives
//! must match far tighter than LP tolerance (asserted at 1e-6), warm
//! *and* cold. The doubling-policy engine likewise reproduces
//! `interval_batch_online_with`, with every coflow released at 0 and
//! with staggered releases. Started from a one-slot horizon, both
//! policies grow it and still reach the unhinted objective.

use coflow_core::horizon::{horizon, HorizonMode};
use coflow_core::online::{online_heuristic_with, OnlineOptions};
use coflow_core::routing::Routing;
use coflow_lp::SolverOptions;
use coflow_runtime::Runtime;
use coflow_service::engine::{EngineConfig, EpochPolicy, PortCoflow, ServiceOutcome, TenantEngine};
use coflow_workloads::trace::{ReplayOptions, Trace, FB2010_SAMPLE};

fn port_coflows(trace: &Trace, opts: &ReplayOptions, zero_release: bool) -> Vec<PortCoflow> {
    let base = trace.port_base().expect("bundled trace is consistent");
    trace
        .coflows
        .iter()
        .map(|c| PortCoflow {
            id: c.id.clone(),
            weight: 1.0,
            release: if zero_release {
                0
            } else {
                c.release_slot(opts)
            },
            deadline: None,
            flows: c.port_flows(base, opts),
        })
        .collect()
}

fn stream_fb2010(config: EngineConfig, zero_release: bool) -> ServiceOutcome {
    let trace = Trace::parse(FB2010_SAMPLE).expect("bundled trace parses");
    let opts = ReplayOptions::default();
    let rt = Runtime::with_workers(2);
    let mut engine = TenantEngine::new(trace.num_ports, config);
    for pc in port_coflows(&trace, &opts, zero_release) {
        engine.admit(&rt, pc).expect("fb2010 coflows admit cleanly");
    }
    engine.finish(&rt).expect("fb2010 stream completes")
}

#[test]
fn event_stream_matches_online_replay_warm_and_cold() {
    let trace = Trace::parse(FB2010_SAMPLE).expect("bundled trace parses");
    let opts = ReplayOptions::default();
    let inst = trace.switch_instance(&opts).expect("switch instance");
    let t0 = horizon(
        &inst,
        &Routing::FreePath,
        HorizonMode::Greedy { margin: 1.25 },
    )
    .expect("greedy horizon");
    let lp_opts = SolverOptions::default();

    for cold in [false, true] {
        let batch = online_heuristic_with(
            &inst,
            &Routing::FreePath,
            &lp_opts,
            &coflow_core::online::OnlineOptions {
                cold,
                ..OnlineOptions::default()
            },
        )
        .expect("online replay succeeds");

        let outcome = stream_fb2010(
            EngineConfig {
                warm: !cold,
                horizon_hint: Some(t0),
                ..EngineConfig::default()
            },
            false,
        );

        assert_eq!(
            outcome.epoch_objectives.len(),
            batch.epoch_objectives.len(),
            "same number of re-solve epochs (cold={cold})"
        );
        for (k, (a, b)) in outcome
            .epoch_objectives
            .iter()
            .zip(&batch.epoch_objectives)
            .enumerate()
        {
            assert!(
                (a - b).abs() < 1e-6,
                "epoch {k} objective diverged (cold={cold}): service {a} vs online {b}"
            );
        }
        // Identical epoch models followed by the identical heuristic
        // ⇒ the executed schedules cost the same.
        let batch_total = batch
            .schedule
            .completions(&inst)
            .expect("online schedule completes")
            .weighted_total;
        assert!(
            (outcome.objective - batch_total).abs() < 1e-6,
            "final objective diverged (cold={cold}): service {} vs online {batch_total}",
            outcome.objective
        );
    }
}

#[test]
fn warm_epochs_cost_fewer_iterations_than_shadow_cold() {
    let outcome = stream_fb2010(
        EngineConfig {
            shadow_cold: true,
            ..EngineConfig::default()
        },
        false,
    );
    let cold = outcome.cold_iterations.expect("shadow-cold was measured");
    assert!(
        outcome.lp_iterations < cold,
        "warm epochs should beat the crash basis: warm {} vs cold {cold}",
        outcome.lp_iterations
    );
}

#[test]
fn doubling_stream_matches_batched_replay_at_zero_release() {
    let trace = Trace::parse(FB2010_SAMPLE).expect("bundled trace parses");
    let opts = ReplayOptions {
        // Collapse every arrival to slot 0: one doubling batch, which
        // the streaming engine must reproduce bit for bit.
        ms_per_slot: 1e12,
        ..ReplayOptions::default()
    };
    let inst = trace.switch_instance(&opts).expect("switch instance");
    let lp_opts = SolverOptions::default();
    let batch = coflow_core::flowtime::interval_batch_online_with(
        &inst,
        &Routing::FreePath,
        &lp_opts,
        true,
    )
    .expect("batched replay succeeds");
    assert_eq!(batch.batches, 1, "all-at-0 is a single batch");

    let outcome = stream_fb2010(
        EngineConfig {
            policy: EpochPolicy::Doubling,
            ..EngineConfig::default()
        },
        true,
    );
    assert_eq!(outcome.epochs, 1);
    let batch_total = batch
        .schedule
        .completions(&inst)
        .expect("batched schedule completes")
        .weighted_total;
    assert!(
        (outcome.objective - batch_total).abs() < 1e-6,
        "doubling objective diverged: service {} vs flowtime {batch_total}",
        outcome.objective
    );

    // Staggered releases: several batches, each dispatched after the
    // committed work, still reproduce the batch replay once the stream
    // starts from the same horizon.
    let opts = ReplayOptions::default();
    let inst = trace.switch_instance(&opts).expect("switch instance");
    let t0 = horizon(
        &inst,
        &Routing::FreePath,
        HorizonMode::Greedy { margin: 1.25 },
    )
    .expect("greedy horizon");
    let batch = coflow_core::flowtime::interval_batch_online_with(
        &inst,
        &Routing::FreePath,
        &lp_opts,
        true,
    )
    .expect("batched replay succeeds");
    assert!(batch.batches > 1, "staggered releases span batches");
    let outcome = stream_fb2010(
        EngineConfig {
            policy: EpochPolicy::Doubling,
            horizon_hint: Some(t0),
            ..EngineConfig::default()
        },
        false,
    );
    assert_eq!(outcome.epochs, batch.batches);
    let batch_total = batch
        .schedule
        .completions(&inst)
        .expect("batched schedule completes")
        .weighted_total;
    assert!(
        (outcome.objective - batch_total).abs() < 1e-6,
        "staggered doubling objective diverged: service {} vs flowtime {batch_total}",
        outcome.objective
    );
}

#[test]
fn horizon_growth_reaches_the_unhinted_objective_on_both_policies() {
    for policy in [EpochPolicy::Event, EpochPolicy::Doubling] {
        let unhinted = stream_fb2010(
            EngineConfig {
                policy,
                ..EngineConfig::default()
            },
            false,
        );
        // A one-slot horizon is far too short: the engine must grow it,
        // both before activating past it and after infeasible solves.
        // `finish` validated the merged schedule.
        let grown = stream_fb2010(
            EngineConfig {
                policy,
                horizon_hint: Some(1),
                ..EngineConfig::default()
            },
            false,
        );
        assert!(
            grown.rebuilds >= 1,
            "{policy:?}: a one-slot horizon must be grown"
        );
        assert!(
            (grown.objective - unhinted.objective).abs() < 1e-6,
            "{policy:?}: grown {} vs unhinted {}",
            grown.objective,
            unhinted.objective
        );
    }
}

#[test]
fn doubling_stream_handles_staggered_arrivals() {
    let outcome = stream_fb2010(
        EngineConfig {
            policy: EpochPolicy::Doubling,
            ..EngineConfig::default()
        },
        false,
    );
    // finish() validated the merged schedule against the full instance;
    // here we only pin the shape: several batches, all work done.
    assert_eq!(outcome.admitted, 20);
    assert!(outcome.epochs > 1, "staggered arrivals span batches");
    assert!(outcome.objective > 0.0);
    assert!(outcome.peak_utilization <= 1.0 + 1e-6);
}

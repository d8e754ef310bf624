//! Criterion benchmarks for the LP solver substrate:
//!
//! * `pricing/devex_full` — the default Devex full pricing on a coflow LP;
//! * `bounds/…` — the design ablation called out in `DESIGN.md` §6:
//!   implicit variable bounds vs explicit `x ≤ 1` rows.

#![allow(clippy::needless_range_loop)] // parallel-array LP fixtures

use coflow_core::routing::Routing;
use coflow_core::timeidx::solve_time_indexed;
use coflow_lp::{Cmp, Model, Sense, SolverOptions};
use coflow_netgraph::topology;
use coflow_workloads::{build_instance, WorkloadConfig, WorkloadKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random transportation LP: `suppliers × consumers`, balanced.
fn transportation(suppliers: usize, consumers: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(Sense::Minimize);
    let mut vars = vec![vec![None; consumers]; suppliers];
    for (i, row) in vars.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = Some(m.add_nonneg(format!("x{i}_{j}"), rng.gen_range(1.0..20.0)));
        }
    }
    let supply = 10.0 * consumers as f64 / suppliers as f64;
    for row in vars.iter().take(suppliers) {
        m.add_constraint(row.iter().map(|v| (v.unwrap(), 1.0)), Cmp::Eq, supply);
    }
    for j in 0..consumers {
        m.add_constraint(
            (0..suppliers).map(|i| (vars[i][j].unwrap(), 1.0)),
            Cmp::Eq,
            10.0,
        );
    }
    m
}

fn bench_transportation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_transportation");
    group.sample_size(10);
    for &(s, t) in &[(10usize, 15usize), (20, 30), (40, 60)] {
        let model = transportation(s, t, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{s}x{t}")),
            &model,
            |b, model| b.iter(|| model.solve().expect("solvable")),
        );
    }
    group.finish();
}

fn coflow_lp_model() -> (coflow_core::model::CoflowInstance, u32) {
    let topo = topology::swan();
    let cfg = WorkloadConfig {
        kind: WorkloadKind::Facebook,
        num_jobs: 8,
        seed: 3,
        slot_seconds: 50.0,
        mean_interarrival_slots: 1.0,
        weighted: true,
        demand_scale: 1.0,
    };
    let inst = build_instance(&topo, &cfg).expect("valid");
    let t = coflow_core::horizon::horizon(
        &inst,
        &Routing::FreePath,
        coflow_core::horizon::HorizonMode::Greedy { margin: 1.25 },
    )
    .expect("horizon");
    (inst, t)
}

fn bench_pricing(c: &mut Criterion) {
    let (inst, t) = coflow_lp_model();
    let mut group = c.benchmark_group("pricing");
    group.sample_size(10);
    let opts = SolverOptions::default();
    group.bench_function("devex_full", |b| {
        b.iter(|| solve_time_indexed(&inst, &Routing::FreePath, t, &opts).expect("solves"))
    });
    group.finish();
}

/// Ablation: the same box-constrained LP expressed with implicit bounds
/// (the solver's native form) vs explicit `x ≤ u` constraint rows.
fn bench_bounds_ablation(c: &mut Criterion) {
    let n = 300;
    let rows = 150;
    let mut rng = StdRng::seed_from_u64(9);
    let data: Vec<Vec<(usize, f64)>> = (0..rows)
        .map(|_| {
            (0..6)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0.2..2.0)))
                .collect()
        })
        .collect();
    let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..-0.1)).collect();

    let build = |explicit_rows: bool| {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|j| {
                if explicit_rows {
                    m.add_nonneg(format!("x{j}"), costs[j])
                } else {
                    m.add_var(format!("x{j}"), 0.0, 1.0, costs[j])
                }
            })
            .collect();
        if explicit_rows {
            for &v in &vars {
                m.add_constraint([(v, 1.0)], Cmp::Le, 1.0);
            }
        }
        for terms in &data {
            m.add_constraint(terms.iter().map(|&(j, a)| (vars[j], a)), Cmp::Le, 3.0);
        }
        m
    };
    let implicit = build(false);
    let explicit = build(true);
    // Same optimum; wildly different basis sizes.
    let oi = implicit.solve().expect("solvable").objective;
    let oe = explicit.solve().expect("solvable").objective;
    assert!((oi - oe).abs() < 1e-5 * (1.0 + oi.abs()));

    let mut group = c.benchmark_group("bounds");
    group.sample_size(10);
    group.bench_function("implicit_bounds", |b| {
        b.iter(|| implicit.solve().expect("ok"))
    });
    group.bench_function("explicit_rows", |b| {
        b.iter(|| explicit.solve().expect("ok"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_transportation_scaling,
    bench_pricing,
    bench_bounds_ablation
);
criterion_main!(benches);

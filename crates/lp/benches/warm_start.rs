//! Solver-level warm-start benchmarks: cold vs warm re-solves after the
//! two mutations the coflow pipeline performs every epoch — an RHS
//! perturbation (capacity/executed-work change) and a column append (a
//! newly arrived flow stitched into existing rows). Criterion measures
//! time; the printed pivot counts tell the algorithmic story.

use coflow_lp::{Cmp, Model, Sense, SolverOptions, VarId};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A coflow-LP-shaped model: bounded columns chained through shared
/// `≥` rows, mimicking prefix chains crossing capacity rows.
fn chained_lp(n: usize, seed: u64) -> (Model, Vec<VarId>, Vec<coflow_lp::ConstraintId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<VarId> = (0..n)
        .map(|j| m.add_var(format!("x{j}"), 0.0, 8.0, rng.gen_range(0.5..5.0)))
        .collect();
    let mut rows = Vec::new();
    for i in 0..n - 1 {
        rows.push(m.add_constraint(
            [(xs[i], 1.0), (xs[i + 1], 1.0), (xs[(i * 5 + 2) % n], 0.4)],
            Cmp::Ge,
            2.0 + (i % 7) as f64,
        ));
    }
    (m, xs, rows)
}

fn bench_rhs_perturbation(c: &mut Criterion) {
    let (model, _, rows) = chained_lp(200, 42);
    let opts = SolverOptions::default();
    let (_, basis) = model.solve_warm(None, &opts).expect("solves");
    let mid = rows[rows.len() / 2];

    let mut group = c.benchmark_group("warm_start_rhs");
    group.bench_function("warm", |b| {
        b.iter(|| {
            let mut m = model.clone();
            m.set_rhs(mid, 3.7);
            m.solve_warm(Some(&basis), &opts).expect("resolves")
        })
    });
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut m = model.clone();
            m.set_rhs(mid, 3.7);
            m.solve_warm(None, &opts).expect("resolves")
        })
    });
    group.finish();

    let mut m = model.clone();
    m.set_rhs(mid, 3.7);
    let (warm, _) = m.solve_warm(Some(&basis), &opts).expect("resolves");
    let (cold, _) = m.solve_warm(None, &opts).expect("resolves");
    println!(
        "warm_start_rhs pivots: warm {} (refactors {}) vs cold {} (refactors {})",
        warm.iterations, warm.refactorizations, cold.iterations, cold.refactorizations
    );
}

/// Appends `k` new columns stitched into existing rows plus one new
/// coupling row — the arrival-epoch mutation.
fn append_columns(model: &mut Model, rows: &[coflow_lp::ConstraintId], k: usize) {
    for a in 0..k {
        let z = model.add_var(format!("z{a}"), 0.0, 4.0, 0.8 + a as f64 * 0.1);
        model.add_term(rows[(a * 13 + 7) % rows.len()], z, 1.0);
        model.add_term(rows[(a * 29 + 3) % rows.len()], z, 0.5);
        model.add_constraint([(z, 1.0)], Cmp::Le, 3.0);
    }
}

fn bench_column_append(c: &mut Criterion) {
    let (model, _, rows) = chained_lp(200, 7);
    let opts = SolverOptions::default();
    let (_, basis) = model.solve_warm(None, &opts).expect("solves");

    let mut group = c.benchmark_group("warm_start_append");
    group.bench_function("warm", |b| {
        b.iter(|| {
            let mut m = model.clone();
            append_columns(&mut m, &rows, 8);
            let mut grown = basis.clone();
            grown.grow(m.num_vars(), m.num_constraints());
            m.solve_warm(Some(&grown), &opts).expect("resolves")
        })
    });
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut m = model.clone();
            append_columns(&mut m, &rows, 8);
            m.solve_warm(None, &opts).expect("resolves")
        })
    });
    group.finish();

    let mut m = model.clone();
    append_columns(&mut m, &rows, 8);
    let mut grown = basis.clone();
    grown.grow(m.num_vars(), m.num_constraints());
    let (warm, _) = m.solve_warm(Some(&grown), &opts).expect("resolves");
    let (cold, _) = m.solve_warm(None, &opts).expect("resolves");
    println!(
        "warm_start_append pivots: warm {} vs cold {} ({:.1}x fewer); objectives {} vs {}",
        warm.iterations,
        cold.iterations,
        cold.iterations as f64 / warm.iterations.max(1) as f64,
        warm.objective,
        cold.objective
    );
    assert!(
        (warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
        "warm append drifted from the cold optimum"
    );
}

criterion_group!(benches, bench_rhs_perturbation, bench_column_append);
criterion_main!(benches);

//! Differential and property tests for the revised simplex solver.
//!
//! Strategy: generate random LPs that are feasible *by construction*
//! (pick an interior point first, then set right-hand sides around it),
//! solve with both the sparse revised simplex and the dense tableau
//! oracle, and require matching objectives. Separately, check optimality
//! against random feasible points and agreement across solver options.

#![allow(clippy::needless_range_loop)] // parallel-array test fixtures

use coflow_lp::{dense, Cmp, LpError, Model, Sense, SolverOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random feasible LP together with the feasible point used to
/// construct it. With `finite_bounds` the LP is also bounded, so a solve
/// must succeed.
fn random_feasible_lp_with(
    rng: &mut StdRng,
    nvars: usize,
    nrows: usize,
    finite_bounds: bool,
) -> (Model, Vec<f64>) {
    let sense = if rng.gen_bool(0.5) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut x0 = Vec::with_capacity(nvars);
    let mut vars = Vec::with_capacity(nvars);
    for j in 0..nvars {
        // Mix of bound shapes.
        let shape = if finite_bounds {
            rng.gen_range(1..3)
        } else {
            rng.gen_range(0..5)
        };
        let (lb, ub) = match shape {
            0 => (0.0, f64::INFINITY),
            1 => (0.0, rng.gen_range(0.5..5.0)),
            2 => (rng.gen_range(-5.0..-0.5), rng.gen_range(0.5..5.0)),
            3 => (f64::NEG_INFINITY, rng.gen_range(0.0..4.0)),
            _ => {
                let lb = rng.gen_range(-3.0..3.0);
                (lb, lb + rng.gen_range(0.0..4.0))
            }
        };
        let obj = rng.gen_range(-3.0..3.0);
        vars.push(m.add_var(format!("x{j}"), lb, ub, obj));
        // A point within bounds.
        let lo = if lb.is_finite() {
            lb
        } else {
            ub.min(0.0) - 2.0
        };
        let hi = if ub.is_finite() {
            ub
        } else {
            lb.max(0.0) + 2.0
        };
        x0.push(if lo < hi { rng.gen_range(lo..hi) } else { lo });
    }
    for _ in 0..nrows {
        let nnz = rng.gen_range(1..=nvars.min(4));
        let mut terms = Vec::with_capacity(nnz);
        let mut lhs = 0.0;
        for _ in 0..nnz {
            let j = rng.gen_range(0..nvars);
            let a = rng.gen_range(-2.0..2.0);
            if a == 0.0 {
                continue;
            }
            terms.push((vars[j], a));
            lhs += a * x0[j];
        }
        if terms.is_empty() {
            continue;
        }
        // Right-hand side keeps x0 feasible; equalities pass exactly
        // through x0 so the LP always has a feasible point.
        match rng.gen_range(0..3) {
            0 => {
                m.add_constraint(terms, Cmp::Le, lhs + rng.gen_range(0.0..2.0));
            }
            1 => {
                m.add_constraint(terms, Cmp::Ge, lhs - rng.gen_range(0.0..2.0));
            }
            _ => {
                m.add_constraint(terms, Cmp::Eq, lhs);
            }
        }
    }
    (m, x0)
}

fn random_feasible_lp(rng: &mut StdRng, nvars: usize, nrows: usize) -> (Model, Vec<f64>) {
    random_feasible_lp_with(rng, nvars, nrows, false)
}

#[test]
fn sparse_matches_dense_oracle_on_random_lps() {
    let mut rng = StdRng::seed_from_u64(20_190_622); // SPAA'19 dates
    let mut optimal = 0;
    for trial in 0..400 {
        let nvars = rng.gen_range(1..8);
        let nrows = rng.gen_range(1..8);
        let (model, _x0) = random_feasible_lp(&mut rng, nvars, nrows);
        let sparse = model.solve();
        let oracle = dense::solve(&model);
        match (sparse, oracle) {
            (Ok(s), Ok(o)) => {
                optimal += 1;
                let scale = 1.0 + s.objective.abs().max(o.objective.abs());
                assert!(
                    (s.objective - o.objective).abs() / scale < 1e-6,
                    "trial {trial}: sparse {} vs oracle {}",
                    s.objective,
                    o.objective
                );
                assert!(
                    model.max_violation(&s.x) < 1e-6,
                    "trial {trial}: infeasible sparse solution"
                );
            }
            (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            (s, o) => panic!("trial {trial}: status mismatch sparse={s:?} oracle={o:?}"),
        }
    }
    // The generator produces mostly bounded LPs; make sure the test has
    // teeth and is not vacuously passing on disagreement-free errors.
    assert!(optimal > 200, "only {optimal} optimal instances");
}

#[test]
fn options_do_not_change_the_answer() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..100 {
        let (model, _) = random_feasible_lp(&mut rng, 6, 6);
        let variants = [
            SolverOptions::default(),
            SolverOptions {
                presolve: false,
                ..Default::default()
            },
            SolverOptions {
                scale: false,
                ..Default::default()
            },
            SolverOptions {
                presolve: false,
                scale: false,
                refactor_interval: 1,
                ..Default::default()
            },
        ];
        let results: Vec<_> = variants.iter().map(|o| model.solve_with(o)).collect();
        let first = &results[0];
        for (vi, r) in results.iter().enumerate() {
            match (first, r) {
                (Ok(a), Ok(b)) => {
                    let scale = 1.0 + a.objective.abs();
                    assert!(
                        (a.objective - b.objective).abs() / scale < 1e-6,
                        "trial {trial} variant {vi}: {} vs {}",
                        a.objective,
                        b.objective
                    );
                }
                (Err(ea), Err(eb)) => assert_eq!(
                    std::mem::discriminant(ea),
                    std::mem::discriminant(eb),
                    "trial {trial} variant {vi}"
                ),
                other => panic!("trial {trial} variant {vi}: {other:?}"),
            }
        }
    }
}

#[test]
fn optimum_beats_random_feasible_points() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..200 {
        let (model, x0) = random_feasible_lp(&mut rng, 5, 5);
        let Ok(sol) = model.solve() else {
            continue; // unbounded instances have nothing to check
        };
        // x0 is feasible by construction; the solver's objective must be
        // at least as good.
        assert!(model.max_violation(&x0) < 1e-9, "trial {trial}");
        let obj0 = model.objective_at(&x0);
        let better = match model.sense() {
            Sense::Minimize => sol.objective <= obj0 + 1e-6 * (1.0 + obj0.abs()),
            Sense::Maximize => sol.objective >= obj0 - 1e-6 * (1.0 + obj0.abs()),
        };
        assert!(
            better,
            "trial {trial}: solver {} worse than known point {}",
            sol.objective, obj0
        );
    }
}

#[test]
fn medium_sparse_lp_solves_and_is_feasible() {
    // A larger random-but-feasible LP to exercise refactorization, FT
    // updates, and Devex on something beyond toy size. Finite bounds on
    // every variable keep it bounded as well as feasible.
    let mut rng = StdRng::seed_from_u64(1234);
    let (model, x0) = random_feasible_lp_with(&mut rng, 300, 220, true);
    let sol = model.solve().expect("feasible by construction");
    assert!(model.max_violation(&sol.x) < 1e-5);
    let obj0 = model.objective_at(&x0);
    match model.sense() {
        Sense::Minimize => assert!(sol.objective <= obj0 + 1e-5 * (1.0 + obj0.abs())),
        Sense::Maximize => assert!(sol.objective >= obj0 - 1e-5 * (1.0 + obj0.abs())),
    }
}

#[test]
fn transportation_problem_known_optimum() {
    // Classic balanced transportation instance; optimum known by
    // inspection/solver: supplies [20, 30], demands [10, 25, 15], costs
    // [[8,6,10],[9,12,13]]. Optimal cost = 10*6 + ... compute: ship from
    // s0: 20 units to cheapest lanes (6 -> d1 x20); s1: d0 x10 (9), d1 x5
    // (12), d2 x15 (13) -> 120 + 90 + 60 + 195 = 465.
    let mut m = Model::new(Sense::Minimize);
    let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
    let supplies = [20.0, 30.0];
    let demands = [10.0, 25.0, 15.0];
    let mut x = [[None; 3]; 2];
    for i in 0..2 {
        for j in 0..3 {
            x[i][j] = Some(m.add_nonneg(format!("x{i}{j}"), costs[i][j]));
        }
    }
    for i in 0..2 {
        m.add_constraint(
            (0..3).map(|j| (x[i][j].unwrap(), 1.0)),
            Cmp::Eq,
            supplies[i],
        );
    }
    for j in 0..3 {
        m.add_constraint((0..2).map(|i| (x[i][j].unwrap(), 1.0)), Cmp::Eq, demands[j]);
    }
    let s = m.solve().unwrap();
    assert!(
        (s.objective - 465.0).abs() < 1e-6,
        "objective {}",
        s.objective
    );
}

#[test]
fn lp_with_wide_magnitude_range_needs_scaling() {
    // Coefficients spanning 1e-4..1e5, still must solve correctly.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_nonneg("x", 1e4);
    let y = m.add_nonneg("y", 1.0);
    m.add_constraint([(x, 1e5), (y, 1e-4)], Cmp::Ge, 10.0);
    m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 1e5);
    let s = m.solve().unwrap();
    assert!(m.max_violation(&s.x) < 1e-6);
    // Cheapest: satisfy row 1 with x = 1e-4 (cost 1.0) vs y = 1e5 (cost
    // 1e5). So x = 1e-4, objective 1.0.
    assert!(
        (s.objective - 1.0).abs() < 1e-4,
        "objective {}",
        s.objective
    );
}

#[test]
fn degenerate_assignment_polytope() {
    // Assignment LP (Birkhoff polytope) is highly degenerate; 6x6.
    let n = 6;
    let mut rng = StdRng::seed_from_u64(5);
    let mut m = Model::new(Sense::Minimize);
    let mut cost = vec![vec![0.0; n]; n];
    let mut v = vec![vec![None; n]; n];
    for i in 0..n {
        for j in 0..n {
            cost[i][j] = rng.gen_range(0.0..10.0);
            v[i][j] = Some(m.add_var(format!("a{i}{j}"), 0.0, 1.0, cost[i][j]));
        }
    }
    for i in 0..n {
        m.add_constraint((0..n).map(|j| (v[i][j].unwrap(), 1.0)), Cmp::Eq, 1.0);
        m.add_constraint((0..n).map(|j| (v[j][i].unwrap(), 1.0)), Cmp::Eq, 1.0);
    }
    let s = m.solve().unwrap();
    // Compare against brute-force best permutation (LP optimum of the
    // assignment polytope is integral).
    let mut best = f64::INFINITY;
    let mut perm: Vec<usize> = (0..n).collect();
    // Heap's algorithm, 720 permutations.
    fn heaps(k: usize, perm: &mut Vec<usize>, cost: &[Vec<f64>], best: &mut f64) {
        if k == 1 {
            let c: f64 = perm.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            if c < *best {
                *best = c;
            }
            return;
        }
        for i in 0..k {
            heaps(k - 1, perm, cost, best);
            if k.is_multiple_of(2) {
                perm.swap(i, k - 1);
            } else {
                perm.swap(0, k - 1);
            }
        }
    }
    heaps(n, &mut perm, &cost, &mut best);
    assert!(
        (s.objective - best).abs() < 1e-6,
        "LP {} vs exact {best}",
        s.objective
    );
}

#[test]
fn beale_cycling_example_terminates() {
    // Beale (1955): the classic LP on which Dantzig's rule cycles under
    // naive tie-breaking. Any anti-cycling safeguard must reach the
    // optimum 0.05 at (x1..x4) = (1/25, 0, 1, 0).
    //   min -0.75x1 + 150x2 - 0.02x3 + 6x4
    //   s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
    //        0.50x1 - 90x2 - 0.02x3 + 3x4 <= 0
    //        x3 <= 1,   x >= 0
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_nonneg("x1", -0.75);
    let x2 = m.add_nonneg("x2", 150.0);
    let x3 = m.add_nonneg("x3", -0.02);
    let x4 = m.add_nonneg("x4", 6.0);
    m.add_constraint(
        [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Cmp::Le,
        0.0,
    );
    m.add_constraint(
        [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Cmp::Le,
        0.0,
    );
    m.add_constraint([(x3, 1.0)], Cmp::Le, 1.0);
    for pricing in [coflow_lp::Pricing::Devex, coflow_lp::Pricing::SteepestEdge] {
        let opts = SolverOptions {
            pricing,
            presolve: false,
            scale: false,
            ..Default::default()
        };
        let s = m.solve_with(&opts).expect("must terminate");
        assert!(
            (s.objective + 0.05).abs() < 1e-9,
            "{pricing:?}: objective {}",
            s.objective
        );
    }
}

#[test]
fn engines_agree_on_presolved_random_lps() {
    // Full-pipeline equivalence: the sparse revised simplex with
    // presolve and scaling on vs the dense tableau. Both land on a vertex
    // optimum of the same polytope, so objectives must agree to 1e-9
    // relative — an order of magnitude tighter than the generic oracle
    // test above.
    let mut rng = StdRng::seed_from_u64(20_190_624);
    let mut optimal = 0;
    for trial in 0..200 {
        let nvars = rng.gen_range(2..10);
        let nrows = rng.gen_range(1..10);
        let (model, _x0) = random_feasible_lp(&mut rng, nvars, nrows);
        match (model.solve(), dense::solve(&model)) {
            (Ok(s), Ok(d)) => {
                optimal += 1;
                let scale = 1.0 + s.objective.abs().max(d.objective.abs());
                assert!(
                    (s.objective - d.objective).abs() / scale < 1e-9,
                    "trial {trial}: sparse {} vs dense {}",
                    s.objective,
                    d.objective
                );
                assert!(
                    model.max_violation(&s.x) < 1e-7,
                    "trial {trial}: infeasible sparse solution"
                );
                assert!(
                    model.max_violation(&d.x) < 1e-7,
                    "trial {trial}: infeasible dense solution"
                );
            }
            (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            (s, d) => panic!("trial {trial}: status mismatch sparse={s:?} dense={d:?}"),
        }
    }
    assert!(optimal > 100, "only {optimal} optimal instances");
}

#[test]
fn warm_epochs_match_dense_oracle() {
    // The resolver's epoch loop at the LP layer: grow a feasible LP over
    // several epochs — append bounded columns stitched into existing
    // rows, append rows cutting near the current optimum — re-solving
    // warm from the previous basis each time, exactly like
    // `TimeIndexedResolver` does at every arrival. After every epoch the
    // warm objective must match the dense tableau solving the mutated
    // model from scratch, to 1e-9.
    let mut rng = StdRng::seed_from_u64(190_617);
    let opts = SolverOptions::default();
    for trial in 0..40 {
        let nvars = rng.gen_range(3..7);
        let nrows = rng.gen_range(2..6);
        let (mut model, mut x0) = random_feasible_lp_with(&mut rng, nvars, nrows, true);
        let Ok((_, mut basis)) = model.solve_warm(None, &opts) else {
            continue; // bounded by construction, but stay defensive
        };
        for epoch in 0..4 {
            // Append a boxed column, nonbasic at lower bound zero, wired
            // into up to two existing rows (the resolver's column shape).
            let nv = model.num_vars();
            let v = model.add_var(
                format!("e{epoch}v{nv}"),
                0.0,
                rng.gen_range(0.5..3.0),
                rng.gen_range(-2.0..2.0),
            );
            x0.push(0.0);
            for _ in 0..rng.gen_range(1..=2usize) {
                let c =
                    coflow_lp::ConstraintId::from_index(rng.gen_range(0..model.num_constraints()));
                model.add_term(c, v, rng.gen_range(-2.0..2.0));
            }
            // Append a ≤ row that keeps the construction point feasible
            // but cuts close to it, so the dual step has real work.
            let nnz = rng.gen_range(1..=3usize);
            let mut terms = Vec::with_capacity(nnz);
            let mut lhs = 0.0;
            for _ in 0..nnz {
                let j = rng.gen_range(0..model.num_vars());
                let a = rng.gen_range(-2.0..2.0);
                terms.push((coflow_lp::VarId::from_index(j), a));
                lhs += a * x0[j];
            }
            model.add_constraint(terms, Cmp::Le, lhs + rng.gen_range(0.1..1.0));

            let (warm, next) = model
                .solve_warm(Some(&basis), &opts)
                .unwrap_or_else(|e| panic!("trial {trial} epoch {epoch}: warm failed: {e}"));
            let cold = dense::solve(&model)
                .unwrap_or_else(|e| panic!("trial {trial} epoch {epoch}: dense failed: {e}"));
            let scale = 1.0 + warm.objective.abs().max(cold.objective.abs());
            assert!(
                (warm.objective - cold.objective).abs() / scale < 1e-9,
                "trial {trial} epoch {epoch}: warm {} vs dense {}",
                warm.objective,
                cold.objective
            );
            assert!(
                model.max_violation(&warm.x) < 1e-7,
                "trial {trial} epoch {epoch}: warm solution infeasible"
            );
            basis = next;
        }
    }
}

#[test]
fn ft_eta_and_full_refactor_epoch_chains_agree() {
    // The same epoch chains as `warm_epochs_match_dense_oracle`, run
    // two ways in lock-step: Forrest–Tomlin updates (the default) and
    // refactorize-every-pivot (`refactor_interval: 1`, the
    // no-update-file ground truth). Both must match the dense tableau to
    // 1e-9 at every epoch and hand back structurally valid bases
    // (exactly one basic variable per row).
    let variants = [
        SolverOptions::default(),
        SolverOptions {
            refactor_interval: 1,
            ..Default::default()
        },
    ];
    let mut rng = StdRng::seed_from_u64(190_617);
    for trial in 0..40 {
        let nvars = rng.gen_range(3..7);
        let nrows = rng.gen_range(2..6);
        let (mut model, mut x0) = random_feasible_lp_with(&mut rng, nvars, nrows, true);
        let mut bases: Vec<_> = Vec::new();
        for opts in &variants {
            let Ok((_, b)) = model.solve_warm(None, opts) else {
                panic!("trial {trial}: bounded LP failed to solve");
            };
            bases.push(b);
        }
        for epoch in 0..4 {
            // Same mutation shape as the resolver's arrival epochs.
            let nv = model.num_vars();
            let v = model.add_var(
                format!("e{epoch}v{nv}"),
                0.0,
                rng.gen_range(0.5..3.0),
                rng.gen_range(-2.0..2.0),
            );
            x0.push(0.0);
            for _ in 0..rng.gen_range(1..=2usize) {
                let c =
                    coflow_lp::ConstraintId::from_index(rng.gen_range(0..model.num_constraints()));
                model.add_term(c, v, rng.gen_range(-2.0..2.0));
            }
            let nnz = rng.gen_range(1..=3usize);
            let mut terms = Vec::with_capacity(nnz);
            let mut lhs = 0.0;
            for _ in 0..nnz {
                let j = rng.gen_range(0..model.num_vars());
                let a = rng.gen_range(-2.0..2.0);
                terms.push((coflow_lp::VarId::from_index(j), a));
                lhs += a * x0[j];
            }
            model.add_constraint(terms, Cmp::Le, lhs + rng.gen_range(0.1..1.0));

            let oracle = dense::solve(&model)
                .unwrap_or_else(|e| panic!("trial {trial} epoch {epoch}: dense failed: {e}"));
            for (k, opts) in variants.iter().enumerate() {
                bases[k].grow(model.num_vars(), model.num_constraints());
                let (sol, next) = model.solve_warm(Some(&bases[k]), opts).unwrap_or_else(|e| {
                    panic!("trial {trial} epoch {epoch} variant {k}: warm failed: {e}")
                });
                let scale = 1.0 + sol.objective.abs().max(oracle.objective.abs());
                assert!(
                    (sol.objective - oracle.objective).abs() / scale < 1e-9,
                    "trial {trial} epoch {epoch} variant {k}: {} vs dense {}",
                    sol.objective,
                    oracle.objective
                );
                assert!(
                    model.max_violation(&sol.x) < 1e-7,
                    "trial {trial} epoch {epoch} variant {k}: infeasible solution"
                );
                // Structural basis validation: the bounded-variable
                // simplex keeps exactly one basic variable per row.
                assert_eq!(
                    next.num_basic(),
                    model.num_constraints(),
                    "trial {trial} epoch {epoch} variant {k}: invalid basis"
                );
                bases[k] = next;
            }
        }
    }
}

#[test]
fn slot_block_detection_fires_exactly_on_the_block_signature() {
    // Property: `detect_slot_blocks` fires iff the model carries the
    // per-slot capacity signature — every `≤` row all-positive with a
    // positive rhs over lb=0 variables, splitting into ≥ 2 variable-
    // disjoint components. Random LPs here have signed coefficients and
    // mixed bound shapes, so the reference predicate (recomputed
    // independently below) almost always says no — and the pass must
    // agree exactly, never firing on non-time-indexed structure. When it
    // does fire, the crash point must respect every capacity row.
    fn signature(m: &Model) -> bool {
        let le_rows: Vec<Vec<(usize, f64)>> = m
            .constraints_iter()
            .filter(|c| c.cmp() == Cmp::Le)
            .map(|c| {
                if c.rhs() <= 0.0 {
                    vec![]
                } else {
                    c.terms().map(|(v, a)| (v.index(), a)).collect()
                }
            })
            .collect();
        if le_rows.len() < 2 || le_rows.iter().any(Vec::is_empty) {
            return false;
        }
        for row in &le_rows {
            for &(v, a) in row {
                if a <= 0.0 || m.var_bounds(coflow_lp::VarId::from_index(v)).0 != 0.0 {
                    return false;
                }
            }
        }
        // Count connected components by repeated merging (O(r²) is fine
        // at test sizes) — deliberately a different algorithm from the
        // union-find inside the pass.
        let mut comps: Vec<std::collections::BTreeSet<usize>> = le_rows
            .iter()
            .map(|r| r.iter().map(|&(v, _)| v).collect())
            .collect();
        let mut merged = true;
        while merged {
            merged = false;
            'outer: for i in 0..comps.len() {
                for j in i + 1..comps.len() {
                    if !comps[i].is_disjoint(&comps[j]) {
                        let other = comps.remove(j);
                        comps[i].extend(other);
                        merged = true;
                        break 'outer;
                    }
                }
            }
        }
        comps.len() >= 2
    }

    let mut rng = StdRng::seed_from_u64(20_190_625);
    let mut fired = 0;
    for trial in 0..300 {
        let nvars = rng.gen_range(1..8);
        let nrows = rng.gen_range(1..8);
        let (model, _x0) = random_feasible_lp(&mut rng, nvars, nrows);
        let detected = coflow_lp::detect_slot_blocks(&model);
        assert_eq!(
            detected.is_some(),
            signature(&model),
            "trial {trial}: detection disagrees with the signature predicate"
        );
        if detected.is_some() {
            fired += 1;
            let x = coflow_lp::slot_block_crash(&model).expect("crash follows detection");
            for c in model.constraints_iter() {
                if c.cmp() == Cmp::Le {
                    let act: f64 = c.terms().map(|(v, a)| a * x[v.index()]).sum();
                    assert!(act <= c.rhs() + 1e-9, "trial {trial}: crash violates a row");
                }
            }
        }
    }
    // The generator produces signed general LPs: firing must stay the
    // rare exception, not the rule.
    assert!(
        fired < 30,
        "slot-block pass fired on {fired}/300 random LPs"
    );
}

#[test]
fn kuhn_degenerate_lp() {
    // A strongly degenerate LP (multiple zero-RHS rows through the
    // origin); checks the Bland fallback path engages and terminates.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_nonneg("x", -2.0);
    let y = m.add_nonneg("y", -3.0);
    let z = m.add_nonneg("z", 1.0);
    m.add_constraint([(x, 1.0), (y, -1.0), (z, 1.0)], Cmp::Le, 0.0);
    m.add_constraint([(x, -1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 0.0);
    m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    let s = m.solve().expect("terminates");
    // Optimum: x = y = 2 (z = 0): objective -10.
    assert!(
        (s.objective + 10.0).abs() < 1e-7,
        "objective {}",
        s.objective
    );
}

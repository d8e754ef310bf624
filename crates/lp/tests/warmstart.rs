//! Differential tests for warm-started re-solves.
//!
//! Strategy: build a random feasible LP, solve it cold to obtain a basis
//! snapshot, apply a random perturbation (right-hand sides, objective
//! coefficients, or variable bounds), then require the warm re-solve to
//! agree with a cold solve of the perturbed model — same objective, same
//! feasibility, same infeasible/unbounded verdicts.

use coflow_lp::{Basis, BasisStatus, Cmp, LpError, Model, Sense, SolverOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random feasible-by-construction LP with finite bounds on every
/// variable (feasible AND bounded, so the cold solve must succeed).
fn random_lp(
    rng: &mut StdRng,
    nvars: usize,
    nrows: usize,
) -> (Model, Vec<coflow_lp::VarId>, Vec<coflow_lp::ConstraintId>) {
    let sense = if rng.gen_bool(0.5) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut x0 = Vec::with_capacity(nvars);
    let mut vars = Vec::with_capacity(nvars);
    for j in 0..nvars {
        let lb = rng.gen_range(-4.0..1.0);
        let ub = lb + rng.gen_range(0.5..6.0);
        vars.push(m.add_var(format!("x{j}"), lb, ub, rng.gen_range(-3.0..3.0)));
        x0.push(rng.gen_range(lb..ub));
    }
    let mut rows = Vec::with_capacity(nrows);
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
        let id = match rng.gen_range(0..3) {
            0 => m.add_constraint(terms, Cmp::Le, lhs + rng.gen_range(0.0..2.0)),
            1 => m.add_constraint(terms, Cmp::Ge, lhs - rng.gen_range(0.0..2.0)),
            _ => m.add_constraint(terms, Cmp::Eq, lhs),
        };
        rows.push(id);
    }
    (m, vars, rows)
}

/// Applies a random perturbation; the result may be infeasible, which
/// both solvers must then agree on.
fn perturb(
    rng: &mut StdRng,
    m: &mut Model,
    vars: &[coflow_lp::VarId],
    rows: &[coflow_lp::ConstraintId],
) {
    for _ in 0..rng.gen_range(1..4) {
        match rng.gen_range(0..3) {
            0 if !rows.is_empty() => {
                let c = rows[rng.gen_range(0..rows.len())];
                let old = m.constraint(c).rhs();
                m.set_rhs(c, old + rng.gen_range(-1.5..1.5));
            }
            1 => {
                let v = vars[rng.gen_range(0..vars.len())];
                m.set_obj(v, rng.gen_range(-3.0..3.0));
            }
            _ => {
                let v = vars[rng.gen_range(0..vars.len())];
                let (lb, ub) = m.var_bounds(v);
                let nlb = lb + rng.gen_range(-0.5..0.5);
                let nub = (ub + rng.gen_range(-0.5..0.5)).max(nlb);
                m.set_bounds(v, nlb, nub);
            }
        }
    }
}

#[test]
fn warm_resolve_matches_cold_after_random_perturbations() {
    let mut rng = StdRng::seed_from_u64(0xC0F10);
    let opts = SolverOptions::default();
    let mut solved = 0;
    let mut infeasible = 0;
    for trial in 0..300 {
        let nvars = rng.gen_range(2..8);
        let nrows = rng.gen_range(1..8);
        let (mut m, vars, rows) = random_lp(&mut rng, nvars, nrows);
        let Ok((_, basis)) = m.solve_warm(None, &opts) else {
            continue; // random row subset degenerated to empty
        };
        perturb(&mut rng, &mut m, &vars, &rows);
        let warm = m.solve_warm(Some(&basis), &opts);
        let cold = m.solve_with(&SolverOptions {
            presolve: false, // match the warm path's model view
            ..Default::default()
        });
        match (warm, cold) {
            (Ok((w, _)), Ok(c)) => {
                solved += 1;
                let scale = 1.0 + w.objective.abs().max(c.objective.abs());
                assert!(
                    (w.objective - c.objective).abs() / scale < 1e-6,
                    "trial {trial}: warm {} vs cold {}",
                    w.objective,
                    c.objective
                );
                assert!(
                    m.max_violation(&w.x) < 1e-6,
                    "trial {trial}: warm solution infeasible"
                );
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {
                infeasible += 1;
            }
            (w, c) => panic!("trial {trial}: verdict mismatch warm={w:?} cold={c:?}"),
        }
    }
    assert!(
        solved > 150,
        "only {solved} optimal trials — generator broken?"
    );
    assert!(infeasible > 5, "perturbations never went infeasible");
}

#[test]
fn chained_warm_resolves_track_a_moving_rhs() {
    // One model, twenty successive RHS nudges, basis carried through the
    // whole chain; each step compared against a cold solve.
    let mut rng = StdRng::seed_from_u64(42);
    let (mut m, _, rows) = random_lp(&mut rng, 6, 6);
    if rows.is_empty() {
        return;
    }
    let opts = SolverOptions::default();
    let (_, mut basis) = m.solve_warm(None, &opts).unwrap();
    let mut checked = 0;
    for step in 0..20 {
        let c = rows[step % rows.len()];
        let old = m.constraint(c).rhs();
        m.set_rhs(c, old + if step % 2 == 0 { 0.4 } else { -0.3 });
        match (m.solve_warm(Some(&basis), &opts), m.solve()) {
            (Ok((w, nb)), Ok(c)) => {
                basis = nb;
                let scale = 1.0 + c.objective.abs();
                assert!(
                    (w.objective - c.objective).abs() / scale < 1e-6,
                    "step {step}: warm {} cold {}",
                    w.objective,
                    c.objective
                );
                checked += 1;
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {
                // Chain broken by infeasibility: restart cold.
                let (_, nb) = match m.solve_warm(None, &opts) {
                    Ok(v) => v,
                    Err(_) => return,
                };
                basis = nb;
            }
            (w, c) => panic!("step {step}: warm={w:?} cold={c:?}"),
        }
    }
    assert!(checked >= 10, "chain rarely solvable ({checked})");
}

#[test]
fn basis_snapshot_shape_and_count_invariants() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let nvars = rng.gen_range(2..8);
        let nrows = rng.gen_range(1..8);
        let (m, _, _) = random_lp(&mut rng, nvars, nrows);
        let Ok((_, basis)) = m.solve_warm(None, &SolverOptions::default()) else {
            continue;
        };
        assert_eq!(basis.vars.len(), m.num_vars());
        assert_eq!(basis.rows.len(), m.num_constraints());
        // A basic solution has exactly one basic column per row.
        assert_eq!(basis.num_basic(), m.num_constraints());
    }
}

#[test]
fn all_slack_snapshot_is_a_valid_warm_start() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..50 {
        let (m, _, _) = random_lp(&mut rng, 5, 5);
        let cold = m.solve();
        let warm = m.solve_warm(
            Some(&Basis::all_slack(m.num_vars(), m.num_constraints())),
            &SolverOptions::default(),
        );
        match (cold, warm) {
            (Ok(a), Ok((b, _))) => {
                let scale = 1.0 + a.objective.abs();
                assert!((a.objective - b.objective).abs() / scale < 1e-6);
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(std::mem::discriminant(&ea), std::mem::discriminant(&eb));
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn degenerate_snapshot_statuses_are_sanitized() {
    // Feed a deliberately nonsensical snapshot: everything Basic, or
    // everything Upper on variables without finite upper bounds.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_nonneg("x", 1.0);
    let y = m.add_nonneg("y", 2.0);
    m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
    let every_basic = Basis {
        vars: vec![BasisStatus::Basic; 2],
        rows: vec![BasisStatus::Basic; 1],
    };
    let (s, _) = m
        .solve_warm(Some(&every_basic), &SolverOptions::default())
        .unwrap();
    assert!((s.objective - 4.0).abs() < 1e-7);
    let every_upper = Basis {
        vars: vec![BasisStatus::Upper; 2], // ub = ∞: must be sanitized
        rows: vec![BasisStatus::Basic; 1],
    };
    let (s, _) = m
        .solve_warm(Some(&every_upper), &SolverOptions::default())
        .unwrap();
    assert!((s.objective - 4.0).abs() < 1e-7);
}

#[test]
fn degenerate_point_basis_is_repaired_in_one_factorization() {
    // Four singleton columns v_k, each alone in a capacity row
    // v_k + w_k <= 1, plus three rows w_a + w_b <= 0 that bind with every
    // w at zero. The optimum v = 1, w = 0 is a degenerate vertex: only
    // the four v's lie strictly inside their bounds, so the crashed basis
    // is short by three and gets the slacks of rows 0, 1 and 2 — each
    // parallel to the v of its row. Three dependent basic columns, all
    // repaired by one extra factorization.
    let mut m = Model::new(Sense::Maximize);
    let v: Vec<_> = (0..4)
        .map(|k| m.add_var(format!("v{k}"), 0.0, 2.0, 1.0))
        .collect();
    let w: Vec<_> = (0..4)
        .map(|k| m.add_var(format!("w{k}"), 0.0, 1.0, -1.0))
        .collect();
    for k in 0..4 {
        m.add_constraint([(v[k], 1.0), (w[k], 1.0)], Cmp::Le, 1.0);
    }
    for (a, b) in [(0, 1), (2, 3), (0, 3)] {
        m.add_constraint([(w[a], 1.0), (w[b], 1.0)], Cmp::Le, 0.0);
    }
    let cold = m.solve().unwrap();
    let basis = Basis::from_point(&m, &cold.x);
    assert_eq!(basis.num_basic(), 4, "the vertex is degenerate");

    let (warm, _) = m
        .solve_warm(Some(&basis), &SolverOptions::default())
        .unwrap();
    assert!(
        (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert_eq!(
        warm.stats.refactor_repair, 1,
        "one repair, one factorization of the repaired basis"
    );
    assert_eq!(warm.stats.distress_retries, 0);
}

#[test]
fn repair_falls_back_to_all_slack_when_the_repaired_basis_fails() {
    // Unscaled, so the pivot magnitudes below are the ones the LU sees.
    // Basis {z, u, w, y1, y2} on rows A..E (A is row 0):
    //   z = 6e-9·A + 5e-8·B    u = A + B    w = B + E
    //   y1 = A + 1e-10·C       y2 = A + 1e-10·D
    // The first factorization pivots z on B (row A holds more basis
    // entries), u on A and w on E; y1 and y2 are then left with 1e-10
    // below the pivot tolerance and are swapped for the slacks of C and
    // D. Without y1 and y2, row A holds fewer entries than B, so the
    // second factorization pivots z on A at 6e-9 < 1e-8 and rejects the
    // repaired basis too: the all-slack basis takes over.
    let mut m = Model::new(Sense::Maximize);
    let z = m.add_var("z", 0.0, 1.0, 1.0);
    let u = m.add_var("u", 0.0, 1.0, 1.0);
    let w = m.add_var("w", 0.0, 1.0, 1.0);
    let y1 = m.add_var("y1", 0.0, 1.0, 1.0);
    let y2 = m.add_var("y2", 0.0, 1.0, 1.0);
    m.add_constraint([(z, 6e-9), (u, 1.0), (y1, 1.0), (y2, 1.0)], Cmp::Le, 1.5);
    m.add_constraint([(z, 5e-8), (u, 1.0), (w, 1.0)], Cmp::Le, 1.5);
    m.add_constraint([(y1, 1e-10)], Cmp::Le, 1.0);
    m.add_constraint([(y2, 1e-10)], Cmp::Le, 1.0);
    m.add_constraint([(w, 1.0)], Cmp::Le, 1.0);
    let every_var_basic = Basis {
        vars: vec![BasisStatus::Basic; 5],
        rows: vec![BasisStatus::Lower; 5],
    };
    let opts = SolverOptions {
        scale: false,
        ..Default::default()
    };
    let (warm, _) = m.solve_warm(Some(&every_var_basic), &opts).unwrap();
    let cold = m.solve().unwrap();
    assert!(
        (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert_eq!(
        warm.stats.refactor_repair, 2,
        "the repaired basis and then the all-slack basis were factored"
    );
    assert_eq!(warm.stats.distress_retries, 0);
}

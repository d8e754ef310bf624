//! Conversion of a [`Model`] into the simplex's computational form.
//!
//! The computational form is
//!
//! ```text
//! minimize c·x   subject to   A x = b,   l ≤ x ≤ u
//! ```
//!
//! where the first `n_struct` columns are the model's variables and the
//! remaining `m` columns are one slack per row:
//!
//! * `≤` rows get a slack with bounds `[0, ∞)`;
//! * `≥` rows get a slack with bounds `(-∞, 0]`;
//! * `=` rows get a slack fixed to `[0, 0]` (keeps the all-slack crash
//!   basis square without artificial columns).
//!
//! Maximization is handled by negating the cost vector. Row/column
//! equilibration scaling (powers of two, hence exact) is folded in here;
//! [`StdForm::unscale_solution`] maps a scaled solution back.

use crate::model::{Cmp, Model, Sense};
use crate::scaling;
use crate::sparse::{CscMatrix, CsrMatrix};

/// The simplex's computational form. See module docs.
pub struct StdForm {
    /// Number of rows (equalities after slacks).
    pub m: usize,
    /// Total columns: structural + slack.
    pub n: usize,
    /// Number of structural (model) columns.
    pub n_struct: usize,
    /// Scaled constraint matrix, including slack columns.
    pub a: CscMatrix,
    /// CSR mirror of [`StdForm::a`].
    pub a_csr: CsrMatrix,
    /// Scaled right-hand side.
    pub b: Vec<f64>,
    /// Scaled minimization costs (slack costs are 0).
    pub c: Vec<f64>,
    /// Scaled lower bounds.
    pub lb: Vec<f64>,
    /// Scaled upper bounds.
    pub ub: Vec<f64>,
    /// Column scale factors (structural + slack).
    col_scale: Vec<f64>,
}

impl StdForm {
    /// Builds the computational form from `model`. `scale` toggles
    /// geometric-mean equilibration.
    pub fn build(model: &Model, scale: bool) -> StdForm {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let n = n_struct + m;
        let s = scaling_of(model, scale);
        let (a, a_csr) = assemble(model, &s);

        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };

        let mut col_scale = Vec::with_capacity(n);
        let mut c = Vec::with_capacity(n);
        let mut lb = Vec::with_capacity(n);
        let mut ub = Vec::with_capacity(n);
        for (j, v) in model.vars.iter().enumerate() {
            // x_orig = col_scale * x_scaled, so bounds divide and the cost
            // multiplies by the scale.
            let cs = s.col_scale[j];
            col_scale.push(cs);
            c.push(sign * v.obj * cs);
            lb.push(div_bound(v.lb, cs));
            ub.push(div_bound(v.ub, cs));
        }
        let mut b = Vec::with_capacity(m);
        for (ri, cons) in model.constraints.iter().enumerate() {
            let rs = s.row_scale[ri];
            b.push(cons.rhs * rs);
            let cs = 1.0 / rs;
            col_scale.push(cs);
            c.push(0.0);
            let (slo, shi) = match cons.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(div_bound(slo, cs));
            ub.push(div_bound(shi, cs));
        }

        StdForm {
            m,
            n,
            n_struct,
            a,
            a_csr,
            b,
            c,
            lb,
            ub,
            col_scale,
        }
    }

    /// Maps scaled solution values back to original structural variables.
    pub fn unscale_solution(&self, x_scaled: &[f64]) -> Vec<f64> {
        (0..self.n_struct)
            .map(|j| x_scaled[j] * self.col_scale[j])
            .collect()
    }

    /// Maps duals of the scaled minimization problem back to the
    /// original rows and sense: `∂obj/∂rhs_i`.
    ///
    /// Scaled row `i` is `r_i ×` the original row and the scaled cost is
    /// `sign ×` the original, so `y_i = sign · ŷ_i · r_i` where the row
    /// scale is recovered from the slack column's scale (`1 / r_i`).
    pub fn unscale_duals(&self, y_scaled: &[f64], sense: Sense) -> Vec<f64> {
        let sign = match sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        (0..self.m)
            .map(|i| sign * y_scaled[i] / self.col_scale[self.n_struct + i])
            .collect()
    }
}

/// Geometric-mean equilibration of the model's rows and columns, or the
/// identity when `scale` is off or the matrix is empty.
fn scaling_of(model: &Model, scale: bool) -> scaling::Scaling {
    let (m, n_struct) = (model.num_constraints(), model.num_vars());
    if !(scale && m > 0 && n_struct > 0) {
        return scaling::Scaling::identity(m, n_struct);
    }
    let mut triplets = Vec::with_capacity(model.num_nonzeros());
    for (ri, c) in model.constraints.iter().enumerate() {
        for &(v, coef) in &c.terms {
            triplets.push((ri as u32, v, coef));
        }
    }
    scaling::geometric_mean(m, n_struct, triplets.iter().copied(), 2)
}

/// The scaled constraint matrix with one slack column per row, in both
/// layouts. Columns are the structurals then the slacks; a slack's scale
/// is `1/row_scale`, so its entry stays exactly 1.0.
///
/// The CSR side is written row by row straight from the model: a row's
/// terms are sorted by column, free of duplicates and zeros (a [`Model`]
/// invariant), and its slack is the last column. Scaled entries that
/// come out exactly zero are dropped. The CSC side is filled by counting
/// per column; walking the rows in order keeps each column's rows
/// ascending.
fn assemble(model: &Model, s: &scaling::Scaling) -> (CscMatrix, CsrMatrix) {
    let m = model.num_constraints();
    let n_struct = model.num_vars();
    let n = n_struct + m;
    let cap = model.num_nonzeros() + m;
    let mut row_start = Vec::with_capacity(m + 1);
    let mut col_idx = Vec::with_capacity(cap);
    let mut row_vals = Vec::with_capacity(cap);
    let mut col_start = vec![0usize; n + 1];
    row_start.push(0);
    for (ri, cons) in model.constraints.iter().enumerate() {
        let rs = s.row_scale[ri];
        for &(v, coef) in &cons.terms {
            let val = coef * rs * s.col_scale[v as usize];
            if val != 0.0 {
                col_idx.push(v);
                row_vals.push(val);
                col_start[v as usize + 1] += 1;
            }
        }
        col_idx.push(u32::try_from(n_struct + ri).expect("column index fits u32"));
        row_vals.push(1.0);
        col_start[n_struct + ri + 1] += 1;
        row_start.push(col_idx.len());
    }
    for j in 0..n {
        col_start[j + 1] += col_start[j];
    }
    let nnz = col_idx.len();
    let mut row_idx = vec![0u32; nnz];
    let mut col_vals = vec![0.0; nnz];
    let mut cursor = col_start[..n].to_vec();
    for ri in 0..m {
        for t in row_start[ri]..row_start[ri + 1] {
            let slot = &mut cursor[col_idx[t] as usize];
            row_idx[*slot] = ri as u32;
            col_vals[*slot] = row_vals[t];
            *slot += 1;
        }
    }
    let csc = CscMatrix {
        nrows: m,
        ncols: n,
        col_start,
        row_idx,
        values: col_vals,
    };
    let csr = CsrMatrix {
        nrows: m,
        ncols: n,
        row_start,
        col_idx,
        values: row_vals,
    };
    (csc, csr)
}

/// Bound division that preserves infinities exactly.
#[inline]
fn div_bound(bound: f64, scale: f64) -> f64 {
    if bound.is_infinite() {
        bound
    } else {
        bound / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    fn sample_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0, 3.0);
        let y = m.add_var("y", 1.0, f64::INFINITY, 5.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Le, 14.0);
        m.add_constraint([(x, 3.0), (y, -1.0)], Cmp::Ge, 0.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 6.0);
        m
    }

    #[test]
    fn shapes_and_slack_bounds() {
        let sf = StdForm::build(&sample_model(), false);
        assert_eq!(sf.m, 3);
        assert_eq!(sf.n_struct, 2);
        assert_eq!(sf.n, 5);
        // Slack bounds by row type.
        assert_eq!((sf.lb[2], sf.ub[2]), (0.0, f64::INFINITY)); // Le
        assert_eq!((sf.lb[3], sf.ub[3]), (f64::NEG_INFINITY, 0.0)); // Ge
        assert_eq!((sf.lb[4], sf.ub[4]), (0.0, 0.0)); // Eq
                                                      // Maximize flips the cost sign.
        assert_eq!(sf.c[0], -3.0);
        assert_eq!(sf.c[1], -5.0);
        assert_eq!(sf.c[2], 0.0);
    }

    #[test]
    fn slack_columns_are_unit() {
        let sf = StdForm::build(&sample_model(), true);
        for r in 0..sf.m {
            let col: Vec<_> = sf.a.col(sf.n_struct + r).collect();
            assert_eq!(col, vec![(r as u32, 1.0)]);
        }
    }

    #[test]
    fn scaling_roundtrip_preserves_feasibility_mapping() {
        let model = sample_model();
        let sf = StdForm::build(&model, true);
        // The point (x=2, y=4) satisfies the Eq row; map it to scaled
        // space, check A x_s + slack = b_s is attainable, and map back.
        let x_orig = [2.0f64, 4.0];
        let x_scaled: Vec<f64> = (0..2).map(|j| x_orig[j] / sf.col_scale[j]).collect();
        // Row residuals (structural part only) must equal b - slack·scale.
        let mut resid = sf.b.clone();
        for j in 0..2 {
            for (r, v) in sf.a.col(j) {
                resid[r as usize] -= v * x_scaled[j];
            }
        }
        // Eq row residual must be ~0 since x satisfies it exactly.
        assert!(resid[2].abs() < 1e-12);
        let back = sf.unscale_solution(&x_scaled);
        assert!((back[0] - 2.0).abs() < 1e-12);
        assert!((back[1] - 4.0).abs() < 1e-12);
    }

    /// Reference assembly through the general constructors: per-column
    /// lists into `CscMatrix::from_columns` (sort, merge, drop zeros),
    /// then `to_csr`.
    fn reference_assembly(model: &Model, s: &scaling::Scaling) -> (CscMatrix, CsrMatrix) {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let mut columns: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_struct + m];
        for (ri, cons) in model.constraints.iter().enumerate() {
            for &(v, coef) in &cons.terms {
                columns[v as usize]
                    .push((ri as u32, coef * s.row_scale[ri] * s.col_scale[v as usize]));
            }
            columns[n_struct + ri].push((ri as u32, 1.0));
        }
        let a = CscMatrix::from_columns(m, &columns);
        let a_csr = a.to_csr();
        (a, a_csr)
    }

    #[test]
    fn direct_assembly_matches_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        // Magnitudes as far apart as equilibration accepts.
        let mags = [1e-150, 1e-9, 0.5, 1.0, 3.0, 1e6, 1e150];
        for trial in 0..200 {
            let sense = if rng.gen_bool(0.5) {
                Sense::Minimize
            } else {
                Sense::Maximize
            };
            let mut model = Model::new(sense);
            let nv = rng.gen_range(0..8);
            let vars: Vec<_> = (0..nv)
                .map(|j| model.add_var(format!("x{j}"), 0.0, 1.0 + j as f64, 1.0))
                .collect();
            for _ in 0..rng.gen_range(0..8) {
                // Some rows stay empty; some variables appear in no row.
                let mut terms = Vec::new();
                if nv > 0 && rng.gen_bool(0.8) {
                    for _ in 0..rng.gen_range(1..6) {
                        let v = vars[rng.gen_range(0..nv)];
                        let mag = mags[rng.gen_range(0..mags.len())];
                        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        terms.push((v, sign * mag));
                    }
                }
                let cmp = match rng.gen_range(0..3) {
                    0 => Cmp::Le,
                    1 => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                let c = model.add_constraint(terms, cmp, rng.gen_range(-5.0..5.0));
                if nv > 0 && rng.gen_bool(0.3) {
                    model.add_term(c, vars[rng.gen_range(0..nv)], 2.0);
                }
            }
            for scale in [false, true] {
                let sf = StdForm::build(&model, scale);
                let (a, a_csr) = reference_assembly(&model, &scaling_of(&model, scale));
                let ctx = format!("trial {trial} scale {scale}");
                assert_eq!((sf.a.nrows, sf.a.ncols), (a.nrows, a.ncols), "{ctx}");
                assert_eq!(sf.a.col_start, a.col_start, "{ctx}");
                assert_eq!(sf.a.row_idx, a.row_idx, "{ctx}");
                assert_eq!(bits(&sf.a.values), bits(&a.values), "{ctx}");
                assert_eq!(
                    (sf.a_csr.nrows, sf.a_csr.ncols),
                    (a_csr.nrows, a_csr.ncols),
                    "{ctx}"
                );
                assert_eq!(sf.a_csr.row_start, a_csr.row_start, "{ctx}");
                assert_eq!(sf.a_csr.col_idx, a_csr.col_idx, "{ctx}");
                assert_eq!(bits(&sf.a_csr.values), bits(&a_csr.values), "{ctx}");
            }
        }
    }

    /// Bit patterns, so the comparison is exact (and NaN-proof).
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn csr_mirror_matches() {
        let sf = StdForm::build(&sample_model(), false);
        assert_eq!(sf.a.nnz(), sf.a_csr.nnz());
        // Row 0 of A: x + 2y + slack0.
        let row0: Vec<_> = sf.a_csr.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0), (2, 1.0)]);
    }
}

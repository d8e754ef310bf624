//! Solve results.

use crate::model::VarId;

/// Termination status of a successful solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
}

/// An optimal solution to a [`Model`](crate::Model).
#[derive(Clone, Debug)]
pub struct Solution {
    /// Termination status.
    pub status: Status,
    /// Objective value in the model's original sense.
    pub objective: f64,
    /// Primal values, indexed by [`VarId::index`].
    pub x: Vec<f64>,
    /// Row duals (shadow prices), indexed by
    /// [`ConstraintId::index`](crate::ConstraintId::index), in the
    /// model's original sense and units: `duals[i] ≈ ∂objective/∂rhs_i`
    /// at the optimal basis. `None` when the solve path cannot map duals
    /// back to the original rows (currently: solves that ran presolve —
    /// use [`Model::solve_warm`](crate::Model::solve_warm) or disable
    /// presolve to obtain them).
    pub duals: Option<Vec<f64>>,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
    /// Basis refactorizations performed (including the initial
    /// factorization). Together with `iterations` this is the cost
    /// model of a solve: warm re-solves should show both collapsing
    /// relative to a cold start on the same model.
    pub refactorizations: usize,
    /// Engine-level cost counters (zeroed for the dense engine and
    /// other paths that bypass the sparse LU core).
    pub stats: SolveStats,
}

/// Low-level cost counters of the sparse LP engine, accumulated across
/// every FTRAN/BTRAN of a solve. `*_nnz` totals count result nonzeros —
/// the work a hyper-sparse solve actually performs — so
/// `ftran_nnz / ftran_solves` near the row count means the solves ran
/// dense, while small quotients confirm hyper-sparsity is paying off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// FTRAN (forward) solves performed.
    pub ftran_solves: usize,
    /// Total result nonzeros across all FTRANs.
    pub ftran_nnz: usize,
    /// BTRAN (transpose) solves performed.
    pub btran_solves: usize,
    /// Total result nonzeros across all BTRANs.
    pub btran_nnz: usize,
    /// Workspace high-water estimate in bytes (LU factors, row etas,
    /// and solver scratch, measured from vector capacities).
    pub peak_alloc_bytes: usize,
    /// Forrest–Tomlin basis updates absorbed without refactorizing.
    pub ft_updates: usize,
    /// Total spike-column nonzeros across all FT updates.
    pub spike_nnz: usize,
    /// Total update-file nonzeros appended between refactorizations:
    /// FT spike + row-eta multiplier entries (the fill ledger).
    pub update_nnz: usize,
    /// Refactorizations triggered by the fixed update-count cadence.
    pub refactor_interval: usize,
    /// Refactorizations triggered early by update-file fill outgrowing
    /// the LU factors.
    pub refactor_fill: usize,
    /// Refactorizations forced by the FT stability monitor declining a
    /// spike.
    pub refactor_unstable: usize,
    /// Factorizations of a repaired basis: one per singular basis whose
    /// dependent columns were swapped for slacks, plus one more each
    /// time that repair fell back to the all-slack basis.
    pub refactor_repair: usize,
    /// Numerical-distress rescues that re-ran the solve with
    /// conservative options (looser pivot tolerance, a refactorization
    /// after every pivot) after the first attempt produced a non-finite
    /// point or an unstable factorization.
    pub distress_retries: usize,
    /// Rescues that fell all the way through to the dense tableau
    /// oracle after the conservative sparse retry also failed.
    pub dense_fallbacks: usize,
}

impl SolveStats {
    /// Accumulates another solve's counters into this one (solve/nnz
    /// totals add; the peak-workspace estimate takes the max). Used by
    /// harnesses that aggregate effort across a sequence of re-solves.
    pub fn merge(&mut self, other: &SolveStats) {
        self.ftran_solves += other.ftran_solves;
        self.ftran_nnz += other.ftran_nnz;
        self.btran_solves += other.btran_solves;
        self.btran_nnz += other.btran_nnz;
        self.peak_alloc_bytes = self.peak_alloc_bytes.max(other.peak_alloc_bytes);
        self.ft_updates += other.ft_updates;
        self.spike_nnz += other.spike_nnz;
        self.update_nnz += other.update_nnz;
        self.refactor_interval += other.refactor_interval;
        self.refactor_fill += other.refactor_fill;
        self.refactor_unstable += other.refactor_unstable;
        self.refactor_repair += other.refactor_repair;
        self.distress_retries += other.distress_retries;
        self.dense_fallbacks += other.dense_fallbacks;
    }
}

impl Solution {
    /// Value of variable `v`.
    #[inline]
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.index()]
    }

    /// Shadow price of constraint `c`, if duals are available.
    #[inline]
    pub fn dual(&self, c: crate::ConstraintId) -> Option<f64> {
        self.duals.as_ref().map(|d| d[c.index()])
    }
}

//! Sparse LU factorization of the simplex basis (Gilbert–Peierls) with
//! Forrest–Tomlin updates and hyper-sparse solves.
//!
//! The basis matrix `B` consists of `m` columns of the constraint matrix.
//! We factorize `P·B·Q = L·U` where `Q` orders columns by increasing
//! nonzero count (a stable counting sort, ties by basis position) and
//! `P` permutes rows by a Markowitz-style threshold rule: among rows
//! whose pivot candidate is within a fixed factor of the largest
//! magnitude, take the one with the fewest nonzeros across the basis
//! columns (stability first, fill second). Singleton columns come
//! first in that order, and one whose row is still unpivoted — every
//! slack of an all-slack-heavy basis — is pivoted on its entry
//! directly, without the symbolic reach or the elimination (which would
//! find that entry alone); below the pivot tolerance it is reported
//! deficient, as the threshold rule would.
//!
//! `L` is static between refactorizations (CSC by step, plus its
//! transposed adjacency). `U` has one representation: the elimination
//! writes it straight into a dynamic column/row form, which the
//! **Forrest–Tomlin** update then edits in place after each simplex
//! pivot. Replacing the column pivoted at step `t` records its *spike*
//! `s = U·d` as the new column, then eliminates row `t` against the
//! trailing rows — a sparse triangular solve yields the multipliers,
//! stored as one row eta — and cyclically permutes `t` to the end of
//! the elimination order so `U` stays triangular. The order is a doubly
//! linked list of steps, so that move costs O(1) and the dense solves
//! walk the list from either end. A stability monitor compares the
//! recomputed diagonal against its product-form prediction `d_pos·u_tt`
//! and declines the update (the caller refactorizes) on disagreement.
//!
//! The row etas are discarded at the next refactorization. Their fill
//! (multipliers plus net `U` growth) is kept as running totals, so the
//! refactorization monitor reads it in O(1).
//!
//! Solves are **hyper-sparse**: right-hand sides, intermediates, and
//! results live in indexed [`WorkVec`]s. A depth-first symbolic reach
//! over the triangular factors (`L` through its forward and transposed
//! adjacency, `U` through its column and row lists) enumerates exactly
//! the entries a solve can touch, so the cost of an FTRAN/BTRAN is
//! proportional to the size of its *result*, not to `m`. Dense
//! right-hand sides short-circuit to plain dense triangular solves (the
//! reach would visit everything anyway).

use crate::sparse::{CscMatrix, WorkVec};

/// Index marker for "not yet pivoted".
const UNSET: u32 = u32::MAX;

/// Relative threshold for Markowitz-style pivoting: candidates within
/// this factor of the column's largest magnitude compete on row count.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Right-hand sides denser than `m / DENSE_CUTOFF` skip the symbolic
/// reach and solve densely.
const DENSE_CUTOFF: usize = 8;

/// A Forrest–Tomlin update is declined (forcing refactorization) when
/// the eliminated diagonal disagrees with its product-form prediction
/// `|d_pos · u_tt|` by more than this relative gap — the Forrest–Tomlin
/// cancellation test.
const FT_STAB_REL: f64 = 1e-6;

/// ... or is absolutely smaller than this times the spike magnitude.
const FT_STAB_ABS: f64 = 1e-10;

/// Why a refactorization was triggered (ledger for `SolveStats`).
#[derive(Clone, Copy, Debug)]
pub enum RefactorCause {
    /// The periodic update-count interval elapsed.
    Interval,
    /// The update file outgrew the factors (fill monitor).
    Fill,
    /// A Forrest–Tomlin update failed its stability test.
    Unstable,
    /// A singular basis was repaired (slack substitution, or the
    /// all-slack last resort) and factored again.
    Repair,
}

/// A singular basis: the columns that found no acceptable pivot, and
/// the rows the elimination left unpivoted (one per deficient column).
#[derive(Clone, Debug)]
pub struct Singular {
    /// Basis positions of the linearly dependent columns.
    pub positions: Vec<u32>,
    /// Original rows without a pivot, ascending.
    pub rows: Vec<u32>,
}

/// Running operation counters (monotone across refactorizations).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    /// Sparse/dense FTRAN solves performed.
    pub ftran_solves: usize,
    /// Total result nonzeros across all FTRANs.
    pub ftran_nnz: usize,
    /// Sparse/dense BTRAN solves performed.
    pub btran_solves: usize,
    /// Total result nonzeros across all BTRANs.
    pub btran_nnz: usize,
    /// Forrest–Tomlin updates applied.
    pub ft_updates: usize,
    /// Total spike nonzeros (diagonal included) across FT updates.
    pub spike_nnz: usize,
    /// Total nonzeros pushed into the update file: FT spikes plus
    /// row-eta multipliers — the basis-update fill ledger.
    pub update_nnz: usize,
    /// Refactorizations triggered by the update-count interval.
    pub refactor_interval: usize,
    /// Refactorizations triggered by the fill monitor.
    pub refactor_fill: usize,
    /// Refactorizations triggered by a declined (unstable) FT update.
    pub refactor_unstable: usize,
    /// Factorizations of a repaired (formerly singular) basis.
    pub refactor_repair: usize,
}

/// One Forrest–Tomlin row eta: after the column pivoted at step `t` was
/// replaced by its spike, row `t` of `U` was eliminated against the
/// trailing rows with these multipliers (step, value).
struct RowEta {
    t: u32,
    m: Vec<(u32, f64)>,
}

/// `U` in the dynamic form the Forrest–Tomlin update edits, plus its
/// row etas. Column and row adjacency both carry values and are kept
/// exactly in sync (no stale entries), so solves never search.
#[derive(Default)]
struct Ft {
    /// Column entries `(row step, value)`, diagonal apart.
    ucols: Vec<Vec<(u32, f64)>>,
    /// Row entries `(column step, value)` — the transpose of `ucols`.
    urows: Vec<Vec<(u32, f64)>>,
    /// Diagonal per column step.
    udiag: Vec<f64>,
    /// The triangular elimination order of the current `U` as a doubly
    /// linked list of steps (ascending at refactorization; each update
    /// moves its step to the tail): successor per step, [`UNSET`] at
    /// the tail.
    next: Vec<u32>,
    /// Predecessor per step, [`UNSET`] at the head.
    prev: Vec<u32>,
    /// First step of the order.
    head: u32,
    /// Last step of the order.
    tail: u32,
    /// Row etas, chronological.
    row_etas: Vec<RowEta>,
    /// Nonzeros across `row_etas`, each counting its multipliers plus
    /// one (kept as a running total for the fill monitor).
    row_eta_nnz: usize,
    /// Updates applied since the last refactorization.
    updates: usize,
    /// `U` nonzeros (off-diagonal) at the last refactorization.
    base_nnz: usize,
    /// Current `U` nonzeros (off-diagonal), maintained incrementally.
    live_nnz: usize,
}

impl Ft {
    /// Empties `U` and the row etas for a refactorization of an
    /// `m`-row basis, and resets the order to ascending steps: step `s`
    /// links to `s + 1`, and `UNSET` (`u32::MAX`) ends the list at both
    /// sides. Keeps every list's capacity.
    fn reset(&mut self, m: usize) {
        self.ucols.resize_with(m, Vec::new);
        self.urows.resize_with(m, Vec::new);
        self.ucols.iter_mut().for_each(Vec::clear);
        self.urows.iter_mut().for_each(Vec::clear);
        self.udiag.clear();
        self.next.clear();
        self.next.extend((0..m as u32).map(|s| s + 1));
        if let Some(last) = self.next.last_mut() {
            *last = UNSET;
        }
        self.prev.clear();
        self.prev.extend((0..m as u32).map(|s| s.wrapping_sub(1)));
        self.head = if m == 0 { UNSET } else { 0 };
        self.tail = (m as u32).wrapping_sub(1);
        self.row_etas.clear();
        self.row_eta_nnz = 0;
        self.updates = 0;
        self.live_nnz = 0;
    }

    /// Unlinks step `t` from the elimination order and appends it at the
    /// tail, in O(1).
    fn move_to_tail(&mut self, t: u32) {
        if t == self.tail {
            return;
        }
        let (p, n) = (self.prev[t as usize], self.next[t as usize]);
        if p == UNSET {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        self.prev[n as usize] = p;
        self.prev[t as usize] = self.tail;
        self.next[self.tail as usize] = t;
        self.next[t as usize] = UNSET;
        self.tail = t;
    }
}

/// LU factors plus the Forrest–Tomlin update state. Sparse solves work
/// on [`WorkVec`]s; the dense entry points remain for inherently dense
/// right-hand sides (basic-value and reduced-cost recomputation).
pub struct Factorization {
    m: usize,
    /// orig row -> elimination step.
    rpos: Vec<u32>,
    /// step -> orig row.
    rinv: Vec<u32>,
    /// step -> basis position.
    cinv: Vec<u32>,
    /// basis position -> step.
    cpos: Vec<u32>,
    // L columns (per step): original-row indices and values; implicit unit
    // diagonal. Entries' rows are pivoted at later steps.
    l_start: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// `l_rows` mapped through `rpos` once factorization completes:
    /// the step each L entry updates during a forward solve.
    l_steps: Vec<u32>,
    // Transposed L adjacency (indices only) for BTRAN symbolic reach:
    // step s -> steps k whose column holds an entry at s.
    lt_start: Vec<usize>,
    lt_cols: Vec<u32>,
    /// `U` (columns, rows, diagonal) and the row etas.
    ft: Ft,
    counts: OpCounts,
    // Scratch buffers reused across factorizations and solves.
    work: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Nonzeros per row across the basis columns (Markowitz row counts).
    row_count: Vec<u32>,
    dfs_stack: Vec<(u32, usize)>,
    reach_out: Vec<u32>,
    perm_scratch: Vec<(u32, f64)>,
    dense_out: Vec<f64>,
    /// Scratch for the FT multiplier solve (step space).
    ft_rhs: WorkVec,
    /// Scratch pattern for the FT spike.
    ft_pat: Vec<u32>,
}

impl Factorization {
    /// Creates an empty factorization sized for `m` rows.
    pub fn new(m: usize) -> Self {
        Factorization {
            m,
            rpos: vec![UNSET; m],
            rinv: vec![0; m],
            cinv: vec![0; m],
            cpos: vec![0; m],
            l_start: vec![0],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            l_steps: Vec::new(),
            lt_start: Vec::new(),
            lt_cols: Vec::new(),
            ft: Ft::default(),
            counts: OpCounts::default(),
            work: vec![0.0; m],
            stamp: vec![0; m],
            epoch: 0,
            row_count: vec![0; m],
            dfs_stack: Vec::new(),
            reach_out: Vec::new(),
            perm_scratch: Vec::new(),
            dense_out: Vec::new(),
            ft_rhs: WorkVec::with_dim(m),
            ft_pat: Vec::new(),
        }
    }

    /// Basis updates absorbed since the last refactorization (drives
    /// the periodic refactorization interval).
    #[inline]
    pub fn update_count(&self) -> usize {
        self.ft.updates
    }

    /// Fill added by the update file since the last refactorization:
    /// row-eta multipliers plus net `U` growth.
    pub fn update_fill(&self) -> usize {
        self.ft.row_eta_nnz + self.ft.live_nnz.saturating_sub(self.ft.base_nnz)
    }

    /// Ledger hook: records what triggered a refactorization.
    pub fn count_refactor(&mut self, cause: RefactorCause) {
        match cause {
            RefactorCause::Interval => self.counts.refactor_interval += 1,
            RefactorCause::Fill => self.counts.refactor_fill += 1,
            RefactorCause::Unstable => self.counts.refactor_unstable += 1,
            RefactorCause::Repair => self.counts.refactor_repair += 1,
        }
    }

    /// Total nonzeros in L and U at the last refactorization, the
    /// diagonal included (fill indicator; updates do not move it).
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.ft.base_nnz + self.ft.udiag.len()
    }

    /// Monotone FTRAN/BTRAN operation counters.
    #[inline]
    pub fn op_counts(&self) -> OpCounts {
        self.counts
    }

    /// Heap bytes currently held by factors, row etas, and scratch
    /// (allocation accounting for the solver's workspace ledger).
    pub fn heap_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<u32>();
        let us = std::mem::size_of::<usize>();
        self.l_vals.capacity() * f
            + (self.l_rows.capacity()
                + self.l_steps.capacity()
                + self.lt_cols.capacity()
                + self.rpos.capacity()
                + self.rinv.capacity()
                + self.cinv.capacity()
                + self.cpos.capacity()
                + self.stamp.capacity()
                + self.row_count.capacity()
                + self.reach_out.capacity())
                * u
            + (self.l_start.capacity() + self.lt_start.capacity()) * us
            + (self.work.capacity() + self.dense_out.capacity()) * f
            + self.ft_heap_bytes()
    }

    /// Heap bytes of `U` and the row etas.
    fn ft_heap_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(u32, f64)>();
        let u = std::mem::size_of::<u32>();
        let f = std::mem::size_of::<f64>();
        let cols: usize = self.ft.ucols.iter().map(Vec::capacity).sum();
        let rows: usize = self.ft.urows.iter().map(Vec::capacity).sum();
        let etas: usize = self.ft.row_etas.iter().map(|e| e.m.capacity()).sum();
        (cols + rows + etas) * pair
            + (self.ft.next.capacity() + self.ft.prev.capacity() + self.ft_pat.capacity()) * u
            + self.ft.udiag.capacity() * f
    }

    /// Refactorizes from scratch: `basis[pos]` is the column index of `a`
    /// occupying basis position `pos`.
    ///
    /// # Errors
    ///
    /// [`Singular`] when columns turn out linearly dependent (pivot
    /// below `pivot_tol`). The elimination does not stop at the first
    /// one: it skips every deficient column, so the error names all of
    /// them together with the rows left unpivoted, and substituting those
    /// rows' slacks yields a nonsingular basis in one pass.
    pub fn refactor(
        &mut self,
        a: &CscMatrix,
        basis: &[usize],
        pivot_tol: f64,
    ) -> Result<(), Singular> {
        let m = self.m;
        assert_eq!(basis.len(), m, "basis size must equal row count");
        self.rpos.iter_mut().for_each(|r| *r = UNSET);
        self.l_start.clear();
        self.l_start.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.ft.reset(m);

        // Markowitz row counts: nonzeros per row across the basis.
        self.row_count.iter_mut().for_each(|c| *c = 0);
        for &col in basis {
            for (row, _) in a.col(col) {
                self.row_count[row as usize] += 1;
            }
        }

        // Static column order: increasing nonzero count, ties by basis
        // position (a stable counting sort).
        let order = order_by_nnz(a, basis);

        // Gilbert–Peierls per column. `k` counts pivoted columns only:
        // deficient ones are skipped and reported together at the end.
        let mut pattern: Vec<u32> = Vec::with_capacity(64);
        let mut dfs_stack = std::mem::take(&mut self.dfs_stack);
        let mut deficient: Vec<u32> = Vec::new();
        let mut k = 0usize;
        for &p in &order {
            let col = basis[p as usize];
            // Singleton on an unpivoted row (slacks, mostly): its reach is
            // the row alone and nothing eliminates into it, so the entry
            // is the pivot — or the column is deficient, as the threshold
            // rule below would find.
            if a.col_nnz(col) == 1 {
                let (row, val) = a.col(col).next().expect("one entry");
                if self.rpos[row as usize] == UNSET {
                    if val.abs() >= pivot_tol {
                        self.close_step(k, row, val, p);
                        k += 1;
                    } else {
                        deficient.push(p);
                    }
                    continue;
                }
            }
            self.epoch += 1;
            let epoch = self.epoch;
            pattern.clear();

            // Symbolic: reach of the column's pattern through pivoted rows,
            // collected in DFS postorder. A pivoted row `i` (eliminated at
            // step `rpos[i]`) propagates to the rows of L's column
            // `rpos[i]`; unpivoted rows are leaves.
            let (rpos, l_start, l_rows) = (&self.rpos, &self.l_start, &self.l_rows);
            dfs_postorder(
                a.col(col).map(|(row, _)| row),
                epoch,
                &mut self.stamp,
                &mut dfs_stack,
                &mut pattern,
                |node, c| {
                    let step = rpos[node as usize];
                    if step == UNSET {
                        return None; // leaf
                    }
                    let i = l_start[step as usize] + c;
                    (i < l_start[step as usize + 1]).then(|| l_rows[i])
                },
            );

            // Numeric: scatter, then eliminate in topological order
            // (reverse postorder).
            for (row, val) in a.col(col) {
                self.work[row as usize] += val;
            }
            for idx in (0..pattern.len()).rev() {
                let node = pattern[idx];
                let step = self.rpos[node as usize];
                if step == UNSET {
                    continue;
                }
                let x = self.work[node as usize];
                if x != 0.0 {
                    let lo = self.l_start[step as usize];
                    let hi = self.l_start[step as usize + 1];
                    for t in lo..hi {
                        let r = self.l_rows[t] as usize;
                        self.work[r] -= self.l_vals[t] * x;
                    }
                }
            }

            // Pivot: Markowitz-style threshold rule over unpivoted
            // pattern rows — stability gate on magnitude, fewest row
            // nonzeros among those admitted, magnitude as tie-break.
            let mut vmax = 0.0f64;
            for &node in &pattern {
                if self.rpos[node as usize] == UNSET {
                    vmax = vmax.max(self.work[node as usize].abs());
                }
            }
            let mut piv_row = UNSET;
            let mut piv_val = 0.0f64;
            let mut piv_count = u32::MAX;
            if vmax >= pivot_tol {
                let gate = vmax * PIVOT_THRESHOLD;
                for &node in &pattern {
                    if self.rpos[node as usize] != UNSET {
                        continue;
                    }
                    let v = self.work[node as usize].abs();
                    if v < gate {
                        continue;
                    }
                    let cnt = self.row_count[node as usize];
                    if cnt < piv_count || (cnt == piv_count && v > piv_val) {
                        piv_count = cnt;
                        piv_val = v;
                        piv_row = node;
                    }
                }
            }
            if piv_row == UNSET || piv_val < pivot_tol {
                // Dependent column: clear work, leave its rows unpivoted.
                for &node in &pattern {
                    self.work[node as usize] = 0.0;
                }
                deficient.push(p);
                continue;
            }
            let diag = self.work[piv_row as usize];

            // Emit U column k (pivoted rows, into both adjacency sides)
            // and L column k (unpivoted).
            for &node in &pattern {
                let v = self.work[node as usize];
                self.work[node as usize] = 0.0;
                if v == 0.0 || node == piv_row {
                    continue;
                }
                let step = self.rpos[node as usize];
                if step != UNSET {
                    self.ft.ucols[k].push((step, v));
                    self.ft.urows[step as usize].push((k as u32, v));
                    self.ft.live_nnz += 1;
                } else {
                    self.l_rows.push(node);
                    self.l_vals.push(v / diag);
                }
            }
            self.close_step(k, piv_row, diag, p);
            k += 1;
        }
        self.dfs_stack = dfs_stack;
        self.ft.base_nnz = self.ft.live_nnz;
        if !deficient.is_empty() {
            let rows = (0..m as u32)
                .filter(|&r| self.rpos[r as usize] == UNSET)
                .collect();
            return Err(Singular {
                positions: deficient,
                rows,
            });
        }
        for k in 0..m {
            self.cpos[self.cinv[k] as usize] = k as u32;
        }
        // Resolve L entry rows to their elimination steps and build the
        // transposed adjacency L needs for BTRAN reach.
        self.l_steps.clear();
        self.l_steps
            .extend(self.l_rows.iter().map(|&r| self.rpos[r as usize]));
        build_transpose(
            m,
            &self.l_start,
            &self.l_steps,
            &mut self.lt_start,
            &mut self.lt_cols,
        );
        Ok(())
    }

    /// Ends elimination step `k`: basis position `p` pivoted on `row`
    /// with diagonal `diag`; the entries pushed since the previous step
    /// form L's column `k` (U's went straight into `ucols[k]`).
    fn close_step(&mut self, k: usize, row: u32, diag: f64, p: u32) {
        self.ft.udiag.push(diag);
        self.l_start.push(self.l_rows.len());
        self.rpos[row as usize] = k as u32;
        self.rinv[k] = row;
        self.cinv[k] = p;
    }

    /// Sparse FTRAN: solves `B x = v` in place. Input `v` is in
    /// original-row space; the result is in basis-position space with
    /// its nonzero pattern maintained.
    pub fn ftran(&mut self, v: &mut WorkVec) {
        debug_assert_eq!(v.dim(), self.m);
        self.counts.ftran_solves += 1;
        if v.nnz() * DENSE_CUTOFF >= self.m {
            self.ftran_dense_branch(v);
            self.counts.ftran_nnz += v.nnz();
            return;
        }
        // Row space -> step space.
        self.permute(v, PermMap::RowToStep);
        debug_check_pattern(v, "after perm row->step");
        // L forward over its symbolic reach, the row etas chronologically
        // (gather form), then U backward over its reach.
        self.solve_lower(v);
        debug_check_pattern(v, "after L");
        self.apply_row_etas(v);
        debug_check_pattern(v, "after row etas");
        self.solve_upper(v);
        debug_check_pattern(v, "after U");
        // Step space -> position space.
        self.permute(v, PermMap::StepToPos);
        debug_check_pattern(v, "after perm step->pos");
        self.counts.ftran_nnz += v.nnz();
    }

    /// Sparse FTRAN of constraint-matrix column `col`: seeds the work
    /// vector from the column and solves in place.
    pub fn ftran_col(&mut self, a: &CscMatrix, col: usize, v: &mut WorkVec) {
        v.clear_to_dim(self.m);
        for (row, val) in a.col(col) {
            v.vals[row as usize] = val;
            v.pattern.push(row);
        }
        self.ftran(v);
    }

    /// Sparse BTRAN: solves `Bᵀ y = v` in place. Input `v` is in
    /// basis-position space; the result is in original-row space with
    /// its nonzero pattern maintained.
    pub fn btran_sparse(&mut self, v: &mut WorkVec) {
        debug_assert_eq!(v.dim(), self.m);
        self.counts.btran_solves += 1;
        if v.nnz() * DENSE_CUTOFF >= self.m {
            self.btran_dense_branch(v);
            self.counts.btran_nnz += v.nnz();
            return;
        }
        // Position space -> step space, Uᵀ forward, row-eta transposes
        // newest first, Lᵀ backward, step space -> original-row space.
        self.permute(v, PermMap::PosToStep);
        debug_check_pattern(v, "btran after perm pos->step");
        self.solve_upper_t(v);
        debug_check_pattern(v, "btran after Ut");
        self.apply_row_etas_t(v);
        debug_check_pattern(v, "btran after row etas");
        self.solve_lower_t(v);
        debug_check_pattern(v, "btran after Lt");
        self.permute(v, PermMap::StepToRow);
        debug_check_pattern(v, "btran after perm step->row");
        self.counts.btran_nnz += v.nnz();
    }

    /// Sparse BTRAN of the `r`-th unit vector (basis-position space):
    /// the pivot-row solve `rho = B⁻ᵀ e_r`.
    pub fn btran_unit(&mut self, r: usize, v: &mut WorkVec) {
        v.clear_to_dim(self.m);
        v.vals[r] = 1.0;
        v.pattern.push(r as u32);
        self.btran_sparse(v);
    }

    /// FTRAN with a dense right-hand side: solves `B x = rhs` where `rhs`
    /// is dense in original-row space. Output `x` is dense in
    /// basis-position space.
    pub fn ftran_dense(&mut self, rhs: &[f64], x: &mut Vec<f64>) {
        debug_assert_eq!(rhs.len(), self.m);
        self.counts.ftran_solves += 1;
        self.counts.ftran_nnz += self.m;
        x.clear();
        x.resize(self.m, 0.0);
        for k in 0..self.m {
            x[k] = rhs[self.rinv[k] as usize];
        }
        self.dense_lower(x);
        for re in &self.ft.row_etas {
            let mut acc = x[re.t as usize];
            for &(j, mj) in &re.m {
                acc -= mj * x[j as usize];
            }
            x[re.t as usize] = acc;
        }
        // U backward, from the tail of the order.
        let mut step = self.ft.tail;
        while step != UNSET {
            let k = step as usize;
            let xv = x[k] / self.ft.udiag[k];
            x[k] = xv;
            if xv != 0.0 {
                for &(j, u) in &self.ft.ucols[k] {
                    x[j as usize] -= u * xv;
                }
            }
            step = self.ft.prev[k];
        }
        self.steps_to_positions(x);
    }

    /// BTRAN: solves `Bᵀ y = c` where `c` is dense in basis-position
    /// space. Output `y` is dense in *original row* space.
    pub fn btran(&mut self, c: &[f64], y: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.m);
        self.counts.btran_solves += 1;
        self.counts.btran_nnz += self.m;
        y.clear();
        y.extend_from_slice(c);
        self.positions_to_steps(y);
        // Uᵀ forward, from the head of the order (scatter form).
        let mut step = self.ft.head;
        while step != UNSET {
            let k = step as usize;
            let yv = y[k] / self.ft.udiag[k];
            y[k] = yv;
            if yv != 0.0 {
                for &(cstep, u) in &self.ft.urows[k] {
                    y[cstep as usize] -= u * yv;
                }
            }
            step = self.ft.next[k];
        }
        // Row-eta transposes, newest first.
        for re in self.ft.row_etas.iter().rev() {
            let t = y[re.t as usize];
            if t != 0.0 {
                for &(j, mj) in &re.m {
                    y[j as usize] -= mj * t;
                }
            }
        }
        self.dense_lower_t(y);
        // Step -> original-row space: out[rinv[k]] = y[k].
        let m = self.m;
        self.work[..m].copy_from_slice(&y[..m]);
        for k in 0..m {
            y[self.rinv[k] as usize] = self.work[k];
        }
        for k in 0..m {
            self.work[k] = 0.0;
        }
    }

    /// Absorbs the pivot `basis[pos] := entering` by a Forrest–Tomlin
    /// update; `d` is the entering column's FTRAN image (position space,
    /// sparse) with `d[pos]` the pivot element, which the caller
    /// guarantees exceeds the pivot tolerance. Records the spike
    /// `s = U·d` as the new column at step `t` (the step pivoting basis
    /// position `pos`), eliminates row `t` against the trailing rows (one
    /// row eta), and rotates `t` to the last ordinal.
    ///
    /// Returns `false` when the stability monitor declined the update:
    /// the factorization then still represents the *old* basis and the
    /// caller must refactorize before the next solve.
    #[must_use]
    pub fn push_update(&mut self, pos: usize, d: &WorkVec, keep_tol: f64) -> bool {
        let m = self.m;
        let t = self.cpos[pos] as usize;
        let dp = d.vals[pos];
        debug_assert!(dp != 0.0);

        // Spike s = U·d in step space, scattered into `work` with its
        // pattern in `ft_pat` (d arrives in position space).
        self.epoch += 1;
        let epoch = self.epoch;
        let mut s_pat = std::mem::take(&mut self.ft_pat);
        s_pat.clear();
        for &p in &d.pattern {
            let xk = d.vals[p as usize];
            if xk == 0.0 {
                continue;
            }
            let k = self.cpos[p as usize] as usize;
            self.work[k] += self.ft.udiag[k] * xk;
            if self.stamp[k] != epoch {
                self.stamp[k] = epoch;
                s_pat.push(k as u32);
            }
            for &(j, u) in &self.ft.ucols[k] {
                self.work[j as usize] += u * xk;
                if self.stamp[j as usize] != epoch {
                    self.stamp[j as usize] = epoch;
                    s_pat.push(j);
                }
            }
        }
        let s_t = self.work[t];
        let mut s_inf = 0.0f64;
        for &j in &s_pat {
            s_inf = s_inf.max(self.work[j as usize].abs());
        }

        // Multipliers: row t of U against the trailing submatrix,
        // mᵀ·U_TT = u_{t,·}, i.e. one sparse transposed-U solve seeded
        // by the row's current entries.
        let mut mvec = std::mem::take(&mut self.ft_rhs);
        mvec.clear_to_dim(m);
        for &(c, val) in &self.ft.urows[t] {
            mvec.vals[c as usize] = val;
            mvec.pattern.push(c);
        }
        self.solve_upper_t(&mut mvec);

        // New diagonal after eliminating row t of the spike column, and
        // the Forrest–Tomlin stability test: the same value is predicted
        // by the product form as d[pos]·u_tt; cancellation shows up as
        // disagreement and declines the update.
        let mut new_diag = s_t;
        for &c in &mvec.pattern {
            new_diag -= mvec.vals[c as usize] * self.work[c as usize];
        }
        let predicted = (dp * self.ft.udiag[t]).abs();
        let gap = (new_diag.abs() - predicted).abs();
        if new_diag.abs() <= FT_STAB_ABS * (1.0 + s_inf)
            || gap > FT_STAB_REL * predicted.max(new_diag.abs()).max(1.0)
        {
            for &j in &s_pat {
                self.work[j as usize] = 0.0;
            }
            self.ft_pat = s_pat;
            self.ft_rhs = mvec;
            self.count_refactor(RefactorCause::Unstable);
            return false;
        }

        // Commit. Remove row t from its columns (both adjacency sides)…
        let row_t = std::mem::take(&mut self.ft.urows[t]);
        for &(c, _) in &row_t {
            let col = &mut self.ft.ucols[c as usize];
            if let Some(i) = col.iter().position(|e| e.0 == t as u32) {
                col.swap_remove(i);
                self.ft.live_nnz -= 1;
            }
        }
        drop(row_t);
        // …drop the replaced column…
        let mut col = std::mem::take(&mut self.ft.ucols[t]);
        for &(j, _) in &col {
            let rw = &mut self.ft.urows[j as usize];
            if let Some(i) = rw.iter().position(|e| e.0 == t as u32) {
                rw.swap_remove(i);
                self.ft.live_nnz -= 1;
            }
        }
        col.clear();
        // …and insert the spike (row t lives on the diagonal).
        for &j in &s_pat {
            let v = self.work[j as usize];
            self.work[j as usize] = 0.0;
            if j as usize != t && v.abs() > keep_tol {
                col.push((j, v));
                self.ft.urows[j as usize].push((t as u32, v));
                self.ft.live_nnz += 1;
            }
        }
        let spike_len = col.len() + 1;
        self.ft.ucols[t] = col;
        self.ft.udiag[t] = new_diag;
        let mut multipliers = Vec::with_capacity(mvec.nnz());
        for &c in &mvec.pattern {
            let v = mvec.vals[c as usize];
            if v.abs() > keep_tol {
                multipliers.push((c, v));
            }
        }
        self.counts.ft_updates += 1;
        self.counts.spike_nnz += spike_len;
        self.counts.update_nnz += spike_len + multipliers.len();
        if !multipliers.is_empty() {
            self.ft.row_eta_nnz += multipliers.len() + 1;
            self.ft.row_etas.push(RowEta {
                t: t as u32,
                m: multipliers,
            });
        }
        // Move t to the tail of the order (a cyclic permutation: the
        // trailing rows keep their relative order, so U stays
        // triangular).
        self.ft.move_to_tail(t as u32);
        self.ft.updates += 1;
        mvec.clear_to_dim(m);
        self.ft_rhs = mvec;
        s_pat.clear();
        self.ft_pat = s_pat;
        true
    }

    // ------------------------------------------------------------------
    // Hyper-sparse internals
    // ------------------------------------------------------------------

    /// Dense fallback for [`ftran`](Factorization::ftran): plain dense
    /// solve, pattern rebuilt by a scan.
    fn ftran_dense_branch(&mut self, v: &mut WorkVec) {
        self.counts.ftran_solves -= 1; // ftran_dense re-counts
        let mut out = std::mem::take(&mut self.dense_out);
        self.ftran_dense(&v.vals, &mut out);
        self.counts.ftran_nnz -= self.m; // counted by the caller instead
        std::mem::swap(&mut v.vals, &mut out);
        self.dense_out = out;
        rebuild_pattern(v);
    }

    /// Dense fallback for [`btran_sparse`](Factorization::btran_sparse).
    fn btran_dense_branch(&mut self, v: &mut WorkVec) {
        self.counts.btran_solves -= 1;
        let mut out = std::mem::take(&mut self.dense_out);
        self.btran(&v.vals, &mut out);
        self.counts.btran_nnz -= self.m;
        std::mem::swap(&mut v.vals, &mut out);
        self.dense_out = out;
        rebuild_pattern(v);
    }

    /// Symbolic reach + numeric forward solve with L (step space).
    fn solve_lower(&mut self, v: &mut WorkVec) {
        self.reach(&v.pattern, false);
        let mut order = std::mem::take(&mut self.reach_out);
        for idx in (0..order.len()).rev() {
            let k = order[idx] as usize;
            let x = v.vals[k];
            if x != 0.0 {
                for t in self.l_start[k]..self.l_start[k + 1] {
                    v.vals[self.l_steps[t] as usize] -= self.l_vals[t] * x;
                }
            }
        }
        std::mem::swap(&mut v.pattern, &mut order);
        self.reach_out = order;
    }

    /// Symbolic reach + numeric backward solve with Lᵀ (step space).
    fn solve_lower_t(&mut self, v: &mut WorkVec) {
        self.reach(&v.pattern, true);
        let mut order = std::mem::take(&mut self.reach_out);
        for idx in (0..order.len()).rev() {
            let k = order[idx] as usize;
            let mut acc = v.vals[k];
            for t in self.l_start[k]..self.l_start[k + 1] {
                acc -= self.l_vals[t] * v.vals[self.l_steps[t] as usize];
            }
            v.vals[k] = acc;
        }
        std::mem::swap(&mut v.pattern, &mut order);
        self.reach_out = order;
    }

    /// Applies the FT row etas chronologically during FTRAN (gather
    /// form: each eta reads its own sparse entries). Step space.
    fn apply_row_etas(&mut self, v: &mut WorkVec) {
        if self.ft.row_etas.is_empty() {
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for &i in &v.pattern {
            self.stamp[i as usize] = epoch;
        }
        for re in &self.ft.row_etas {
            let mut acc = v.vals[re.t as usize];
            for &(j, mj) in &re.m {
                acc -= mj * v.vals[j as usize];
            }
            if acc != 0.0 || self.stamp[re.t as usize] == epoch {
                if self.stamp[re.t as usize] != epoch {
                    self.stamp[re.t as usize] = epoch;
                    v.pattern.push(re.t);
                }
                v.vals[re.t as usize] = acc;
            }
        }
    }

    /// Applies the FT row-eta transposes newest-first during BTRAN
    /// (scatter form). Step space.
    fn apply_row_etas_t(&mut self, v: &mut WorkVec) {
        if self.ft.row_etas.is_empty() {
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for &i in &v.pattern {
            self.stamp[i as usize] = epoch;
        }
        for re in self.ft.row_etas.iter().rev() {
            let t = v.vals[re.t as usize];
            if t != 0.0 {
                for &(j, mj) in &re.m {
                    v.vals[j as usize] -= mj * t;
                    if self.stamp[j as usize] != epoch {
                        self.stamp[j as usize] = epoch;
                        v.pattern.push(j);
                    }
                }
            }
        }
    }

    /// Symbolic reach + numeric backward solve with the dynamic `U`
    /// (step space): reverse DFS postorder finalizes each entry before
    /// it propagates down its column.
    fn solve_upper(&mut self, v: &mut WorkVec) {
        self.reach_upper(&v.pattern, false);
        let mut order = std::mem::take(&mut self.reach_out);
        for idx in (0..order.len()).rev() {
            let k = order[idx] as usize;
            let x = v.vals[k] / self.ft.udiag[k];
            v.vals[k] = x;
            if x != 0.0 {
                for &(j, u) in &self.ft.ucols[k] {
                    v.vals[j as usize] -= u * x;
                }
            }
        }
        std::mem::swap(&mut v.pattern, &mut order);
        self.reach_out = order;
    }

    /// Symbolic reach + numeric forward solve with the dynamic `Uᵀ`
    /// (step space), propagating through the row adjacency.
    fn solve_upper_t(&mut self, v: &mut WorkVec) {
        self.reach_upper(&v.pattern, true);
        let mut order = std::mem::take(&mut self.reach_out);
        for idx in (0..order.len()).rev() {
            let k = order[idx] as usize;
            let y = v.vals[k] / self.ft.udiag[k];
            v.vals[k] = y;
            if y != 0.0 {
                for &(c, u) in &self.ft.urows[k] {
                    v.vals[c as usize] -= u * y;
                }
            }
        }
        std::mem::swap(&mut v.pattern, &mut order);
        self.reach_out = order;
    }

    /// DFS reach over the `U` adjacency (columns for FTRAN, rows for
    /// BTRAN), mirroring [`reach`](Factorization::reach).
    fn reach_upper(&mut self, seeds: &[u32], transposed: bool) {
        self.epoch += 1;
        let adj = if transposed {
            &self.ft.urows
        } else {
            &self.ft.ucols
        };
        self.reach_out.clear();
        dfs_postorder(
            seeds.iter().copied(),
            self.epoch,
            &mut self.stamp,
            &mut self.dfs_stack,
            &mut self.reach_out,
            |node, c| adj[node as usize].get(c).map(|e| e.0),
        );
    }

    /// Dense L forward solve (step space).
    fn dense_lower(&self, x: &mut [f64]) {
        for k in 0..self.m {
            let v = x[k];
            if v != 0.0 {
                for t in self.l_start[k]..self.l_start[k + 1] {
                    x[self.l_steps[t] as usize] -= self.l_vals[t] * v;
                }
            }
        }
    }

    /// Dense Lᵀ backward solve (step space).
    fn dense_lower_t(&self, x: &mut [f64]) {
        for k in (0..self.m).rev() {
            let mut acc = x[k];
            for t in self.l_start[k]..self.l_start[k + 1] {
                acc -= self.l_vals[t] * x[self.l_steps[t] as usize];
            }
            x[k] = acc;
        }
    }

    /// DFS reach from `seeds` over the `L` solve's dependency graph
    /// (its transpose for BTRAN). Leaves the closed pattern in
    /// `self.reach_out` in DFS postorder; reverse postorder is a
    /// topological order of the solve, so numeric passes can finalize
    /// each entry before it propagates.
    fn reach(&mut self, seeds: &[u32], transposed: bool) {
        self.epoch += 1;
        let (start, idx): (&[usize], &[u32]) = if transposed {
            (&self.lt_start, &self.lt_cols)
        } else {
            (&self.l_start, &self.l_steps)
        };
        self.reach_out.clear();
        dfs_postorder(
            seeds.iter().copied(),
            self.epoch,
            &mut self.stamp,
            &mut self.dfs_stack,
            &mut self.reach_out,
            |node, c| {
                let i = start[node as usize] + c;
                (i < start[node as usize + 1]).then(|| idx[i])
            },
        );
    }

    /// Permutes a work vector between index spaces, touching only its
    /// pattern.
    fn permute(&mut self, v: &mut WorkVec, map: PermMap) {
        let scratch = &mut self.perm_scratch;
        scratch.clear();
        for &i in &v.pattern {
            let to = match map {
                PermMap::RowToStep => self.rpos[i as usize],
                PermMap::StepToPos => self.cinv[i as usize],
                PermMap::PosToStep => self.cpos[i as usize],
                PermMap::StepToRow => self.rinv[i as usize],
            };
            scratch.push((to, v.vals[i as usize]));
            v.vals[i as usize] = 0.0;
        }
        v.pattern.clear();
        for &(i, val) in scratch.iter() {
            v.vals[i as usize] = val;
            v.pattern.push(i);
        }
    }

    /// In-place permute: step-space vector to position space.
    fn steps_to_positions(&mut self, x: &mut [f64]) {
        let m = self.m;
        self.work[..m].copy_from_slice(&x[..m]);
        for k in 0..m {
            x[self.cinv[k] as usize] = self.work[k];
        }
        for k in 0..m {
            self.work[k] = 0.0;
        }
    }

    /// In-place permute: position-space vector to step space.
    fn positions_to_steps(&mut self, x: &mut [f64]) {
        let m = self.m;
        self.work[..m].copy_from_slice(&x[..m]);
        for k in 0..m {
            x[k] = self.work[self.cinv[k] as usize];
        }
        for k in 0..m {
            self.work[k] = 0.0;
        }
    }
}

/// Depth-first reach from `seeds` over the graph whose `c`-th edge out
/// of `node` leads to `child(node, c)` (`None` past the last). Nodes
/// stamped with `epoch` are skipped; every node reached is stamped and
/// appended to `out` in DFS postorder — reverse postorder is a
/// topological order of the triangular solve the graph encodes.
fn dfs_postorder(
    seeds: impl IntoIterator<Item = u32>,
    epoch: u32,
    stamp: &mut [u32],
    stack: &mut Vec<(u32, usize)>,
    out: &mut Vec<u32>,
    child: impl Fn(u32, usize) -> Option<u32>,
) {
    for seed in seeds {
        if stamp[seed as usize] == epoch {
            continue;
        }
        stamp[seed as usize] = epoch;
        stack.push((seed, 0));
        while let Some(&(node, cursor)) = stack.last() {
            let mut c = cursor;
            let mut next_child = None;
            while let Some(ch) = child(node, c) {
                c += 1;
                if stamp[ch as usize] != epoch {
                    next_child = Some(ch);
                    break;
                }
            }
            stack.last_mut().expect("non-empty").1 = c;
            match next_child {
                Some(ch) => {
                    stamp[ch as usize] = epoch;
                    stack.push((ch, 0));
                }
                None => {
                    stack.pop();
                    out.push(node);
                }
            }
        }
    }
}

/// Index-space maps for [`Factorization::permute`].
#[derive(Clone, Copy)]
enum PermMap {
    RowToStep,
    StepToPos,
    PosToStep,
    StepToRow,
}

/// Test-build invariant check on a hyper-sparse work vector: the
/// pattern holds no duplicates and every nonzero is on it. Violations
/// here mean a solve stage leaked values outside its symbolic reach —
/// the class of bug the stamped-pattern design exists to prevent.
#[cfg(test)]
fn debug_check_pattern(v: &WorkVec, stage: &str) {
    let mut seen = vec![false; v.dim()];
    for &i in &v.pattern {
        if seen[i as usize] {
            panic!("{stage}: duplicate pattern entry {i}");
        }
        seen[i as usize] = true;
    }
    for (i, &x) in v.vals.iter().enumerate() {
        if x != 0.0 && !seen[i] {
            panic!("{stage}: nonzero {x} at {i} off pattern");
        }
    }
}

/// No-op outside test builds: the checks scan the full dimension, which
/// would defeat hyper-sparsity in production.
#[cfg(not(test))]
fn debug_check_pattern(_v: &WorkVec, _stage: &str) {}

/// Rebuilds a work vector's pattern by scanning its dense values.
fn rebuild_pattern(v: &mut WorkVec) {
    v.pattern.clear();
    for (i, &x) in v.vals.iter().enumerate() {
        if x != 0.0 {
            v.pattern.push(i as u32);
        }
    }
}

/// Basis positions ordered by their column's nonzero count, ties by
/// position: a stable counting sort over the counts.
fn order_by_nnz(a: &CscMatrix, basis: &[usize]) -> Vec<u32> {
    let max_nnz = basis.iter().map(|&c| a.col_nnz(c)).max().unwrap_or(0);
    let mut start = vec![0usize; max_nnz + 2];
    for &c in basis {
        start[a.col_nnz(c) + 1] += 1;
    }
    for i in 0..=max_nnz {
        start[i + 1] += start[i];
    }
    let mut order = vec![0u32; basis.len()];
    for (p, &c) in basis.iter().enumerate() {
        let slot = &mut start[a.col_nnz(c)];
        order[*slot] = p as u32;
        *slot += 1;
    }
    order
}

/// Builds the transposed (indices-only) adjacency of a step-indexed
/// column structure: `out[s]` lists the columns holding an entry at `s`.
fn build_transpose(
    m: usize,
    start: &[usize],
    idx: &[u32],
    out_start: &mut Vec<usize>,
    out_cols: &mut Vec<u32>,
) {
    out_start.clear();
    out_start.resize(m + 1, 0);
    for &s in idx {
        out_start[s as usize + 1] += 1;
    }
    for i in 0..m {
        out_start[i + 1] += out_start[i];
    }
    out_cols.clear();
    out_cols.resize(idx.len(), 0);
    let mut cursor: Vec<usize> = out_start[..m].to_vec();
    for k in 0..m {
        for t in start[k]..start[k + 1] {
            let s = idx[t] as usize;
            out_cols[cursor[s]] = k as u32;
            cursor[s] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds an m x n CSC matrix from dense rows.
    fn csc_from_dense(rows: &[Vec<f64>]) -> CscMatrix {
        let m = rows.len();
        let n = rows[0].len();
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                if v != 0.0 {
                    cols[j].push((i as u32, v));
                }
            }
        }
        CscMatrix::from_columns(m, &cols)
    }

    /// Dense B·x for basis columns of a.
    fn basis_matvec(a: &CscMatrix, basis: &[usize], x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.nrows];
        for (pos, &col) in basis.iter().enumerate() {
            a.axpy_col(col, x[pos], &mut y);
        }
        y
    }

    /// Dense Bᵀ·y.
    fn basis_matvec_t(a: &CscMatrix, basis: &[usize], y: &[f64]) -> Vec<f64> {
        basis.iter().map(|&col| a.dot_col(col, y)).collect()
    }

    /// Asserts a work vector's pattern covers all its nonzeros and holds
    /// no duplicates.
    fn check_pattern(v: &WorkVec) {
        let mut seen = vec![false; v.dim()];
        for &i in &v.pattern {
            assert!(!seen[i as usize], "duplicate pattern entry {i}");
            seen[i as usize] = true;
        }
        for (i, &x) in v.vals.iter().enumerate() {
            assert!(
                x == 0.0 || seen[i],
                "nonzero {x} at {i} missing from pattern"
            );
        }
    }

    #[test]
    fn identity_basis() {
        let a = csc_from_dense(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let mut f = Factorization::new(3);
        f.refactor(&a, &[0, 1, 2], 1e-10).unwrap();
        let mut x = WorkVec::with_dim(3);
        f.ftran_col(&a, 1, &mut x);
        check_pattern(&x);
        assert_eq!(x.vals, vec![0.0, 1.0, 0.0]);
        let mut y = Vec::new();
        f.btran(&[3.0, -1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0, 2.0]);
        let mut r = WorkVec::with_dim(3);
        f.btran_unit(2, &mut r);
        check_pattern(&r);
        assert_eq!(r.vals, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn random_dense_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..30 {
            let m = rng.gen_range(2..12);
            // Random well-conditioned-ish matrix: diag dominant.
            let mut rows = vec![vec![0.0; m + 3]; m];
            for i in 0..m {
                for j in 0..m + 3 {
                    if rng.gen_bool(0.4) {
                        rows[i][j] = rng.gen_range(-2.0..2.0);
                    }
                }
                rows[i][i] += 4.0; // ensure the first m columns invertible
            }
            let a = csc_from_dense(&rows);
            let basis: Vec<usize> = (0..m).collect();
            let mut f = Factorization::new(m);
            f.refactor(&a, &basis, 1e-10)
                .unwrap_or_else(|s| panic!("trial {trial}: singular at {s:?}"));

            // Sparse FTRAN against every column of A.
            let mut x = WorkVec::with_dim(m);
            for col in 0..m + 3 {
                f.ftran_col(&a, col, &mut x);
                check_pattern(&x);
                let bx = basis_matvec(&a, &basis, &x.vals);
                let mut expect = vec![0.0; m];
                a.axpy_col(col, 1.0, &mut expect);
                for i in 0..m {
                    assert!(
                        (bx[i] - expect[i]).abs() < 1e-8,
                        "trial {trial} col {col}: Bx={bx:?} expect={expect:?}"
                    );
                }
            }
            // Dense BTRAN on random rhs.
            let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut y = Vec::new();
            f.btran(&c, &mut y);
            let bty = basis_matvec_t(&a, &basis, &y);
            for i in 0..m {
                assert!((bty[i] - c[i]).abs() < 1e-8);
            }
            // Sparse BTRAN on every unit vector.
            let mut r = WorkVec::with_dim(m);
            for pos in 0..m {
                f.btran_unit(pos, &mut r);
                check_pattern(&r);
                let bty = basis_matvec_t(&a, &basis, &r.vals);
                for (i, &bi) in bty.iter().enumerate() {
                    let want = if i == pos { 1.0 } else { 0.0 };
                    assert!(
                        (bi - want).abs() < 1e-8,
                        "trial {trial} unit {pos}: Bᵀrho[{i}]={bi}"
                    );
                }
            }
        }
    }

    #[test]
    fn singular_basis_detected() {
        let a = csc_from_dense(&[
            vec![1.0, 2.0, 0.0],
            vec![2.0, 4.0, 0.0], // col1 = 2*col0 in these two rows
            vec![0.0, 0.0, 1.0],
        ]);
        let mut f = Factorization::new(3);
        let err = f.refactor(&a, &[0, 1, 2], 1e-10).unwrap_err();
        // col0 pivots on row 1 (larger entry, equal row counts); col1 is
        // then zero on the only unpivoted row, 0.
        assert_eq!(err.positions, vec![1]);
        assert_eq!(err.rows, vec![0]);
        // Swapping in that row's unit column factors.
        let b = csc_from_dense(&[
            vec![1.0, 1.0, 0.0],
            vec![2.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert!(f.refactor(&b, &[0, 1, 2], 1e-10).is_ok());
    }

    #[test]
    fn every_dependent_column_reported_at_once() {
        // Four copies of one column plus a unit column: the elimination
        // keeps going past the first dependent copy and reports all three,
        // with as many unpivoted rows.
        let a = csc_from_dense(&[
            vec![1.0, 1.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ]);
        let mut f = Factorization::new(5);
        let err = f.refactor(&a, &[0, 1, 2, 3, 4], 1e-10).unwrap_err();
        assert_eq!(err.positions, vec![1, 2, 3]);
        assert_eq!(err.rows.len(), 3);
        assert!(err.rows.iter().all(|&r| r < 4));
    }

    /// The Forrest–Tomlin elimination order, head to tail, checking the
    /// links agree in both directions.
    fn ft_order(f: &Factorization) -> Vec<u32> {
        let mut order = Vec::new();
        let mut prev = UNSET;
        let mut step = f.ft.head;
        while step != UNSET {
            assert_eq!(f.ft.prev[step as usize], prev, "broken back link");
            order.push(step);
            prev = step;
            step = f.ft.next[step as usize];
        }
        assert_eq!(f.ft.tail, prev, "tail is not the last step");
        order
    }

    #[test]
    fn ft_update_matches_refactor() {
        // Replace at least m basis columns per trial through
        // `push_update` — steering pivots onto the head of the elimination
        // order, onto its tail (already last), and elsewhere — and check
        // every FTRAN/BTRAN entry point against the new basis.
        let mut rng = StdRng::seed_from_u64(18);
        let (mut head_moves, mut tail_moves, mut other_moves) = (0, 0, 0);
        for trial in 0..25 {
            let m = rng.gen_range(3..12);
            let ncols = m + 6;
            let mut rows = vec![vec![0.0; ncols]; m];
            for i in 0..m {
                for j in 0..ncols {
                    if rng.gen_bool(0.5) {
                        rows[i][j] = rng.gen_range(-2.0..2.0);
                    }
                }
                rows[i][i] += 4.0;
                rows[i][m + (i % 6).min(5)] += 1.0;
            }
            let a = csc_from_dense(&rows);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factorization::new(m);
            f.refactor(&a, &basis, 1e-10).unwrap();

            let mut applied = 0;
            for attempt in 0..20 * m {
                if applied >= m {
                    break;
                }
                let entering = rng.gen_range(0..ncols);
                if basis.contains(&entering) {
                    continue;
                }
                let mut d = WorkVec::with_dim(m);
                f.ftran_col(&a, entering, &mut d);
                check_pattern(&d);
                let (big, dmax) = d
                    .vals
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.abs().partial_cmp(&y.1.abs()).unwrap())
                    .map(|(i, &v)| (i, v.abs()))
                    .unwrap();
                if dmax < 1e-6 {
                    continue;
                }
                // Target the head, the tail or the largest entry in turn;
                // fall back to the largest when the target is too small.
                let order = ft_order(&f);
                assert_eq!(order.len(), m, "trial {trial}: order lost steps");
                let target = match attempt % 3 {
                    0 => f.cinv[order[0] as usize] as usize,
                    1 => f.cinv[order[m - 1] as usize] as usize,
                    _ => big,
                };
                let pos = if d.vals[target].abs() >= 0.1 * dmax {
                    target
                } else {
                    big
                };
                let step = f.cpos[pos];
                basis[pos] = entering;
                if f.push_update(pos, &d, 1e-14) {
                    applied += 1;
                    if step == order[0] {
                        head_moves += 1;
                    } else if step == order[m - 1] {
                        tail_moves += 1;
                    } else {
                        other_moves += 1;
                    }
                    let after = ft_order(&f);
                    assert_eq!(after.last(), Some(&step), "moved step is not last");
                    let mut rest = order.clone();
                    rest.retain(|&s| s != step);
                    assert_eq!(&after[..m - 1], &rest[..], "others kept their order");
                } else {
                    // Declined by the stability monitor: refactorize,
                    // exactly as the simplex driver would.
                    f.refactor(&a, &basis, 1e-10).unwrap();
                }

                let mut x = WorkVec::with_dim(m);
                for col in 0..ncols {
                    f.ftran_col(&a, col, &mut x);
                    check_pattern(&x);
                    let bx = basis_matvec(&a, &basis, &x.vals);
                    let mut expect = vec![0.0; m];
                    a.axpy_col(col, 1.0, &mut expect);
                    for i in 0..m {
                        assert!(
                            (bx[i] - expect[i]).abs() < 1e-7,
                            "trial {trial} col {col}: {bx:?} vs {expect:?}"
                        );
                    }
                }
                // Dense FTRAN against a fresh factorization of the basis.
                let mut fresh = Factorization::new(m);
                fresh.refactor(&a, &basis, 1e-10).unwrap();
                let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let (mut xd, mut xf) = (Vec::new(), Vec::new());
                f.ftran_dense(&rhs, &mut xd);
                fresh.ftran_dense(&rhs, &mut xf);
                for i in 0..m {
                    assert!(
                        (xd[i] - xf[i]).abs() < 1e-7 * (1.0 + xf[i].abs()),
                        "trial {trial} ftran_dense at {i}: {} vs {}",
                        xd[i],
                        xf[i]
                    );
                }
                let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let mut y = Vec::new();
                f.btran(&c, &mut y);
                let bty = basis_matvec_t(&a, &basis, &y);
                for i in 0..m {
                    assert!((bty[i] - c[i]).abs() < 1e-7, "trial {trial} btran dense");
                }
                let mut r = WorkVec::with_dim(m);
                for pos in 0..m {
                    f.btran_unit(pos, &mut r);
                    check_pattern(&r);
                    let bty = basis_matvec_t(&a, &basis, &r.vals);
                    for (i, &bi) in bty.iter().enumerate() {
                        let want = if i == pos { 1.0 } else { 0.0 };
                        assert!((bi - want).abs() < 1e-7, "trial {trial} unit {pos}");
                    }
                }
            }
            assert!(applied >= m, "trial {trial}: only {applied} of {m} updates");
        }
        assert!(
            head_moves > 0 && tail_moves > 0 && other_moves > 0,
            "moves: head {head_moves}, tail {tail_moves}, other {other_moves}"
        );
    }

    #[test]
    fn counting_sort_orders_like_a_stable_sort() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let m = rng.gen_range(1..30);
            let ncols = m + 10;
            let cols: Vec<Vec<(u32, f64)>> = (0..ncols)
                .map(|_| {
                    (0..m as u32)
                        .filter(|_| rng.gen_bool(0.2))
                        .map(|r| (r, 1.0))
                        .collect()
                })
                .collect();
            let a = CscMatrix::from_columns(m, &cols);
            let basis: Vec<usize> = (0..m).map(|_| rng.gen_range(0..ncols)).collect();
            let mut want: Vec<u32> = (0..m as u32).collect();
            want.sort_by_key(|&p| a.col_nnz(basis[p as usize]));
            assert_eq!(order_by_nnz(&a, &basis), want);
        }
    }

    #[test]
    fn tiny_singleton_is_deficient() {
        // A one-entry column below the pivot tolerance on an unpivoted
        // row: reported, and its row left unpivoted, as the threshold
        // rule would.
        let a = csc_from_dense(&[
            vec![1e-12, 0.0, 1.0],
            vec![0.0, 3.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let mut f = Factorization::new(3);
        let err = f.refactor(&a, &[0, 1, 2], 1e-10).unwrap_err();
        assert_eq!(err.positions, vec![0]);
        assert_eq!(err.rows.len(), 1);
    }

    #[test]
    fn singleton_on_a_pivoted_row_takes_the_general_path() {
        // Columns 0 and 1 are singletons on row 0: the first pivots it,
        // the second meets a pivoted row, goes through the elimination
        // and comes out dependent. Swapping in the unit column of the
        // row left unpivoted gives a basis whose solves round-trip.
        let a = csc_from_dense(&[
            vec![2.0, 3.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 1.0],
        ]);
        let mut f = Factorization::new(3);
        let err = f.refactor(&a, &[0, 1, 2], 1e-10).unwrap_err();
        assert_eq!(err.positions, vec![1]);
        assert_eq!(err.rows.len(), 1);
        // Row r > 0's unit column is column 2 + r.
        assert_ne!(err.rows[0], 0, "row 0 is pivoted by column 0");
        let mut basis = vec![0, 1, 2];
        basis[1] = 2 + err.rows[0] as usize;
        f.refactor(&a, &basis, 1e-10).unwrap();
        let mut x = WorkVec::with_dim(3);
        for col in 0..5 {
            f.ftran_col(&a, col, &mut x);
            check_pattern(&x);
            let bx = basis_matvec(&a, &basis, &x.vals);
            let mut expect = vec![0.0; 3];
            a.axpy_col(col, 1.0, &mut expect);
            for i in 0..3 {
                assert!((bx[i] - expect[i]).abs() < 1e-12, "col {col}");
            }
        }
        let mut r = WorkVec::with_dim(3);
        for pos in 0..3 {
            f.btran_unit(pos, &mut r);
            let bty = basis_matvec_t(&a, &basis, &r.vals);
            for (i, &bi) in bty.iter().enumerate() {
                let want = if i == pos { 1.0 } else { 0.0 };
                assert!((bi - want).abs() < 1e-12, "unit {pos}");
            }
        }
    }

    #[test]
    fn factor_nnz_counts_the_factors_and_ignores_updates() {
        // Read L and U back into dense step-space matrices, check that
        // they reproduce the permuted basis, and count their nonzeros:
        // `factor_nnz` is that count (L's unit diagonal excluded, U's
        // diagonal included) and stays put while FT updates edit U.
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..20 {
            let m = rng.gen_range(3..12);
            let ncols = m + 6;
            let mut rows = vec![vec![0.0; ncols]; m];
            for i in 0..m {
                for j in 0..ncols {
                    if rng.gen_bool(0.4) {
                        rows[i][j] = rng.gen_range(-2.0..2.0);
                    }
                }
                rows[i][i] += 4.0;
            }
            let a = csc_from_dense(&rows);
            let basis: Vec<usize> = (0..m).collect();
            let mut f = Factorization::new(m);
            f.refactor(&a, &basis, 1e-10).unwrap();

            let mut l = vec![vec![0.0; m]; m];
            let mut u = vec![vec![0.0; m]; m];
            for k in 0..m {
                l[k][k] = 1.0;
                for t in f.l_start[k]..f.l_start[k + 1] {
                    l[f.l_steps[t] as usize][k] = f.l_vals[t];
                }
                u[k][k] = f.ft.udiag[k];
                for &(j, v) in &f.ft.ucols[k] {
                    u[j as usize][k] = v;
                }
            }
            for s in 0..m {
                for k in 0..m {
                    let lu: f64 = (0..m).map(|j| l[s][j] * u[j][k]).sum();
                    let b = rows[f.rinv[s] as usize][basis[f.cinv[k] as usize]];
                    assert!((lu - b).abs() < 1e-9, "trial {trial}: (LU)[{s}][{k}]");
                }
            }
            let nnz = |mat: &[Vec<f64>]| mat.iter().flatten().filter(|&&x| x != 0.0).count();
            let counted = nnz(&l) - m + nnz(&u);
            assert_eq!(f.factor_nnz(), counted, "trial {trial}");

            for entering in m..ncols {
                let mut d = WorkVec::with_dim(m);
                f.ftran_col(&a, entering, &mut d);
                let (pos, dmax) = d
                    .vals
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.abs().partial_cmp(&y.1.abs()).unwrap())
                    .map(|(i, &v)| (i, v.abs()))
                    .unwrap();
                if dmax < 1e-6 || !f.push_update(pos, &d, 1e-14) {
                    break;
                }
                assert_eq!(f.factor_nnz(), counted, "trial {trial}: moved by an update");
            }
        }
    }

    #[test]
    fn permuted_identity_with_scaling() {
        // Rows hit in scrambled order with non-unit values.
        let a = csc_from_dense(&[
            vec![0.0, 0.0, 5.0],
            vec![2.0, 0.0, 0.0],
            vec![0.0, -3.0, 0.0],
        ]);
        let mut f = Factorization::new(3);
        f.refactor(&a, &[0, 1, 2], 1e-10).unwrap();
        let mut x = WorkVec::with_dim(3);
        f.ftran_col(&a, 0, &mut x); // B x = col0 -> x = e_0
        assert!((x.vals[0] - 1.0).abs() < 1e-12);
        assert!(x.vals[1].abs() < 1e-12 && x.vals[2].abs() < 1e-12);
    }

    #[test]
    fn hyper_sparse_solves_touch_few_entries() {
        // A bidiagonal basis: solving against a unit vector reaches only
        // a suffix/prefix, never all of m.
        let m = 64;
        let mut cols: Vec<Vec<(u32, f64)>> = Vec::new();
        for j in 0..m {
            let mut c = vec![(j as u32, 2.0)];
            if j + 1 < m {
                c.push((j as u32 + 1, -1.0));
            }
            cols.push(c);
        }
        let a = CscMatrix::from_columns(m, &cols);
        let basis: Vec<usize> = (0..m).collect();
        let mut f = Factorization::new(m);
        f.refactor(&a, &basis, 1e-10).unwrap();
        let before = f.op_counts();
        let mut x = WorkVec::with_dim(m);
        f.ftran_col(&a, m - 1, &mut x);
        let after = f.op_counts();
        // The last column's solve only involves the final few steps.
        assert!(
            after.ftran_nnz - before.ftran_nnz < m / 2,
            "ftran touched {} of {m} entries",
            after.ftran_nnz - before.ftran_nnz
        );
        let bx = basis_matvec(&a, &basis, &x.vals);
        let mut expect = vec![0.0; m];
        a.axpy_col(m - 1, 1.0, &mut expect);
        for i in 0..m {
            assert!((bx[i] - expect[i]).abs() < 1e-9);
        }
    }
}

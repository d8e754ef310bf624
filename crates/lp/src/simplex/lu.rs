//! Sparse LU factorization of the simplex basis (Gilbert–Peierls) with
//! Forrest–Tomlin or product-form (eta) updates and hyper-sparse solves.
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
//! After each simplex pivot the factorization is *updated*, not rebuilt,
//! in one of two ways selected by [`BasisUpdate`]:
//!
//! * **Forrest–Tomlin** (default): `U` is maintained explicitly in a
//!   dynamic column/row representation. Replacing the column pivoted at
//!   step `t` records its *spike* `s = U·d` as the new column, then
//!   eliminates row `t` against the trailing rows — a sparse triangular
//!   solve yields the multipliers, stored as one row eta — and cyclically
//!   permutes `t` to the end of the elimination order so `U` stays
//!   triangular. The order is a doubly linked list of steps, so that
//!   move costs O(1) and the dense solves walk the list from either
//!   end. A stability monitor compares the recomputed diagonal against
//!   its product-form prediction `d_pos·u_tt` and declines the update
//!   (the caller refactorizes) on disagreement.
//! * **Eta**: the update `B' = B·E` is recorded as a sparse eta matrix
//!   `E` (identity with one replaced column) — the extended product-form
//!   of the inverse, kept as the differential oracle. FTRAN/BTRAN apply
//!   the eta file around the LU solve.
//!
//! Either update file is discarded at the next refactorization. Its fill
//! (eta nonzeros, or row-eta multipliers plus net `U` growth) is kept as
//! running totals, so the refactorization monitor reads it in O(1).
//!
//! Solves are **hyper-sparse**: right-hand sides, intermediates, and
//! results live in indexed [`WorkVec`]s. A depth-first symbolic reach
//! over the triangular factors (both held in forward and transposed
//! adjacency) enumerates exactly the entries a solve can touch, so the
//! cost of an FTRAN/BTRAN is proportional to the size of its *result*,
//! not to `m`. Dense right-hand sides short-circuit to plain dense
//! triangular solves (the reach would visit everything anyway).

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

/// How the factorization absorbs a basis column replacement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BasisUpdate {
    /// Forrest–Tomlin row-spike updates: `U` maintained explicitly,
    /// spike recorded, row eliminated, permuted to the last ordinal.
    #[default]
    ForrestTomlin,
    /// Product-form eta file (the differential oracle).
    Eta,
}

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

/// One product-form update: basis position `pos` was replaced by a column
/// whose FTRAN image (in basis-position space) is `d`.
struct Eta {
    pos: usize,
    /// Sparse `d`, excluding the `pos` entry.
    d: Vec<(u32, f64)>,
    /// `d[pos]`, the pivot element.
    dp: f64,
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
    /// Total nonzeros pushed into the update file: eta columns, or FT
    /// spikes plus row-eta multipliers — the basis-update fill ledger.
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

/// Forrest–Tomlin state: `U` maintained explicitly in dynamic form.
/// Column and row adjacency both carry values and are kept exactly in
/// sync (no stale entries), so solves never search.
#[derive(Default)]
struct Ft {
    /// Built for the current factors (mode is Forrest–Tomlin and
    /// `refactor` succeeded).
    active: bool,
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

/// LU factors plus eta file. Sparse solves work on [`WorkVec`]s; the
/// dense entry points remain for inherently dense right-hand sides
/// (basic-value and reduced-cost recomputation).
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
    // U columns (per step): step indices (< k) and values; diagonal apart.
    u_start: Vec<usize>,
    u_steps: Vec<u32>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    // Transposed adjacency (indices only) for BTRAN symbolic reach:
    // step s -> steps k whose column holds an entry at s.
    ut_start: Vec<usize>,
    ut_cols: Vec<u32>,
    lt_start: Vec<usize>,
    lt_cols: Vec<u32>,
    etas: Vec<Eta>,
    /// Nonzeros across `etas`, each counting its entries plus the pivot
    /// (kept as a running total for the fill monitor).
    eta_nnz: usize,
    /// Basis-update mode; [`Ft`] is maintained when Forrest–Tomlin.
    mode: BasisUpdate,
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
            u_start: vec![0],
            u_steps: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::new(),
            ut_start: Vec::new(),
            ut_cols: Vec::new(),
            lt_start: Vec::new(),
            lt_cols: Vec::new(),
            etas: Vec::new(),
            eta_nnz: 0,
            mode: BasisUpdate::Eta,
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

    /// Selects the basis-update scheme. Takes effect at the next
    /// [`refactor`](Factorization::refactor); call before the first one.
    pub fn set_mode(&mut self, mode: BasisUpdate) {
        self.mode = mode;
    }

    /// Basis updates absorbed since the last refactorization, whichever
    /// the scheme (drives the periodic refactorization interval).
    #[inline]
    pub fn update_count(&self) -> usize {
        if self.ft.active {
            self.ft.updates
        } else {
            self.etas.len()
        }
    }

    /// Fill added by the update file since the last refactorization:
    /// eta-file nonzeros, or FT row-eta multipliers plus net `U` growth.
    pub fn update_fill(&self) -> usize {
        if self.ft.active {
            self.ft.row_eta_nnz + self.ft.live_nnz.saturating_sub(self.ft.base_nnz)
        } else {
            self.eta_nnz
        }
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

    /// Total nonzeros in L and U (fill indicator).
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_steps.len() + self.u_diag.len()
    }

    /// Monotone FTRAN/BTRAN operation counters.
    #[inline]
    pub fn op_counts(&self) -> OpCounts {
        self.counts
    }

    /// Heap bytes currently held by factors, eta file, and scratch
    /// (allocation accounting for the solver's workspace ledger).
    pub fn heap_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<u32>();
        let us = std::mem::size_of::<usize>();
        (self.l_vals.capacity() + self.u_vals.capacity() + self.u_diag.capacity()) * f
            + (self.l_rows.capacity()
                + self.l_steps.capacity()
                + self.u_steps.capacity()
                + self.ut_cols.capacity()
                + self.lt_cols.capacity()
                + self.rpos.capacity()
                + self.rinv.capacity()
                + self.cinv.capacity()
                + self.cpos.capacity()
                + self.stamp.capacity()
                + self.row_count.capacity()
                + self.reach_out.capacity())
                * u
            + (self.l_start.capacity()
                + self.u_start.capacity()
                + self.ut_start.capacity()
                + self.lt_start.capacity())
                * us
            + (self.work.capacity() + self.dense_out.capacity()) * f
            + self
                .etas
                .iter()
                .map(|e| e.d.capacity() * (u as usize + f as usize))
                .sum::<usize>()
            + self.ft_heap_bytes()
    }

    /// Heap bytes of the Forrest–Tomlin state.
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
        self.u_start.clear();
        self.u_start.push(0);
        self.u_steps.clear();
        self.u_vals.clear();
        self.u_diag.clear();
        self.etas.clear();
        self.eta_nnz = 0;
        self.ft.active = false;

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
            for (row, _) in a.col(col) {
                if self.stamp[row as usize] == epoch {
                    continue;
                }
                self.stamp[row as usize] = epoch;
                dfs_stack.push((row, 0));
                while let Some(&(node, cursor)) = dfs_stack.last() {
                    let step = self.rpos[node as usize];
                    let (lo, hi) = if step == UNSET {
                        (0, 0) // leaf
                    } else {
                        (self.l_start[step as usize], self.l_start[step as usize + 1])
                    };
                    let mut c = cursor;
                    let mut next_child = None;
                    while lo + c < hi {
                        let child = self.l_rows[lo + c];
                        c += 1;
                        if self.stamp[child as usize] != epoch {
                            next_child = Some(child);
                            break;
                        }
                    }
                    dfs_stack.last_mut().expect("non-empty").1 = c;
                    match next_child {
                        Some(child) => {
                            self.stamp[child as usize] = epoch;
                            dfs_stack.push((child, 0));
                        }
                        None => {
                            dfs_stack.pop();
                            pattern.push(node);
                        }
                    }
                }
            }

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

            // Emit U column k (pivoted rows) and L column k (unpivoted).
            for &node in &pattern {
                let v = self.work[node as usize];
                self.work[node as usize] = 0.0;
                if v == 0.0 || node == piv_row {
                    continue;
                }
                let step = self.rpos[node as usize];
                if step != UNSET {
                    self.u_steps.push(step);
                    self.u_vals.push(v);
                } else {
                    self.l_rows.push(node);
                    self.l_vals.push(v / diag);
                }
            }
            self.close_step(k, piv_row, diag, p);
            k += 1;
        }
        self.dfs_stack = dfs_stack;
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
        // transposed adjacency both factors need for BTRAN reach.
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
        build_transpose(
            m,
            &self.u_start,
            &self.u_steps,
            &mut self.ut_start,
            &mut self.ut_cols,
        );
        if self.mode == BasisUpdate::ForrestTomlin {
            self.ft_rebuild();
        }
        Ok(())
    }

    /// Ends elimination step `k`: basis position `p` pivoted on `row`
    /// with diagonal `diag`; the entries pushed since the previous step
    /// form U's and L's column `k`.
    fn close_step(&mut self, k: usize, row: u32, diag: f64, p: u32) {
        self.u_diag.push(diag);
        self.u_start.push(self.u_steps.len());
        self.l_start.push(self.l_rows.len());
        self.rpos[row as usize] = k as u32;
        self.rinv[k] = row;
        self.cinv[k] = p;
    }

    /// (Re)builds the dynamic `U` representation from the fresh factors.
    fn ft_rebuild(&mut self) {
        let m = self.m;
        let ft = &mut self.ft;
        ft.ucols.resize_with(m, Vec::new);
        ft.urows.resize_with(m, Vec::new);
        for c in &mut ft.ucols {
            c.clear();
        }
        for r in &mut ft.urows {
            r.clear();
        }
        ft.udiag.clear();
        ft.udiag.extend_from_slice(&self.u_diag);
        for k in 0..m {
            for t in self.u_start[k]..self.u_start[k + 1] {
                let j = self.u_steps[t];
                let v = self.u_vals[t];
                ft.ucols[k].push((j, v));
                ft.urows[j as usize].push((k as u32, v));
            }
        }
        // Ascending order: step s links to s + 1; `UNSET` (u32::MAX)
        // ends the list at both sides.
        ft.next.clear();
        ft.next.extend((0..m as u32).map(|s| s + 1));
        if let Some(last) = ft.next.last_mut() {
            *last = UNSET;
        }
        ft.prev.clear();
        ft.prev.extend((0..m as u32).map(|s| s.wrapping_sub(1)));
        ft.head = if m == 0 { UNSET } else { 0 };
        ft.tail = (m as u32).wrapping_sub(1);
        ft.row_etas.clear();
        ft.row_eta_nnz = 0;
        ft.updates = 0;
        ft.base_nnz = self.u_steps.len();
        ft.live_nnz = self.u_steps.len();
        ft.active = true;
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
        // L forward over its symbolic reach.
        self.solve_lower(v);
        debug_check_pattern(v, "after L");
        if self.ft.active {
            // Row etas chronological (gather form), then the dynamic U.
            self.ft_apply_row_etas(v);
            debug_check_pattern(v, "after FT row etas");
            self.ft_solve_u(v);
            debug_check_pattern(v, "after FT U");
            self.permute(v, PermMap::StepToPos);
            debug_check_pattern(v, "after perm step->pos");
            self.counts.ftran_nnz += v.nnz();
            return;
        }
        // U backward over its symbolic reach.
        self.solve_upper(v);
        debug_check_pattern(v, "after U");
        // Step space -> position space.
        self.permute(v, PermMap::StepToPos);
        debug_check_pattern(v, "after perm step->pos");
        // Eta file, chronological. New fill is added to the pattern via
        // stamps so duplicates cannot arise.
        self.epoch += 1;
        let epoch = self.epoch;
        for &i in &v.pattern {
            self.stamp[i as usize] = epoch;
        }
        for eta in &self.etas {
            let t = v.vals[eta.pos] / eta.dp;
            if t != 0.0 {
                for &(i, di) in &eta.d {
                    v.vals[i as usize] -= di * t;
                    if self.stamp[i as usize] != epoch {
                        self.stamp[i as usize] = epoch;
                        v.pattern.push(i);
                    }
                }
            }
            v.vals[eta.pos] = t;
        }
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
        if self.ft.active {
            // Dynamic Uᵀ, then row-eta transposes newest first.
            self.permute(v, PermMap::PosToStep);
            debug_check_pattern(v, "btran after perm pos->step");
            self.ft_solve_ut(v);
            debug_check_pattern(v, "btran after FT Ut");
            self.ft_apply_row_etas_t(v);
            debug_check_pattern(v, "btran after FT row etas");
            self.solve_lower_t(v);
            debug_check_pattern(v, "btran after Lt");
            self.permute(v, PermMap::StepToRow);
            debug_check_pattern(v, "btran after perm step->row");
            self.counts.btran_nnz += v.nnz();
            return;
        }
        // Eta transposes, newest first (gather form: each eta reads its
        // own sparse entries, so the pass costs O(eta nnz) regardless of
        // the vector's density).
        self.epoch += 1;
        let epoch = self.epoch;
        for &i in &v.pattern {
            self.stamp[i as usize] = epoch;
        }
        for eta in self.etas.iter().rev() {
            let mut acc = v.vals[eta.pos];
            for &(i, di) in &eta.d {
                acc -= di * v.vals[i as usize];
            }
            if acc != 0.0 || self.stamp[eta.pos] == epoch {
                if self.stamp[eta.pos] != epoch {
                    self.stamp[eta.pos] = epoch;
                    v.pattern.push(eta.pos as u32);
                }
                v.vals[eta.pos] = acc / eta.dp;
            }
        }
        // Position space -> step space.
        self.permute(v, PermMap::PosToStep);
        debug_check_pattern(v, "btran after perm pos->step");
        // Uᵀ forward, Lᵀ backward, over the transposed-adjacency reach.
        self.solve_upper_t(v);
        debug_check_pattern(v, "btran after Ut");
        self.solve_lower_t(v);
        debug_check_pattern(v, "btran after Lt");
        // Step space -> original-row space.
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
        if self.ft.active {
            self.dense_lower(x);
            for re in &self.ft.row_etas {
                let mut acc = x[re.t as usize];
                for &(j, mj) in &re.m {
                    acc -= mj * x[j as usize];
                }
                x[re.t as usize] = acc;
            }
            // Dynamic U backward, from the tail of the order.
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
            return;
        }
        self.lu_solve_in_step_space(x);
        self.steps_to_positions(x);
        for eta in &self.etas {
            let t = x[eta.pos] / eta.dp;
            if t != 0.0 {
                for &(i, di) in &eta.d {
                    x[i as usize] -= di * t;
                }
            }
            x[eta.pos] = t;
        }
    }

    /// BTRAN: solves `Bᵀ y = c` where `c` is dense in basis-position
    /// space. Output `y` is dense in *original row* space.
    pub fn btran(&mut self, c: &[f64], y: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.m);
        self.counts.btran_solves += 1;
        self.counts.btran_nnz += self.m;
        y.clear();
        y.extend_from_slice(c);
        if self.ft.active {
            self.positions_to_steps(y);
            // Dynamic Uᵀ forward, from the head of the order (scatter
            // form).
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
            let m = self.m;
            self.work[..m].copy_from_slice(&y[..m]);
            for k in 0..m {
                y[self.rinv[k] as usize] = self.work[k];
            }
            for k in 0..m {
                self.work[k] = 0.0;
            }
            return;
        }
        // Eta transposes, newest first.
        for eta in self.etas.iter().rev() {
            let mut acc = y[eta.pos];
            for &(i, di) in &eta.d {
                acc -= di * y[i as usize];
            }
            y[eta.pos] = acc / eta.dp;
        }
        // Position -> step space: z[k] = y[cinv[k]].
        self.positions_to_steps(y);
        // U^T forward solve.
        for k in 0..self.m {
            let lo = self.u_start[k];
            let hi = self.u_start[k + 1];
            let mut acc = y[k];
            for t in lo..hi {
                acc -= self.u_vals[t] * y[self.u_steps[t] as usize];
            }
            y[k] = acc / self.u_diag[k];
        }
        // L^T backward solve.
        for k in (0..self.m).rev() {
            let lo = self.l_start[k];
            let hi = self.l_start[k + 1];
            let mut acc = y[k];
            for t in lo..hi {
                acc -= self.l_vals[t] * y[self.l_steps[t] as usize];
            }
            y[k] = acc;
        }
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

    /// Records the pivot `basis[pos] := entering`, given the entering
    /// column's FTRAN image `d` (position space, sparse).
    ///
    /// `d[pos]` must be the pivot element (caller guarantees it exceeds
    /// the pivot tolerance).
    pub fn push_eta(&mut self, pos: usize, d: &WorkVec, keep_tol: f64) {
        let dp = d.vals[pos];
        debug_assert!(dp != 0.0);
        let mut sparse = Vec::with_capacity(d.nnz());
        for &i in &d.pattern {
            let v = d.vals[i as usize];
            if i as usize != pos && v.abs() > keep_tol {
                sparse.push((i, v));
            }
        }
        self.counts.update_nnz += sparse.len() + 1;
        self.eta_nnz += sparse.len() + 1;
        self.etas.push(Eta { pos, d: sparse, dp });
    }

    /// Absorbs the pivot `basis[pos] := entering` using the configured
    /// update scheme; `d` is the entering column's FTRAN image (position
    /// space, sparse) with `d[pos]` the pivot element.
    ///
    /// Returns `false` when a Forrest–Tomlin update was declined by the
    /// stability monitor: the factorization then still represents the
    /// *old* basis and the caller must refactorize before the next solve.
    #[must_use]
    pub fn push_update(&mut self, pos: usize, d: &WorkVec, keep_tol: f64) -> bool {
        if self.ft.active {
            self.push_ft(pos, d, keep_tol)
        } else {
            self.push_eta(pos, d, keep_tol);
            true
        }
    }

    /// Forrest–Tomlin update: records the spike `s = U·d` as the new
    /// column at step `t` (the step pivoting basis position `pos`),
    /// eliminates row `t` against the trailing rows (one row eta), and
    /// rotates `t` to the last ordinal.
    fn push_ft(&mut self, pos: usize, d: &WorkVec, keep_tol: f64) -> bool {
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
        self.ft_solve_ut(&mut mvec);

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
        self.reach(&v.pattern, Graph::L);
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

    /// Symbolic reach + numeric backward solve with U (step space).
    fn solve_upper(&mut self, v: &mut WorkVec) {
        self.reach(&v.pattern, Graph::U);
        let mut order = std::mem::take(&mut self.reach_out);
        for idx in (0..order.len()).rev() {
            let k = order[idx] as usize;
            let x = v.vals[k] / self.u_diag[k];
            v.vals[k] = x;
            if x != 0.0 {
                for t in self.u_start[k]..self.u_start[k + 1] {
                    v.vals[self.u_steps[t] as usize] -= self.u_vals[t] * x;
                }
            }
        }
        std::mem::swap(&mut v.pattern, &mut order);
        self.reach_out = order;
    }

    /// Symbolic reach + numeric forward solve with Uᵀ (step space).
    /// Reach follows the transposed adjacency; the numeric pass gathers
    /// through U's own columns.
    fn solve_upper_t(&mut self, v: &mut WorkVec) {
        self.reach(&v.pattern, Graph::Ut);
        let mut order = std::mem::take(&mut self.reach_out);
        for idx in (0..order.len()).rev() {
            let k = order[idx] as usize;
            let mut acc = v.vals[k];
            for t in self.u_start[k]..self.u_start[k + 1] {
                acc -= self.u_vals[t] * v.vals[self.u_steps[t] as usize];
            }
            v.vals[k] = acc / self.u_diag[k];
        }
        std::mem::swap(&mut v.pattern, &mut order);
        self.reach_out = order;
    }

    /// Symbolic reach + numeric backward solve with Lᵀ (step space).
    fn solve_lower_t(&mut self, v: &mut WorkVec) {
        self.reach(&v.pattern, Graph::Lt);
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
    fn ft_apply_row_etas(&mut self, v: &mut WorkVec) {
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
    fn ft_apply_row_etas_t(&mut self, v: &mut WorkVec) {
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
    fn ft_solve_u(&mut self, v: &mut WorkVec) {
        self.ft_reach(&v.pattern, false);
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
    fn ft_solve_ut(&mut self, v: &mut WorkVec) {
        self.ft_reach(&v.pattern, true);
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

    /// DFS reach over the dynamic `U` adjacency (columns for FTRAN,
    /// rows for BTRAN), mirroring [`reach`](Factorization::reach).
    fn ft_reach(&mut self, seeds: &[u32], transposed: bool) {
        self.epoch += 1;
        let epoch = self.epoch;
        let adj = if transposed {
            &self.ft.urows
        } else {
            &self.ft.ucols
        };
        let stamp = &mut self.stamp;
        let stack = &mut self.dfs_stack;
        let out = &mut self.reach_out;
        out.clear();
        for &seed in seeds {
            if stamp[seed as usize] == epoch {
                continue;
            }
            stamp[seed as usize] = epoch;
            stack.push((seed, 0));
            while let Some(&(node, cursor)) = stack.last() {
                let list = &adj[node as usize];
                let mut c = cursor;
                let mut next_child = None;
                while c < list.len() {
                    let child = list[c].0;
                    c += 1;
                    if stamp[child as usize] != epoch {
                        next_child = Some(child);
                        break;
                    }
                }
                stack.last_mut().expect("non-empty").1 = c;
                match next_child {
                    Some(child) => {
                        stamp[child as usize] = epoch;
                        stack.push((child, 0));
                    }
                    None => {
                        stack.pop();
                        out.push(node);
                    }
                }
            }
        }
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

    /// DFS reach from `seeds` over one of the four triangular-solve
    /// dependency graphs. Leaves the closed pattern in `self.reach_out`
    /// in DFS postorder; reverse postorder is a topological order of the
    /// solve, so numeric passes can finalize each entry before it
    /// propagates.
    fn reach(&mut self, seeds: &[u32], graph: Graph) {
        self.epoch += 1;
        let epoch = self.epoch;
        let (start, idx): (&[usize], &[u32]) = match graph {
            Graph::L => (&self.l_start, &self.l_steps),
            Graph::U => (&self.u_start, &self.u_steps),
            Graph::Ut => (&self.ut_start, &self.ut_cols),
            Graph::Lt => (&self.lt_start, &self.lt_cols),
        };
        let stamp = &mut self.stamp;
        let stack = &mut self.dfs_stack;
        let out = &mut self.reach_out;
        out.clear();
        for &seed in seeds {
            if stamp[seed as usize] == epoch {
                continue;
            }
            stamp[seed as usize] = epoch;
            stack.push((seed, 0));
            while let Some(&(node, cursor)) = stack.last() {
                let lo = start[node as usize];
                let hi = start[node as usize + 1];
                let mut c = cursor;
                let mut next_child = None;
                while lo + c < hi {
                    let child = idx[lo + c];
                    c += 1;
                    if stamp[child as usize] != epoch {
                        next_child = Some(child);
                        break;
                    }
                }
                stack.last_mut().expect("non-empty").1 = c;
                match next_child {
                    Some(child) => {
                        stamp[child as usize] = epoch;
                        stack.push((child, 0));
                    }
                    None => {
                        stack.pop();
                        out.push(node);
                    }
                }
            }
        }
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

    /// Forward+backward dense LU solve with the vector in step space.
    fn lu_solve_in_step_space(&self, x: &mut [f64]) {
        // L forward.
        for k in 0..self.m {
            let v = x[k];
            if v != 0.0 {
                let lo = self.l_start[k];
                let hi = self.l_start[k + 1];
                for t in lo..hi {
                    x[self.l_steps[t] as usize] -= self.l_vals[t] * v;
                }
            }
        }
        // U backward.
        for k in (0..self.m).rev() {
            let v = x[k] / self.u_diag[k];
            x[k] = v;
            if v != 0.0 {
                let lo = self.u_start[k];
                let hi = self.u_start[k + 1];
                for t in lo..hi {
                    x[self.u_steps[t] as usize] -= self.u_vals[t] * v;
                }
            }
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

/// Which triangular-solve dependency graph a reach runs over.
#[derive(Clone, Copy)]
enum Graph {
    L,
    U,
    Ut,
    Lt,
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

    #[test]
    fn eta_update_matches_refactor() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let m = rng.gen_range(3..10);
            let ncols = m + 5;
            let mut rows = vec![vec![0.0; ncols]; m];
            for i in 0..m {
                for j in 0..ncols {
                    if rng.gen_bool(0.5) {
                        rows[i][j] = rng.gen_range(-2.0..2.0);
                    }
                }
                rows[i][i] += 4.0;
                rows[i][m + (i % 5).min(4)] += 1.0;
            }
            let a = csc_from_dense(&rows);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factorization::new(m);
            f.refactor(&a, &basis, 1e-10).unwrap();

            // Replace a couple of basis columns via eta updates.
            for _ in 0..2 {
                let entering = rng.gen_range(m..ncols);
                if basis.contains(&entering) {
                    continue;
                }
                let mut d = WorkVec::with_dim(m);
                f.ftran_col(&a, entering, &mut d);
                check_pattern(&d);
                // Pick the position with the largest |d| as the pivot.
                let (pos, dp) = d
                    .vals
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.abs().partial_cmp(&y.1.abs()).unwrap())
                    .map(|(i, &v)| (i, v))
                    .unwrap();
                if dp.abs() < 1e-6 {
                    continue;
                }
                f.push_eta(pos, &d, 1e-14);
                basis[pos] = entering;

                // Updated factorization must solve against the new basis.
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
                            "col {col}: {:?} vs {expect:?}",
                            bx
                        );
                    }
                }
                let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let mut y = Vec::new();
                f.btran(&c, &mut y);
                let bty = basis_matvec_t(&a, &basis, &y);
                for i in 0..m {
                    assert!((bty[i] - c[i]).abs() < 1e-7);
                }
                let mut r = WorkVec::with_dim(m);
                for pos in 0..m {
                    f.btran_unit(pos, &mut r);
                    check_pattern(&r);
                    let bty = basis_matvec_t(&a, &basis, &r.vals);
                    for (i, &bi) in bty.iter().enumerate() {
                        let want = if i == pos { 1.0 } else { 0.0 };
                        assert!((bi - want).abs() < 1e-7);
                    }
                }
            }
        }
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
        // Forrest–Tomlin twin of `eta_update_matches_refactor`: replace
        // at least m basis columns per trial through `push_update` under
        // the FT mode — steering pivots onto the head of the elimination
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
            f.set_mode(BasisUpdate::ForrestTomlin);
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
                fresh.set_mode(BasisUpdate::ForrestTomlin);
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
    fn ft_and_eta_solves_agree() {
        // Both update schemes applied to the same pivot sequence must
        // produce identical solves (they represent the same basis).
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..15 {
            let m = rng.gen_range(4..10);
            let ncols = m + 4;
            let mut rows = vec![vec![0.0; ncols]; m];
            for i in 0..m {
                for j in 0..ncols {
                    if rng.gen_bool(0.5) {
                        rows[i][j] = rng.gen_range(-2.0..2.0);
                    }
                }
                rows[i][i] += 4.0;
                rows[i][m + (i % 4).min(3)] += 1.0;
            }
            let a = csc_from_dense(&rows);
            let basis: Vec<usize> = (0..m).collect();
            let mut ft = Factorization::new(m);
            ft.set_mode(BasisUpdate::ForrestTomlin);
            ft.refactor(&a, &basis, 1e-10).unwrap();
            let mut eta = Factorization::new(m);
            eta.refactor(&a, &basis, 1e-10).unwrap();

            let mut live = basis.clone();
            for _ in 0..3 {
                let entering = rng.gen_range(m..ncols);
                if live.contains(&entering) {
                    continue;
                }
                let mut d_ft = WorkVec::with_dim(m);
                ft.ftran_col(&a, entering, &mut d_ft);
                let mut d_eta = WorkVec::with_dim(m);
                eta.ftran_col(&a, entering, &mut d_eta);
                for i in 0..m {
                    assert!(
                        (d_ft.vals[i] - d_eta.vals[i]).abs() < 1e-9,
                        "ftran diverged at {i}"
                    );
                }
                let (pos, dp) = d_ft
                    .vals
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.abs().partial_cmp(&y.1.abs()).unwrap())
                    .map(|(i, &v)| (i, v))
                    .unwrap();
                if dp.abs() < 1e-6 {
                    continue;
                }
                assert!(ft.push_update(pos, &d_ft, 1e-14));
                assert!(eta.push_update(pos, &d_eta, 1e-14));
                live[pos] = entering;

                let mut rf = WorkVec::with_dim(m);
                let mut re = WorkVec::with_dim(m);
                for p in 0..m {
                    ft.btran_unit(p, &mut rf);
                    eta.btran_unit(p, &mut re);
                    for i in 0..m {
                        assert!(
                            (rf.vals[i] - re.vals[i]).abs() < 1e-9,
                            "btran diverged at unit {p} entry {i}"
                        );
                    }
                }
            }
            assert!(ft.op_counts().ft_updates > 0 || eta.update_count() == 0);
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

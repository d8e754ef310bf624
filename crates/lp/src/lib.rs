//! A self-contained sparse linear-programming solver.
//!
//! The SPAA 2019 coflow paper solves its time-indexed relaxations with
//! Gurobi; this crate is the from-scratch substitute. It implements a
//! **bounded-variable two-phase revised simplex**:
//!
//! * columns stored sparsely (CSC + CSR mirrors) so the time-indexed
//!   coflow LPs — tall, very sparse matrices — stay cheap to price;
//! * variable bounds handled implicitly by the simplex (no explicit
//!   `x ≤ 1` rows), which keeps the basis an order of magnitude smaller
//!   for time-indexed formulations where *every* variable is bounded;
//! * sparse LU basis factorization (Gilbert–Peierls with Markowitz-style
//!   threshold pivoting) that writes `U` once, in the dynamic form the
//!   **Forrest–Tomlin** updates edit between periodic refactorizations,
//!   and **hyper-sparse** FTRAN/BTRAN that walk only the symbolic reach
//!   of each right-hand side;
//! * one-pass repair of singular bases: the factorization reports every
//!   dependent column at once, each is swapped for the slack of a row
//!   the elimination left unpivoted, and the result is factored once
//!   (all-slack as the last resort). [`SolveStats::refactor_repair`]
//!   counts these factorizations next to the interval, fill and
//!   stability causes;
//! * composite phase 1 (minimize total primal infeasibility) starting
//!   from an all-slack crash basis — coflow LPs start with only a few
//!   infeasible rows, so phase 1 is short. An **infeasibility list** of
//!   basis positions, updated from each pivot's FTRAN and flip patterns,
//!   lets the phase-1 and dual-simplex feasibility checks visit the few
//!   infeasible basics instead of all `m`;
//! * Devex pricing with incremental reduced costs in phase 2, and a
//!   Bland's-rule fallback that guarantees termination under degeneracy;
//! * a warm-start dual simplex with a bound-flipping ratio test and
//!   dual-Devex row pricing for incremental re-solves;
//! * geometric-mean equilibration scaling and a light presolve.
//!
//! Every solve runs inside one numerical-distress rescue ladder: a
//! retry that refactorizes after every pivot, then the dense tableau
//! simplex ([`dense`]), which is also the differential-testing oracle
//! of the randomized tests.
//!
//! # Example
//!
//! ```
//! use coflow_lp::{Model, Sense, Cmp};
//!
//! // maximize 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  (Dantzig's example)
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
//! m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
//! m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
//! m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - 36.0).abs() < 1e-7);
//! assert!((sol.value(x) - 2.0).abs() < 1e-7);
//! assert!((sol.value(y) - 6.0).abs() < 1e-7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Simplex kernels and factorizations walk several parallel arrays by one
// position; zip-rewrites of those loops obscure the linear algebra.
#![allow(clippy::needless_range_loop)]

pub mod dense;
mod error;
mod model;
mod presolve;
mod scaling;
mod simplex;
mod solution;
mod sparse;
mod standard;

pub use error::{DistressKind, LpError};
pub use model::{Cmp, ConstraintId, Model, Sense, VarId};
pub use presolve::{detect_slot_blocks, slot_block_crash, SlotBlocks};
pub use simplex::dual::{Basis, BasisStatus};
pub use simplex::{Pricing, SolverOptions};
pub use solution::{Solution, SolveStats, Status};
pub use sparse::{CscMatrix, CsrMatrix, WorkVec};

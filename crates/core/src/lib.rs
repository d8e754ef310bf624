//! Near-optimal coflow scheduling in networks — the core library.
//!
//! This crate reproduces the primary contribution of Chowdhury, Khuller,
//! Purohit, Yang & You, *Near Optimal Coflow Scheduling in Networks*
//! (SPAA 2019): time-indexed and geometric-interval LP relaxations for
//! coflow scheduling over general graphs, and the randomized **Stretch**
//! rounding that turns an LP solution into a feasible schedule with
//! expected weighted completion time at most twice the LP lower bound
//! (2-approximation; (2+ε) for super-polynomial horizons).
//!
//! # Pipeline
//!
//! ```text
//! CoflowInstance + Routing
//!        │  crate::timeidx (§3) or crate::interval (Appendix A)
//!        │  (cached per instance by crate::solve::SolveContext)
//!        ▼
//! LpRelaxation { objective = lower bound, plan: RatePlan }
//!        │  crate::stretch (§4.1, λ ~ 2v)  /  crate::heuristic (λ = 1)
//!        ▼
//! Schedule ──► crate::validate (feasibility referee)
//!        │  crate::compact (§6.1 idle-slot compaction)
//!        ▼
//! Completions { Σ w_j C_j }
//! ```
//!
//! Every algorithm — this pipeline in all its `Algorithm` ×
//! `Relaxation` combinations, and every baseline in `coflow-baselines`
//! — implements the [`solve::CoflowSolver`] trait and returns a
//! validated [`solve::SolveOutcome`]; the name→constructor registry
//! over all of them lives in `coflow-baselines::registry`. The
//! builder-style front end is [`solver::Scheduler`]; each stage is also
//! public for direct use.
//!
//! # Example
//!
//! ```
//! use coflow_core::model::{Coflow, CoflowInstance, Flow};
//! use coflow_core::routing::Routing;
//! use coflow_core::solver::{Algorithm, Scheduler};
//! use coflow_netgraph::topology;
//!
//! // Two coflows crossing the paper's Figure-2 network.
//! let topo = topology::fig2_example();
//! let g = topo.graph;
//! let s = g.node_by_label("s").unwrap();
//! let t = g.node_by_label("t").unwrap();
//! let inst = CoflowInstance::new(
//!     g,
//!     vec![Coflow::new(vec![Flow::new(s, t, 3.0)])],
//! ).unwrap();
//!
//! let report = Scheduler::new(Algorithm::LpHeuristic)
//!     .solve(&inst, &Routing::FreePath)
//!     .unwrap();
//! assert!(report.cost >= report.lower_bound - 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// LP builders index flow/path/variable tables in lockstep by position;
// zip-rewrites of those loops obscure the indexing structure.
#![allow(clippy::needless_range_loop)]

pub mod compact;
pub mod derand;
pub mod epoch;
mod error;
pub mod flowtime;
pub mod greedy;
pub mod heuristic;
pub mod horizon;
pub mod interval;
pub mod io;
pub mod loads;
pub mod model;
pub mod online;
pub mod rateplan;
pub mod resolver;
pub mod routing;
pub mod schedule;
pub mod sensitivity;
pub mod solve;
pub mod solver;
pub mod stretch;
pub mod timeidx;
pub mod validate;

pub use error::CoflowError;

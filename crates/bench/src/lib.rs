//! Experiment harnesses that regenerate every figure in the paper's
//! evaluation (§6, Figures 6–12), plus criterion micro-benchmarks for
//! the substrates.
//!
//! One binary per figure (`cargo run -p coflow-bench --release --bin
//! fig06_lambda_swan`, …). Each prints the same series the paper plots,
//! as an aligned text table, and writes a CSV under `target/figures/`.
//!
//! Default instance sizes are scaled down from the paper's 200 jobs so a
//! figure regenerates in minutes on a laptop with this repo's built-in
//! simplex (the paper used Gurobi on a dual-Xeon); pass `--jobs N` or
//! `--paper-scale` to go bigger. Shapes — who wins, by what factor —
//! are stable across scales; see `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod runner;
pub mod table;

pub use cli::HarnessConfig;
pub use runner::{FigureResult, SeriesValue};
pub use table::{print_figure, write_csv};

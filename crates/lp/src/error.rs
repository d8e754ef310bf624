//! Solver error taxonomy.

use std::fmt;

/// What kind of numerical distress a solve ran into. Distress is
/// distinct from [`LpError::NumericalFailure`]: it classifies the
/// *symptom* that tripped the guard, and is only surfaced once the
/// rescue ladder (conservative retry, then dense-oracle fallback) has
/// also been exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistressKind {
    /// The reported objective came back NaN or ±∞.
    NonFiniteObjective,
    /// A primal value in the solution vector came back NaN or ±∞.
    NonFinitePrimal,
    /// The basis factorization was singular and basis repair could not
    /// produce a usable replacement.
    SingularBasis,
    /// A Forrest–Tomlin basis update was rejected as unstable
    /// and the forced refactorization did not restore stability.
    UnstableUpdate,
}

impl DistressKind {
    /// Short lowercase label used in error messages and stats lines.
    pub fn label(self) -> &'static str {
        match self {
            DistressKind::NonFiniteObjective => "non-finite-objective",
            DistressKind::NonFinitePrimal => "non-finite-primal",
            DistressKind::SingularBasis => "singular-basis",
            DistressKind::UnstableUpdate => "unstable-update",
        }
    }
}

/// Errors returned by [`Model::solve`](crate::Model::solve).
#[derive(Clone, Debug, PartialEq)]
pub enum LpError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// Iteration limit reached before optimality was proven.
    IterationLimit {
        /// Iterations performed across both phases.
        iterations: usize,
    },
    /// The basis factorization became numerically singular and recovery
    /// (refactorization with a fresh crash basis) also failed.
    NumericalFailure(String),
    /// Numerical distress (non-finite solution values, singular or
    /// unstable factorizations) survived the full rescue ladder:
    /// conservative-option retry *and* the dense-oracle fallback both
    /// failed to produce a finite optimal point. This is a typed,
    /// non-panicking terminal outcome — service layers treat it like
    /// any other engine error and degrade.
    NumericalDistress {
        /// The symptom that tripped the guard.
        kind: DistressKind,
        /// Human-readable context (which stage detected it).
        detail: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            LpError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            LpError::NumericalDistress { kind, detail } => {
                write!(f, "numerical distress ({}): {detail}", kind.label())
            }
        }
    }
}

impl std::error::Error for LpError {}

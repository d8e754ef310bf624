//! The named algorithm registry: every scheduler in the suite — the
//! paper pipeline's `Algorithm` × `Relaxation` combinations and all
//! baselines — behind one `name → constructor` table.
//!
//! This is what makes algorithms pluggable: the figure harnesses declare
//! comparator series as registry names, and `coflow solve --algo NAME`
//! accepts any entry here. To add an algorithm:
//!
//! 1. implement [`coflow_core::solve::CoflowSolver`] for your
//!    scheduler (validate the schedule you return —
//!    `SolveOutcome::from_schedule` does it);
//! 2. append an [`AlgorithmEntry`] to [`ENTRIES`] with a unique name,
//!    description, and honest [`Capabilities`];
//! 3. done — `coflow algos` lists it, the cross-algorithm property test
//!    (`tests/registry_properties.rs`) starts covering it, and any
//!    figure can plot it by name.
//!
//! Construction is parameterized by [`AlgoParams`] (λ samples, seed,
//! interval ε, …) so harnesses can pin per-point settings without
//! per-algorithm plumbing; every field has the suite-wide default.
//!
//! # Example
//!
//! Dispatch by name, filtering on capability flags — the same loop the
//! figure harnesses and `coflow trace replay --model auto` run:
//!
//! ```
//! use coflow_baselines::registry::{self, AlgoParams, RoutingSupport};
//! use coflow_core::model::{Coflow, CoflowInstance, Flow};
//! use coflow_core::routing::Routing;
//! use coflow_core::solve::SolveContext;
//! use coflow_netgraph::topology;
//!
//! let topo = topology::fig2_example();
//! let g = topo.graph;
//! let (s, t) = (g.node_by_label("s").unwrap(), g.node_by_label("t").unwrap());
//! let inst = CoflowInstance::new(
//!     g,
//!     vec![Coflow::new(vec![Flow::new(s, t, 2.0)])],
//! )
//! .unwrap();
//!
//! // One shared context: every free-path entry reuses the same LPs.
//! let mut ctx = SolveContext::new();
//! for name in ["heuristic", "weighted-sjf", "terra"] {
//!     let entry = registry::by_name(name).expect("registered");
//!     assert_ne!(entry.caps.routing, RoutingSupport::SinglePathOnly);
//!     let out = entry
//!         .build(&AlgoParams::default())
//!         .solve(&inst, &Routing::FreePath, &mut ctx)
//!         .unwrap();
//!     // Free path splits the 2 units over the three disjoint unit
//!     // paths, so the coflow finishes in the first slot: cost 1.
//!     assert_eq!(out.cost, 1.0);
//! }
//! ```

use crate::jahanjou::JahanjouSolver;
use crate::ordering::{DcoflowVariant, OrderingSolver};
use crate::primal_dual::PrimalDualSolver;
use crate::sjf::SmithGreedySolver;
use crate::terra::TerraSolver;
use coflow_core::solve::{
    BatchOnlineSolver, CoflowSolver, DerandSolver, LpRoundingSolver, OnlineSolver,
};
use coflow_core::solver::{Algorithm, Relaxation};
use coflow_core::stretch::StretchOptions;

/// Which routing models an algorithm accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingSupport {
    /// Free path, single path, and multi path.
    Any,
    /// Fixed paths required (`Routing::SinglePath`).
    SinglePathOnly,
    /// Free path required (`Routing::FreePath`).
    FreePathOnly,
}

impl RoutingSupport {
    /// Short display label (`coflow algos`).
    pub fn label(self) -> &'static str {
        match self {
            RoutingSupport::Any => "any",
            RoutingSupport::SinglePathOnly => "single-path",
            RoutingSupport::FreePathOnly => "free-path",
        }
    }
}

/// Capability flags a harness can filter on before dispatching.
#[derive(Clone, Copy, Debug)]
pub struct Capabilities {
    /// Routing models the algorithm accepts.
    pub routing: RoutingSupport,
    /// Whether coflow weights influence the schedule (Terra and plain
    /// SJF ignore them — compare those on unweighted cost).
    pub weighted: bool,
    /// Whether an LP solver runs inside (LP-based algorithms report a
    /// lower bound in their outcome; Terra solves per-coflow LPs but no
    /// relaxation, so it is LP-based without a bound).
    pub lp_based: bool,
    /// No LP anywhere — always the complement of
    /// [`lp_based`](Capabilities::lp_based); kept as its own flag so
    /// harnesses (and the service fallback tier) can filter positively
    /// for the cheap entries.
    pub lp_free: bool,
    /// Whether [`coflow_core::model::Coflow::deadline`] influences the
    /// schedule (admission control / rejection). Deadline-oblivious
    /// entries still get deadline-miss stats in their outcome aux.
    pub deadline_aware: bool,
}

/// Broad family of an algorithm (`coflow algos` groups by this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoKind {
    /// LP relaxation + rounding (the paper pipeline and Jahanjou et al.).
    LpRounding,
    /// Combinatorial — no LP anywhere.
    LpFree,
    /// Many small LPs + a combinatorial sweep (Terra).
    Hybrid,
    /// Online frameworks (arrivals revealed at release time).
    Online,
}

impl AlgoKind {
    /// Short display label (`coflow algos`).
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::LpRounding => "lp-rounding",
            AlgoKind::LpFree => "lp-free",
            AlgoKind::Hybrid => "hybrid",
            AlgoKind::Online => "online",
        }
    }
}

/// Construction-time parameters; harnesses set what they sweep and leave
/// the rest at suite defaults.
#[derive(Clone, Copy, Debug)]
pub struct AlgoParams {
    /// Independent λ draws for sampled Stretch (paper §6.1: 20).
    pub samples: usize,
    /// RNG seed for sampled Stretch.
    pub seed: u64,
    /// The fixed stretch factor for `fixed-lambda`.
    pub lambda: f64,
    /// Geometric-interval ε for the `interval-*` entries.
    pub epsilon: f64,
    /// ε for Jahanjou et al.'s own interval LP — kept separate from
    /// [`epsilon`](AlgoParams::epsilon) because their defining choice is
    /// the ratio-optimizing 0.5436 while comparison harnesses typically
    /// sweep the pipeline's ε independently.
    pub jahanjou_epsilon: f64,
    /// α-point for Jahanjou et al.
    pub alpha: f64,
    /// Idle-slot compaction for the LP-rounding pipeline (§6.1).
    pub compact: bool,
    /// Disable warm-started re-solves in the online frameworks (the
    /// `--cold` escape hatch for A/B measurements; warm is the default).
    pub cold: bool,
}

impl Default for AlgoParams {
    fn default() -> Self {
        AlgoParams {
            samples: 20,
            seed: 1,
            lambda: 1.0,
            epsilon: 0.2,
            jahanjou_epsilon: crate::jahanjou::EPSILON_OPT,
            alpha: 0.5,
            compact: true,
            cold: false,
        }
    }
}

/// One registry row: identity, documentation, capabilities, constructor.
pub struct AlgorithmEntry {
    /// Unique registry name (`coflow solve --algo NAME`).
    pub name: &'static str,
    /// Algorithm family.
    pub kind: AlgoKind,
    /// One-line description (`coflow algos`).
    pub description: &'static str,
    /// What the algorithm supports.
    pub caps: Capabilities,
    build: fn(&AlgoParams) -> Box<dyn CoflowSolver>,
}

impl AlgorithmEntry {
    /// Constructs the solver with the given parameters.
    pub fn build(&self, params: &AlgoParams) -> Box<dyn CoflowSolver> {
        (self.build)(params)
    }
}

impl std::fmt::Debug for AlgorithmEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmEntry")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("caps", &self.caps)
            .finish_non_exhaustive()
    }
}

fn opts(p: &AlgoParams) -> StretchOptions {
    StretchOptions { compact: p.compact }
}

fn pipeline(relaxation: Relaxation, rounding: Algorithm, p: &AlgoParams) -> Box<dyn CoflowSolver> {
    Box::new(LpRoundingSolver {
        relaxation,
        rounding,
        options: opts(p),
    })
}

const LP_ANY: Capabilities = Capabilities {
    routing: RoutingSupport::Any,
    weighted: true,
    lp_based: true,
    lp_free: false,
    deadline_aware: false,
};

/// Every algorithm in the suite, in presentation order.
pub const ENTRIES: &[AlgorithmEntry] = &[
    AlgorithmEntry {
        name: "heuristic",
        kind: AlgoKind::LpRounding,
        description: "time-indexed LP + the λ=1 heuristic (§6.2) — best in practice",
        caps: LP_ANY,
        build: |p| pipeline(Relaxation::TimeIndexed, Algorithm::LpHeuristic, p),
    },
    AlgorithmEntry {
        name: "stretch",
        kind: AlgoKind::LpRounding,
        description: "time-indexed LP + Stretch with sampled λ (§4.1, 2-approximation)",
        caps: LP_ANY,
        build: |p| {
            pipeline(
                Relaxation::TimeIndexed,
                Algorithm::Stretch {
                    samples: p.samples,
                    seed: p.seed,
                },
                p,
            )
        },
    },
    AlgorithmEntry {
        name: "fixed-lambda",
        kind: AlgoKind::LpRounding,
        description: "time-indexed LP + Stretch at one fixed λ",
        caps: LP_ANY,
        build: |p| pipeline(Relaxation::TimeIndexed, Algorithm::FixedLambda(p.lambda), p),
    },
    AlgorithmEntry {
        name: "derand",
        kind: AlgoKind::LpRounding,
        description: "time-indexed LP + derandomized Stretch (exact best λ, pure stretch)",
        caps: LP_ANY,
        build: |_| Box::new(DerandSolver::default()),
    },
    AlgorithmEntry {
        name: "interval-derand",
        kind: AlgoKind::LpRounding,
        description: "geometric-interval LP (parameter ε) + derandomized Stretch",
        caps: LP_ANY,
        build: |p| {
            Box::new(DerandSolver {
                relaxation: Relaxation::Interval { epsilon: p.epsilon },
            })
        },
    },
    AlgorithmEntry {
        name: "interval-heuristic",
        kind: AlgoKind::LpRounding,
        description: "geometric-interval LP (Appendix A, parameter ε) + the λ=1 heuristic",
        caps: LP_ANY,
        build: |p| {
            pipeline(
                Relaxation::Interval { epsilon: p.epsilon },
                Algorithm::LpHeuristic,
                p,
            )
        },
    },
    AlgorithmEntry {
        name: "interval-stretch",
        kind: AlgoKind::LpRounding,
        description: "geometric-interval LP (parameter ε) + Stretch with sampled λ",
        caps: LP_ANY,
        build: |p| {
            pipeline(
                Relaxation::Interval { epsilon: p.epsilon },
                Algorithm::Stretch {
                    samples: p.samples,
                    seed: p.seed,
                },
                p,
            )
        },
    },
    AlgorithmEntry {
        name: "interval-fixed-lambda",
        kind: AlgoKind::LpRounding,
        description: "geometric-interval LP (parameter ε) + Stretch at one fixed λ",
        caps: LP_ANY,
        build: |p| {
            pipeline(
                Relaxation::Interval { epsilon: p.epsilon },
                Algorithm::FixedLambda(p.lambda),
                p,
            )
        },
    },
    AlgorithmEntry {
        name: "jahanjou",
        kind: AlgoKind::LpRounding,
        description:
            "Jahanjou et al. (SPAA 2017): interval LP at ε=0.5436 + strict α-point batches",
        caps: Capabilities {
            routing: RoutingSupport::SinglePathOnly,
            weighted: true,
            lp_based: true,
            lp_free: false,
            deadline_aware: false,
        },
        build: |p| {
            Box::new(JahanjouSolver {
                config: crate::jahanjou::JahanjouConfig {
                    epsilon: p.jahanjou_epsilon,
                    alpha: p.alpha,
                    ..Default::default()
                },
            })
        },
    },
    AlgorithmEntry {
        name: "jahanjou-wc",
        kind: AlgoKind::LpRounding,
        description: "Jahanjou et al. with work-conserving (non-barrier) α-point batches",
        caps: Capabilities {
            routing: RoutingSupport::SinglePathOnly,
            weighted: true,
            lp_based: true,
            lp_free: false,
            deadline_aware: false,
        },
        build: |p| {
            Box::new(JahanjouSolver {
                config: crate::jahanjou::JahanjouConfig {
                    epsilon: p.jahanjou_epsilon,
                    alpha: p.alpha,
                    mode: crate::jahanjou::BatchMode::WorkConserving,
                },
            })
        },
    },
    AlgorithmEntry {
        name: "terra",
        kind: AlgoKind::Hybrid,
        description: "Terra offline (You & Chowdhury): per-coflow CCT LPs + SRTF, unweighted",
        caps: Capabilities {
            routing: RoutingSupport::FreePathOnly,
            weighted: false,
            lp_based: true,
            lp_free: false,
            deadline_aware: false,
        },
        build: |_| Box::new(TerraSolver),
    },
    AlgorithmEntry {
        name: "primal-dual",
        kind: AlgoKind::LpFree,
        description: "Ahmadi et al. / Sincronia BSSI ordering on the edge-machine open shop",
        caps: Capabilities {
            routing: RoutingSupport::SinglePathOnly,
            weighted: true,
            lp_based: false,
            lp_free: true,
            deadline_aware: false,
        },
        build: |_| Box::new(PrimalDualSolver),
    },
    AlgorithmEntry {
        name: "sincronia",
        kind: AlgoKind::LpFree,
        description: "Sincronia BSSI on routing-agnostic port loads + greedy rate filling",
        caps: Capabilities {
            routing: RoutingSupport::Any,
            weighted: true,
            lp_based: false,
            lp_free: true,
            deadline_aware: false,
        },
        build: |_| Box::new(OrderingSolver::sincronia()),
    },
    AlgorithmEntry {
        name: "dcoflow-min-link",
        kind: AlgoKind::LpFree,
        description: "DCoflow (Luu et al.): deadline admission, min-link victim rule",
        caps: Capabilities {
            routing: RoutingSupport::Any,
            weighted: false,
            lp_based: false,
            lp_free: true,
            deadline_aware: true,
        },
        build: |_| Box::new(OrderingSolver::dcoflow(DcoflowVariant::MinLink)),
    },
    AlgorithmEntry {
        name: "dcoflow-min-sum-neg",
        kind: AlgoKind::LpFree,
        description: "DCoflow: deadline admission, min-sum-negative-slack victim rule",
        caps: Capabilities {
            routing: RoutingSupport::Any,
            weighted: false,
            lp_based: false,
            lp_free: true,
            deadline_aware: true,
        },
        build: |_| Box::new(OrderingSolver::dcoflow(DcoflowVariant::MinSumNegative)),
    },
    AlgorithmEntry {
        name: "sjf",
        kind: AlgoKind::LpFree,
        description: "shortest-job-first greedy (RAPIER-style), total demand ascending",
        caps: Capabilities {
            routing: RoutingSupport::Any,
            weighted: false,
            lp_based: false,
            lp_free: true,
            deadline_aware: false,
        },
        build: |_| Box::new(SmithGreedySolver { weighted: false }),
    },
    AlgorithmEntry {
        name: "weighted-sjf",
        kind: AlgoKind::LpFree,
        description: "weighted SJF: Smith-ratio (weight/demand) greedy ordering",
        caps: Capabilities {
            routing: RoutingSupport::Any,
            weighted: true,
            lp_based: false,
            lp_free: true,
            deadline_aware: false,
        },
        build: |_| Box::new(SmithGreedySolver { weighted: true }),
    },
    AlgorithmEntry {
        name: "online",
        kind: AlgoKind::Online,
        description: "event-driven online re-solver: fresh LP + λ=1 rounding at each arrival",
        caps: LP_ANY,
        build: |p| Box::new(OnlineSolver { cold: p.cold }),
    },
    AlgorithmEntry {
        name: "batch-online",
        kind: AlgoKind::Online,
        description: "doubling-batch online framework: offline solves at boundaries 1, 2, 4, …",
        caps: LP_ANY,
        build: |p| Box::new(BatchOnlineSolver { cold: p.cold }),
    },
];

/// All registered algorithms, in presentation order.
pub fn all() -> &'static [AlgorithmEntry] {
    ENTRIES
}

/// Looks up one algorithm by its registry name.
pub fn by_name(name: &str) -> Option<&'static AlgorithmEntry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Convenience: look up and construct in one step.
pub fn build(name: &str, params: &AlgoParams) -> Option<Box<dyn CoflowSolver>> {
    by_name(name).map(|e| e.build(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_works() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len(), "duplicate registry names");
        for e in all() {
            assert!(by_name(e.name).is_some(), "{} not found", e.name);
            assert!(!e.description.is_empty());
        }
        assert!(by_name("no-such-algorithm").is_none());
    }

    #[test]
    fn sjf_flavours_share_one_implementation() {
        // Both names must construct (the dedup satellite: one
        // parameterized solver registered twice).
        let p = AlgoParams::default();
        assert!(build("sjf", &p).is_some());
        assert!(build("weighted-sjf", &p).is_some());
        assert!(!by_name("sjf").unwrap().caps.weighted);
        assert!(by_name("weighted-sjf").unwrap().caps.weighted);
    }

    #[test]
    fn params_reach_the_constructed_solvers() {
        use coflow_core::model::{Coflow, Flow};
        use coflow_core::routing::Routing;
        use coflow_core::solve::SolveContext;
        use coflow_netgraph::topology;

        let topo = topology::line(2, 1.0);
        let g = topo.graph;
        let v0 = g.node_by_label("v0").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let inst = coflow_core::model::CoflowInstance::new(
            g,
            vec![
                Coflow::new(vec![Flow::new(v0, v1, 2.0)]),
                Coflow::new(vec![Flow::new(v0, v1, 1.0)]),
            ],
        )
        .unwrap();
        let p = AlgoParams {
            samples: 3,
            ..Default::default()
        };
        let mut ctx = SolveContext::new();
        let out = build("stretch", &p)
            .unwrap()
            .solve(&inst, &Routing::FreePath, &mut ctx)
            .unwrap();
        assert_eq!(out.sweep.expect("stretch sweeps").samples.len(), 3);
    }
}

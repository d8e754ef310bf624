//! Experiment orchestration: one *scenario-sweep spec* per figure
//! family, executed by the work-stealing [`Runtime`].
//!
//! Each figure is described as a [`FigureSpec`]: static metadata (title,
//! legend) plus a list of independent [`PointSpec`]s — one per row
//! (workload, ε value, slot length, …). [`compute_figures`] flattens
//! every point of every spec into one batch and runs them concurrently;
//! a point's RNG is seeded from `(base seed, figure stem, point index)`
//! via [`point_seed`], never from execution order, so sweeps are
//! deterministic for a given `--seed` no matter how many workers run
//! them (byte-identical CSVs, run to run).
//!
//! Comparator series are declared as **registry names** plus a
//! [`Metric`] read off the resulting [`SolveOutcome`] — no per-figure
//! dispatch or validation code. [`run_series`] runs each distinct
//! algorithm once through one shared [`SolveContext`], so a point that
//! plots five algorithms solves each LP relaxation once.
//!
//! The `run_*` functions are thin wrappers computing a single figure;
//! `all_figures` passes every spec to one [`compute_figures`] call so
//! the pool can interleave points across figures.

use crate::cli::HarnessConfig;
use coflow_baselines::registry::{self, AlgoParams};
use coflow_core::horizon::HorizonMode;
use coflow_core::model::CoflowInstance;
use coflow_core::routing::{self, Routing};
use coflow_core::solve::{SolveContext, SolveOutcome};
use coflow_netgraph::topology::Topology;
use coflow_runtime::Runtime;
use coflow_workloads::scenarios::{build_scenario_instance, Scenario, ScenarioConfig};
use coflow_workloads::trace::{ReplayOptions, Trace, FB2010_SAMPLE};
use coflow_workloads::{build_instance, WorkloadConfig, WorkloadKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One series value (NaN renders as "-").
pub type SeriesValue = f64;

/// Performance counters of one scenario point: wall-clock (filled in by
/// [`compute_figures`] around the point's closure) plus the LP effort
/// its solves reported. Kept out of the CSVs — figure values stay
/// deterministic across runs and worker counts — and consumed by the
/// `perf_report` harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointStats {
    /// Wall-clock milliseconds the point took (measurement, not data —
    /// varies run to run).
    pub wall_ms: f64,
    /// Total simplex iterations across every LP the point solved (only
    /// solves that report iterations; LP-free algorithms contribute 0).
    pub lp_iterations: u64,
    /// LP re-solves/batches the online frameworks performed.
    pub resolves: u64,
    /// Infeasible answers of the online frameworks' resolvers that the
    /// load certificate gave without an LP solve.
    pub certified_infeasible: u64,
    /// Infeasible answers that took an LP solve.
    pub solved_infeasible: u64,
}

/// One row of a figure (a workload, or an ε value for Figure 8).
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Row label.
    pub label: String,
    /// One value per series, aligned with `FigureResult::series_names`.
    pub values: Vec<SeriesValue>,
}

/// A fully-computed figure.
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Figure title (matches the paper's caption).
    pub title: String,
    /// Free-form notes (instance sizes etc.).
    pub notes: String,
    /// Legend entries, matching the paper's series names.
    pub series_names: Vec<String>,
    /// Rows in presentation order.
    pub rows: Vec<FigureRow>,
    /// Per-row performance counters, aligned with `rows`. Not written
    /// to the CSVs (wall-clock is non-deterministic); `perf_report`
    /// reads them.
    pub stats: Vec<PointStats>,
}

/// What one scenario point produces: its series values, plus an
/// optional sentence appended to the figure's notes (in point order).
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// One value per series.
    pub values: Vec<SeriesValue>,
    /// Extra note text (e.g. online re-solve counts).
    pub note: Option<String>,
    /// Performance counters (wall-clock is overwritten by
    /// [`compute_figures`]).
    pub stats: PointStats,
}

impl From<Vec<SeriesValue>> for PointOutcome {
    fn from(values: Vec<SeriesValue>) -> Self {
        PointOutcome {
            values,
            note: None,
            stats: PointStats::default(),
        }
    }
}

/// Wraps series values into a [`PointOutcome`] whose stats aggregate
/// the LP effort of the solves behind them.
pub fn point_outcome(
    values: Vec<SeriesValue>,
    outcomes: &[(&'static str, SolveOutcome)],
) -> PointOutcome {
    PointOutcome {
        values,
        note: None,
        stats: stats_of(outcomes),
    }
}

/// Sums LP iterations and online solve counts over a point's outcomes.
pub fn stats_of(outcomes: &[(&'static str, SolveOutcome)]) -> PointStats {
    let mut stats = PointStats::default();
    for (_, out) in outcomes {
        let aux = |key: &str| out.aux(key).unwrap_or(0.0) as u64;
        stats.lp_iterations += out.lp_iterations.unwrap_or(0) as u64;
        stats.resolves += aux("resolves") + aux("batches");
        stats.certified_infeasible += aux("certified_infeasible");
        stats.solved_infeasible += aux("solved_infeasible");
    }
    stats
}

/// A point's computation: pure function of its captured scenario inputs
/// and the per-point seeded RNG it receives.
pub type PointFn<'a> = Box<dyn Fn(&mut StdRng) -> PointOutcome + Send + Sync + 'a>;

/// One independently-computable row of a figure.
pub struct PointSpec<'a> {
    /// Row label (workload name, ε value, …).
    pub label: String,
    /// RNG seed for this point (derive with [`point_seed`]).
    pub seed: u64,
    /// The computation.
    pub compute: PointFn<'a>,
}

/// A figure, described but not yet computed.
pub struct FigureSpec<'a> {
    /// CSV file stem (`fig06_lambda_swan`, …).
    pub stem: &'static str,
    /// Figure title (matches the paper's caption).
    pub title: String,
    /// Free-form notes (instance sizes etc.).
    pub notes: String,
    /// Legend entries.
    pub series_names: Vec<String>,
    /// Rows in presentation order.
    pub points: Vec<PointSpec<'a>>,
}

/// Derives a point's RNG seed from the harness base seed, the figure
/// stem, and the point's index — *not* from scheduling, so parallel
/// sweeps stay deterministic (FNV-1a over the stem, mixed with index
/// and base).
pub fn point_seed(base: u64, stem: &str, index: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stem.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^= index as u64;
    h = h.wrapping_mul(0x1000_0000_01b3);
    h ^ base.rotate_left(17)
}

/// Runs every point of every spec through `pool` as one flattened batch
/// and reassembles the figures in spec order.
pub fn compute_figures<'a>(
    specs: Vec<FigureSpec<'a>>,
    pool: &Runtime,
) -> Vec<(&'static str, FigureResult)> {
    let tasks: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(fi, s)| (0..s.points.len()).map(move |pi| (fi, pi)))
        .collect();
    let outcomes: Vec<PointOutcome> = pool.run(&tasks, |_, &(fi, pi)| {
        let point = &specs[fi].points[pi];
        let mut rng = StdRng::seed_from_u64(point.seed);
        let t0 = std::time::Instant::now();
        let mut out = (point.compute)(&mut rng);
        out.stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        out
    });

    // Tasks were flattened in (figure, point) order, so grouping back by
    // figure preserves each figure's row order.
    let mut per_fig: Vec<Vec<PointOutcome>> = specs.iter().map(|_| Vec::new()).collect();
    for (&(fi, _), out) in tasks.iter().zip(outcomes) {
        per_fig[fi].push(out);
    }
    specs
        .into_iter()
        .zip(per_fig)
        .map(|(spec, outs)| {
            let rows = spec
                .points
                .iter()
                .zip(&outs)
                .map(|(p, o)| FigureRow {
                    label: p.label.clone(),
                    values: o.values.clone(),
                })
                .collect();
            let mut notes = spec.notes;
            for o in &outs {
                if let Some(n) = &o.note {
                    notes.push(' ');
                    notes.push_str(n);
                }
            }
            let stats = outs.iter().map(|o| o.stats).collect();
            (
                spec.stem,
                FigureResult {
                    title: spec.title,
                    notes,
                    series_names: spec.series_names,
                    rows,
                    stats,
                },
            )
        })
        .collect()
}

fn single_figure(spec: FigureSpec<'_>) -> FigureResult {
    compute_figures(vec![spec], &Runtime::new())
        .pop()
        .expect("one spec in, one figure out")
        .1
}

const HORIZON: HorizonMode = HorizonMode::Greedy { margin: 1.25 };

// ---------------------------------------------------------------------
// Registry-driven comparator series
// ---------------------------------------------------------------------

/// What a series reads off a [`SolveOutcome`].
#[derive(Clone, Copy, Debug)]
pub enum Metric {
    /// The algorithm's own LP lower bound.
    LowerBound,
    /// Weighted completion time of the schedule.
    Cost,
    /// Unweighted total completion time.
    UnweightedCost,
    /// Best weighted cost over the λ sweep ("Best λ").
    SweepBest,
    /// Mean weighted cost over the λ sweep ("Average λ").
    SweepAverage,
    /// Best unweighted cost over the λ sweep.
    SweepBestUnweighted,
    /// Mean unweighted cost over the λ sweep.
    SweepAverageUnweighted,
    /// Constraint rows of the LP the algorithm solved.
    LpRows,
    /// Variables of the LP the algorithm solved.
    LpCols,
    /// Simplex iterations of the LP solve.
    LpIterations,
    /// An algorithm-specific extra, by key (e.g. derand's `best_cost`).
    Aux(&'static str),
}

/// One comparator series: a registry name, the metric to read off its
/// outcome, and an optional scale (slot-length rescaling).
#[derive(Clone, Copy, Debug)]
pub struct SeriesDef {
    /// Legend entry (matches the paper's series names).
    pub label: &'static str,
    /// Registry name of the algorithm producing this series.
    pub algo: &'static str,
    /// What to read off the outcome.
    pub metric: Metric,
    /// Multiplier applied to the extracted value (default 1.0).
    pub scale: f64,
}

impl SeriesDef {
    /// A series with no rescaling.
    pub const fn new(label: &'static str, algo: &'static str, metric: Metric) -> SeriesDef {
        SeriesDef {
            label,
            algo,
            metric,
            scale: 1.0,
        }
    }
}

/// Reads one metric off an outcome; panics (figure points are
/// infallible by contract) when the algorithm cannot produce it.
pub fn extract(out: &SolveOutcome, s: &SeriesDef) -> SeriesValue {
    let sweep = |what: &str| {
        out.sweep
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no λ sweep for {what}", s.algo))
    };
    let value = match s.metric {
        Metric::LowerBound => out
            .lower_bound
            .unwrap_or_else(|| panic!("{}: no LP lower bound", s.algo)),
        Metric::Cost => out.cost,
        Metric::UnweightedCost => out.unweighted_cost,
        Metric::SweepBest => sweep("best").best().weighted_cost,
        Metric::SweepAverage => sweep("average").average(),
        Metric::SweepBestUnweighted => sweep("best")
            .samples
            .iter()
            .map(|x| x.unweighted_cost)
            .fold(f64::INFINITY, f64::min),
        Metric::SweepAverageUnweighted => sweep("average").average_unweighted(),
        Metric::LpRows => {
            out.lp_size
                .unwrap_or_else(|| panic!("{}: no LP", s.algo))
                .rows as f64
        }
        Metric::LpCols => {
            out.lp_size
                .unwrap_or_else(|| panic!("{}: no LP", s.algo))
                .cols as f64
        }
        Metric::LpIterations => out
            .lp_iterations
            .unwrap_or_else(|| panic!("{}: no LP", s.algo)) as f64,
        Metric::Aux(key) => out
            .aux(key)
            .unwrap_or_else(|| panic!("{}: no aux value {key:?}", s.algo)),
    };
    s.scale * value
}

/// Runs every *distinct* algorithm referenced by `series` once, through
/// the given shared context (LP relaxations and the horizon are solved
/// once per point, not once per series), then reads the series values
/// off the outcomes. Also returns the outcomes so callers can build
/// notes from algorithm extras.
pub fn run_series_with(
    inst: &CoflowInstance,
    routing: &Routing,
    series: &[SeriesDef],
    params: &AlgoParams,
    ctx: &mut SolveContext,
) -> (Vec<SeriesValue>, Vec<(&'static str, SolveOutcome)>) {
    let mut outcomes: Vec<(&'static str, SolveOutcome)> = Vec::new();
    for s in series {
        if outcomes.iter().any(|(n, _)| *n == s.algo) {
            continue;
        }
        let solver = registry::build(s.algo, params)
            .unwrap_or_else(|| panic!("algorithm {:?} is not registered", s.algo));
        let out = solver
            .solve(inst, routing, ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", s.algo));
        outcomes.push((s.algo, out));
    }
    let values = series
        .iter()
        .map(|s| {
            let (_, out) = outcomes
                .iter()
                .find(|(n, _)| *n == s.algo)
                .expect("ran above");
            extract(out, s)
        })
        .collect();
    (values, outcomes)
}

/// [`run_series_with`] under a fresh default context (greedy horizon,
/// margin 1.25 — the harness-wide setting).
pub fn run_series(
    inst: &CoflowInstance,
    routing: &Routing,
    series: &[SeriesDef],
    params: &AlgoParams,
) -> (Vec<SeriesValue>, Vec<(&'static str, SolveOutcome)>) {
    let mut ctx = SolveContext::new().with_horizon_mode(HORIZON);
    run_series_with(inst, routing, series, params, &mut ctx)
}

fn labels(series: &[SeriesDef]) -> Vec<String> {
    series.iter().map(|s| s.label.to_string()).collect()
}

fn workload_cfg(kind: WorkloadKind, cfg: &HarnessConfig, weighted: bool) -> WorkloadConfig {
    WorkloadConfig {
        kind,
        num_jobs: cfg.jobs,
        seed: cfg.seed,
        slot_seconds: 50.0,
        mean_interarrival_slots: cfg.mean_interarrival,
        weighted,
        demand_scale: 1.0,
    }
}

fn instance_for(
    topo: &Topology,
    kind: WorkloadKind,
    cfg: &HarnessConfig,
    weighted: bool,
) -> CoflowInstance {
    build_instance(topo, &workload_cfg(kind, cfg, weighted))
        .expect("workload placement on a WAN topology always validates")
}

/// How a workload-sweep figure routes its flows.
#[derive(Clone, Copy, Debug)]
enum FigureRouting {
    /// Free-path model.
    Free,
    /// Random shortest paths drawn from the point's seeded RNG.
    RandomShortest,
}

/// Shared shape of the workload-sweep figures (6, 7, 9–12, ordering
/// ablation): one point per [`WorkloadKind`], comparator series by
/// registry name.
fn workload_sweep_points<'a>(
    stem: &'static str,
    topo: &'a Topology,
    cfg: &'a HarnessConfig,
    weighted: bool,
    fig_routing: FigureRouting,
    series: &'static [SeriesDef],
    tag: &'static str,
) -> Vec<PointSpec<'a>> {
    WorkloadKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| PointSpec {
            label: kind.name().to_string(),
            seed: point_seed(cfg.seed, stem, i),
            compute: Box::new(move |rng: &mut StdRng| {
                if cfg.verbose {
                    eprintln!("[{tag}] {} …", kind.name());
                }
                let inst = instance_for(topo, kind, cfg, weighted);
                let r = match fig_routing {
                    FigureRouting::Free => Routing::FreePath,
                    FigureRouting::RandomShortest => {
                        routing::random_shortest_paths(&inst, rng).expect("paths exist")
                    }
                };
                let params = AlgoParams {
                    samples: cfg.samples,
                    seed: cfg.seed,
                    ..Default::default()
                };
                let (values, outcomes) = run_series(&inst, &r, series, &params);
                point_outcome(values, &outcomes)
            }),
        })
        .collect()
}

/// Figures 6 and 7: free-path model, weighted. Series: LP lower bound,
/// Heuristic(λ=1.0), Best λ, Average λ.
pub fn lambda_figure_spec<'a>(
    topo: &'a Topology,
    cfg: &'a HarnessConfig,
    fig_no: u8,
) -> FigureSpec<'a> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new("LP(lower bound)", "heuristic", Metric::LowerBound),
        SeriesDef::new("Heuristic(λ=1.0)", "heuristic", Metric::Cost),
        SeriesDef::new("Best λ", "stretch", Metric::SweepBest),
        SeriesDef::new("Average λ", "stretch", Metric::SweepAverage),
    ];
    let (stem, tag): (&'static str, &'static str) = match fig_no {
        6 => ("fig06_lambda_swan", "fig6"),
        7 => ("fig07_lambda_gscale", "fig7"),
        other => unreachable!("lambda figures are 6 and 7, not {other}"),
    };
    FigureSpec {
        stem,
        title: format!(
            "Figure {fig_no}: Free path model on {} — weighted completion time (less is better)",
            topo.name
        ),
        notes: format!(
            "{} jobs/workload, seed {}, {} lambda samples, 50 s slots",
            cfg.jobs, cfg.seed, cfg.samples
        ),
        series_names: labels(SERIES),
        points: workload_sweep_points(stem, topo, cfg, true, FigureRouting::Free, SERIES, tag),
    }
}

/// See [`lambda_figure_spec`].
pub fn run_lambda_figure(topo: &Topology, cfg: &HarnessConfig, fig_no: u8) -> FigureResult {
    single_figure(lambda_figure_spec(topo, cfg, fig_no))
}

/// Figure 8: effect of the interval parameter ε (free path, FB on SWAN).
/// Series: interval LP lower bound and its λ=1 heuristic, per ε.
pub fn epsilon_figure_spec<'a>(topo: &'a Topology, cfg: &'a HarnessConfig) -> FigureSpec<'a> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new(
            "Time interval LP(lower bound)",
            "interval-heuristic",
            Metric::LowerBound,
        ),
        SeriesDef::new("heuristic(λ=1.0)", "interval-heuristic", Metric::Cost),
    ];
    let stem = "fig08_epsilon";
    // All ε points share one instance and horizon; compute them once here
    // and hand the points an `Arc` so the sweep only pays the LP solves.
    let inst = Arc::new(instance_for(topo, WorkloadKind::Facebook, cfg, true));
    let t = coflow_core::horizon::horizon(&inst, &Routing::FreePath, HORIZON).expect("horizon");
    let points = (1..=10)
        .map(|k| {
            let epsilon = k as f64 / 10.0;
            let inst = Arc::clone(&inst);
            PointSpec {
                label: format!("ε={epsilon:.1}"),
                seed: point_seed(cfg.seed, stem, k),
                compute: Box::new(move |_rng: &mut StdRng| {
                    if cfg.verbose {
                        eprintln!("[fig8] ε = {epsilon} …");
                    }
                    let params = AlgoParams {
                        epsilon,
                        ..Default::default()
                    };
                    let mut ctx = SolveContext::new().with_horizon_mode(HorizonMode::Fixed(t));
                    let (values, outcomes) =
                        run_series_with(&inst, &Routing::FreePath, SERIES, &params, &mut ctx);
                    point_outcome(values, &outcomes)
                }),
            }
        })
        .collect();
    FigureSpec {
        stem,
        title: format!(
            "Figure 8: Free path model on {} (workload FB) — interval parameter ε sweep",
            topo.name
        ),
        notes: format!("{} jobs, seed {}, 50 s slots", cfg.jobs, cfg.seed),
        series_names: labels(SERIES),
        points,
    }
}

/// See [`epsilon_figure_spec`].
pub fn run_epsilon_figure(topo: &Topology, cfg: &HarnessConfig) -> FigureResult {
    single_figure(epsilon_figure_spec(topo, cfg))
}

/// Figures 9 and 10: single-path model with random shortest paths.
/// Series: time-indexed LP + heuristic, interval LP (ε=0.2) + heuristic,
/// Jahanjou et al. (ε=0.5436, strict α-point batches).
pub fn single_path_figure_spec<'a>(
    topo: &'a Topology,
    cfg: &'a HarnessConfig,
    fig_no: u8,
) -> FigureSpec<'a> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new(
            "Time indexed LP(lower bound)",
            "heuristic",
            Metric::LowerBound,
        ),
        SeriesDef::new("heuristic(λ=1.0)", "heuristic", Metric::Cost),
        SeriesDef::new(
            "Time interval LP(lower bound, ε=0.2)",
            "interval-heuristic",
            Metric::LowerBound,
        ),
        SeriesDef::new(
            "interval heuristic(λ=1.0)",
            "interval-heuristic",
            Metric::Cost,
        ),
        SeriesDef::new("Jahanjou et al.", "jahanjou", Metric::Cost),
    ];
    let (stem, tag): (&'static str, &'static str) = match fig_no {
        9 => ("fig09_single_swan", "fig9"),
        10 => ("fig10_single_gscale", "fig10"),
        other => unreachable!("single-path figures are 9 and 10, not {other}"),
    };
    FigureSpec {
        stem,
        title: format!(
            "Figure {fig_no}: Single path model on {} — weighted completion time (less is better)",
            topo.name
        ),
        notes: format!(
            "{} jobs/workload, seed {}, random shortest paths, 50 s slots",
            cfg.jobs, cfg.seed
        ),
        series_names: labels(SERIES),
        points: workload_sweep_points(
            stem,
            topo,
            cfg,
            true,
            FigureRouting::RandomShortest,
            SERIES,
            tag,
        ),
    }
}

/// See [`single_path_figure_spec`].
pub fn run_single_path_figure(topo: &Topology, cfg: &HarnessConfig, fig_no: u8) -> FigureResult {
    single_figure(single_path_figure_spec(topo, cfg, fig_no))
}

/// Figures 11 and 12: free-path model, unweighted (all weights 1), with
/// Terra. Values are *total* completion times.
pub fn free_unweighted_figure_spec<'a>(
    topo: &'a Topology,
    cfg: &'a HarnessConfig,
    fig_no: u8,
) -> FigureSpec<'a> {
    // Weights are all 1, so the heuristic's LP bound is the total-CCT
    // bound and every series reads the unweighted cost.
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new(
            "Time indexed LP(lower bound)",
            "heuristic",
            Metric::LowerBound,
        ),
        SeriesDef::new("heuristic(λ=1.0)", "heuristic", Metric::UnweightedCost),
        SeriesDef::new("Best λ", "stretch", Metric::SweepBestUnweighted),
        SeriesDef::new("Average λ", "stretch", Metric::SweepAverageUnweighted),
        SeriesDef::new("Terra", "terra", Metric::UnweightedCost),
    ];
    let (stem, tag): (&'static str, &'static str) = match fig_no {
        11 => ("fig11_free_unweighted_swan", "fig11"),
        12 => ("fig12_free_unweighted_gscale", "fig12"),
        other => unreachable!("free-unweighted figures are 11 and 12, not {other}"),
    };
    FigureSpec {
        stem,
        title: format!(
            "Figure {fig_no}: Free path model with no weight on {} — total completion time (less is better)",
            topo.name
        ),
        notes: format!(
            "{} jobs/workload, seed {}, {} lambda samples, unit weights",
            cfg.jobs, cfg.seed, cfg.samples
        ),
        series_names: labels(SERIES),
        points: workload_sweep_points(stem, topo, cfg, false, FigureRouting::Free, SERIES, tag),
    }
}

/// See [`free_unweighted_figure_spec`].
pub fn run_free_unweighted_figure(
    topo: &Topology,
    cfg: &HarnessConfig,
    fig_no: u8,
) -> FigureResult {
    single_figure(free_unweighted_figure_spec(topo, cfg, fig_no))
}

/// Slot-length ablation: §6.1 "Time Index" — "if the length of a time
/// slot is shorter, we get more accurate answers, but need to solve a
/// larger LP". Rows are slot lengths in seconds; series report the LP
/// size, the bound, and the heuristic cost (all costs rescaled to
/// 50-second-slot units so rows are comparable).
pub fn slot_length_ablation_spec<'a>(topo: &'a Topology, cfg: &'a HarnessConfig) -> FigureSpec<'a> {
    let stem = "ablation_slotlen";
    let points = [200.0, 100.0, 50.0, 25.0]
        .into_iter()
        .enumerate()
        .map(|(i, slot_seconds): (usize, f64)| PointSpec {
            label: format!("{slot_seconds:.0} s"),
            seed: point_seed(cfg.seed, stem, i),
            compute: Box::new(move |_rng: &mut StdRng| {
                if cfg.verbose {
                    eprintln!("[slotlen] {slot_seconds} s …");
                }
                let wl = WorkloadConfig {
                    kind: WorkloadKind::Facebook,
                    num_jobs: cfg.jobs,
                    seed: cfg.seed,
                    slot_seconds,
                    // Keep *wall-clock* arrivals fixed: the mean interarrival in
                    // slots scales inversely with the slot length.
                    mean_interarrival_slots: cfg.mean_interarrival * 50.0 / slot_seconds,
                    weighted: true,
                    demand_scale: 1.0,
                };
                let inst = build_instance(topo, &wl).expect("workload placement validates");
                // Rescale slot-unit costs to the common 50 s yardstick.
                let to_50s = slot_seconds / 50.0;
                let series = [
                    SeriesDef {
                        scale: to_50s,
                        ..SeriesDef::new(
                            "LP(lower bound, 50s units)",
                            "heuristic",
                            Metric::LowerBound,
                        )
                    },
                    SeriesDef {
                        scale: to_50s,
                        ..SeriesDef::new("heuristic(λ=1.0, 50s units)", "heuristic", Metric::Cost)
                    },
                    SeriesDef::new("LP rows", "heuristic", Metric::LpRows),
                    SeriesDef::new("LP cols", "heuristic", Metric::LpCols),
                    SeriesDef::new("simplex iterations", "heuristic", Metric::LpIterations),
                ];
                let (values, outcomes) =
                    run_series(&inst, &Routing::FreePath, &series, &AlgoParams::default());
                point_outcome(values, &outcomes)
            }),
        })
        .collect();
    FigureSpec {
        stem,
        title: format!(
            "Slot-length ablation: free path, FB on {} — accuracy vs LP size (§6.1 Time Index)",
            topo.name
        ),
        notes: format!(
            "{} jobs, seed {}; costs rescaled to 50 s-slot units, so smaller slots \
             should tighten the bound while rows/cols grow",
            cfg.jobs, cfg.seed
        ),
        series_names: vec![
            "LP(lower bound, 50s units)".into(),
            "heuristic(λ=1.0, 50s units)".into(),
            "LP rows".into(),
            "LP cols".into(),
            "simplex iterations".into(),
        ],
        points,
    }
}

/// See [`slot_length_ablation_spec`].
pub fn run_slot_length_ablation(topo: &Topology, cfg: &HarnessConfig) -> FigureResult {
    single_figure(slot_length_ablation_spec(topo, cfg))
}

/// Ordering ablation (not a paper figure): how far do LP-free
/// combinatorial orderings get on the single-path model? Series: the
/// time-indexed LP bound, the λ=1 heuristic, the exact-best-λ pure
/// Stretch (derandomized), the primal-dual/BSSI ordering, and weighted
/// SJF.
pub fn ordering_ablation_spec<'a>(topo: &'a Topology, cfg: &'a HarnessConfig) -> FigureSpec<'a> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new(
            "Time indexed LP(lower bound)",
            "heuristic",
            Metric::LowerBound,
        ),
        SeriesDef::new("heuristic(λ=1.0)", "heuristic", Metric::Cost),
        SeriesDef::new("Derandomized best λ", "derand", Metric::Aux("best_cost")),
        SeriesDef::new("Primal-dual (BSSI)", "primal-dual", Metric::Cost),
        SeriesDef::new("Weighted SJF", "weighted-sjf", Metric::Cost),
    ];
    let stem = "ablation_ordering";
    FigureSpec {
        stem,
        title: format!(
            "Ordering ablation: single path on {} — LP methods vs LP-free orderings (less is better)",
            topo.name
        ),
        notes: format!(
            "{} jobs/workload, seed {}, random shortest paths; derand = exact best-λ \
             pure Stretch (no compaction); primal-dual = BSSI on the edge-machine open shop",
            cfg.jobs, cfg.seed
        ),
        series_names: labels(SERIES),
        points: workload_sweep_points(
            stem,
            topo,
            cfg,
            true,
            FigureRouting::RandomShortest,
            SERIES,
            "ordering",
        ),
    }
}

/// See [`ordering_ablation_spec`].
pub fn run_ordering_ablation(topo: &Topology, cfg: &HarnessConfig) -> FigureResult {
    single_figure(ordering_ablation_spec(topo, cfg))
}

/// Online ablation (the paper's §7 direction): offline bound and
/// heuristic vs the event-driven re-solver and the doubling-batch
/// framework, free-path model with Poisson releases.
pub fn online_ablation_spec<'a>(topo: &'a Topology, cfg: &'a HarnessConfig) -> FigureSpec<'a> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new("Offline LP(lower bound)", "heuristic", Metric::LowerBound),
        SeriesDef::new("Offline heuristic(λ=1.0)", "heuristic", Metric::Cost),
        SeriesDef::new("Online re-solving", "online", Metric::Cost),
        SeriesDef::new("Doubling batches", "batch-online", Metric::Cost),
    ];
    let stem = "ablation_online";
    let points = WorkloadKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| PointSpec {
            label: kind.name().to_string(),
            seed: point_seed(cfg.seed, stem, i),
            compute: Box::new(move |_rng: &mut StdRng| {
                if cfg.verbose {
                    eprintln!("[online] {} …", kind.name());
                }
                let inst = instance_for(topo, kind, cfg, true);
                let (values, outcomes) =
                    run_series(&inst, &Routing::FreePath, SERIES, &AlgoParams::default());
                let stat = |name: &str, key: &str| {
                    outcomes
                        .iter()
                        .find(|(n, _)| *n == name)
                        .and_then(|(_, o)| o.aux(key))
                        .expect("online solvers report their solve counts")
                };
                let note = Some(format!(
                    "{}: {} re-solves vs {} batches.",
                    kind.name(),
                    stat("online", "resolves"),
                    stat("batch-online", "batches"),
                ));
                PointOutcome {
                    values,
                    note,
                    stats: stats_of(&outcomes),
                }
            }),
        })
        .collect();
    FigureSpec {
        stem,
        title: format!(
            "Online ablation: free path on {} — clairvoyant offline vs online frameworks (less is better)",
            topo.name
        ),
        notes: format!(
            "{} jobs/workload, seed {}, Poisson releases (mean interarrival {} slots). \
             Offline knows all arrivals; online algorithms learn them at release.",
            cfg.jobs, cfg.seed, cfg.mean_interarrival
        ),
        series_names: labels(SERIES),
        points,
    }
}

/// See [`online_ablation_spec`].
pub fn run_online_ablation(topo: &Topology, cfg: &HarnessConfig) -> FigureResult {
    single_figure(online_ablation_spec(topo, cfg))
}

/// Scenario-library sweep: one row per [`Scenario`] (incast, broadcast,
/// multi-stage shuffle, ring all-reduce, hot-spot skew), free-path
/// model, weighted. The shapes are scaled so every row schedules about
/// `cfg.jobs` coflows regardless of how many coflows a scenario emits
/// per job (shuffle emits one per stage).
pub fn scenario_library_spec<'a>(topo: &'a Topology, cfg: &'a HarnessConfig) -> FigureSpec<'a> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new("LP(lower bound)", "heuristic", Metric::LowerBound),
        SeriesDef::new("Heuristic(λ=1.0)", "heuristic", Metric::Cost),
        SeriesDef::new("Best λ", "stretch", Metric::SweepBest),
        SeriesDef::new("Weighted SJF", "weighted-sjf", Metric::Cost),
    ];
    let stem = "scen_library";
    // Figure-scale shapes: small fan so rows stay LP-comparable to the
    // workload figures (the library defaults target bigger fabrics).
    let scenarios: [Scenario; 5] = [
        Scenario::Incast { fanin: 4 },
        Scenario::Broadcast { fanout: 4 },
        Scenario::Shuffle {
            mappers: 3,
            reducers: 3,
            stages: 2,
        },
        Scenario::AllReduce { workers: 4 },
        Scenario::HotSpot {
            width: 4,
            hot_fraction: 0.8,
        },
    ];
    let points = scenarios
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| PointSpec {
            label: scenario.name().to_string(),
            seed: point_seed(cfg.seed, stem, i),
            compute: Box::new(move |_rng: &mut StdRng| {
                if cfg.verbose {
                    eprintln!("[scen] {} …", scenario.name());
                }
                let coflows_per_job = match scenario {
                    Scenario::Shuffle { stages, .. } => stages.max(1),
                    _ => 1,
                };
                let scen_cfg = ScenarioConfig {
                    scenario,
                    num_jobs: (cfg.jobs / coflows_per_job).max(2),
                    seed: cfg.seed,
                    mean_interarrival_slots: cfg.mean_interarrival,
                    weighted: true,
                    ..Default::default()
                };
                let inst =
                    build_scenario_instance(topo, &scen_cfg).expect("scenario placement validates");
                let params = AlgoParams {
                    samples: cfg.samples,
                    seed: cfg.seed,
                    ..Default::default()
                };
                let (values, outcomes) = run_series(&inst, &Routing::FreePath, SERIES, &params);
                point_outcome(values, &outcomes)
            }),
        })
        .collect();
    FigureSpec {
        stem,
        title: format!(
            "Scenario library: free path on {} — structured patterns, weighted completion time (less is better)",
            topo.name
        ),
        notes: format!(
            "≈{} coflows/scenario, seed {}, {} λ samples; incast/broadcast fan 4, \
             shuffle 3×3×2 stages (release-staged), all-reduce ring 4, hot-spot 80% skew",
            cfg.jobs, cfg.seed, cfg.samples
        ),
        series_names: labels(SERIES),
        points,
    }
}

/// See [`scenario_library_spec`].
pub fn run_scenario_library(topo: &Topology, cfg: &HarnessConfig) -> FigureResult {
    single_figure(scenario_library_spec(topo, cfg))
}

/// Trace-replay sweep: growing prefixes of the bundled FB2010-format
/// sample trace ([`FB2010_SAMPLE`]) replayed on the I/O-gadgeted big
/// switch, unit weights — the classic trace-driven evaluation setup.
/// Series report total completion time, the objective every
/// trace-driven coflow paper uses.
pub fn trace_replay_spec(cfg: &HarnessConfig) -> FigureSpec<'static> {
    const SERIES: &[SeriesDef] = &[
        SeriesDef::new("LP(lower bound)", "heuristic", Metric::LowerBound),
        SeriesDef::new("Heuristic(λ=1.0)", "heuristic", Metric::UnweightedCost),
        SeriesDef::new("Best λ", "stretch", Metric::SweepBestUnweighted),
        SeriesDef::new("Terra", "terra", Metric::UnweightedCost),
        SeriesDef::new("SJF", "sjf", Metric::UnweightedCost),
    ];
    let stem = "scen_trace";
    let trace = Trace::parse(FB2010_SAMPLE).expect("the bundled fixture parses");
    let total = trace.coflows.len();
    // Copies, so the point closures are `'static` (the trace is bundled,
    // not borrowed from the config).
    let (verbose, samples, seed) = (cfg.verbose, cfg.samples, cfg.seed);
    let points = [total / 4, total / 2, 3 * total / 4, total]
        .into_iter()
        .enumerate()
        .map(|(i, limit)| {
            let trace = trace.clone();
            PointSpec {
                label: format!("first {limit}"),
                seed: point_seed(seed, stem, i),
                compute: Box::new(move |_rng: &mut StdRng| {
                    if verbose {
                        eprintln!("[trace] first {limit} coflows …");
                    }
                    let inst = trace
                        .switch_instance(&ReplayOptions {
                            limit,
                            ..Default::default()
                        })
                        .expect("the bundled fixture replays");
                    let params = AlgoParams {
                        samples,
                        seed,
                        ..Default::default()
                    };
                    let (values, outcomes) = run_series(&inst, &Routing::FreePath, SERIES, &params);
                    point_outcome(values, &outcomes)
                }),
            }
        })
        .collect();
    FigureSpec {
        stem,
        title: "Trace replay: FB2010-format sample on the big switch — total completion time \
                (less is better)"
            .to_string(),
        notes: format!(
            "prefixes of the bundled {total}-coflow fixture, 16 ports with I/O gadget, \
             1 s slots, 1 Gbps ports, unit weights, {} λ samples, seed {}",
            cfg.samples, cfg.seed
        ),
        series_names: labels(SERIES),
        points,
    }
}

/// See [`trace_replay_spec`].
pub fn run_trace_replay(cfg: &HarnessConfig) -> FigureResult {
    single_figure(trace_replay_spec(cfg))
}

/// The core invariant every figure must satisfy: no algorithm beats the
/// LP lower bound of its own relaxation. Called by binaries after
/// computing a figure; panics on violation (a violation means a bug, and
/// a figure built on it would be garbage).
pub fn assert_sound(fig: &FigureResult, lower_bound_col: usize, algo_cols: &[usize]) {
    for row in &fig.rows {
        let lb = row.values[lower_bound_col];
        for &c in algo_cols {
            let v = row.values[c];
            assert!(
                v >= lb - 1e-6 * (1.0 + lb.abs()),
                "{}: series {c} ({v}) beats the lower bound ({lb})",
                row.label
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seed_depends_on_all_inputs() {
        let a = point_seed(1, "fig06_lambda_swan", 0);
        assert_ne!(a, point_seed(2, "fig06_lambda_swan", 0), "base seed");
        assert_ne!(a, point_seed(1, "fig07_lambda_gscale", 0), "stem");
        assert_ne!(a, point_seed(1, "fig06_lambda_swan", 1), "index");
        assert_eq!(a, point_seed(1, "fig06_lambda_swan", 0), "stable");
    }

    #[test]
    fn compute_figures_preserves_row_order_across_workers() {
        let mk = |stem: &'static str| FigureSpec {
            stem,
            title: stem.to_string(),
            notes: String::new(),
            series_names: vec!["v".into()],
            points: (0..7)
                .map(|i| PointSpec {
                    label: format!("row{i}"),
                    seed: point_seed(3, stem, i),
                    compute: Box::new(move |rng: &mut StdRng| {
                        use rand::Rng;
                        vec![i as f64 + rng.gen_range(0.0..1.0)].into()
                    }),
                })
                .collect(),
        };
        let serial = compute_figures(vec![mk("a"), mk("b")], &Runtime::with_workers(1));
        let parallel = compute_figures(vec![mk("a"), mk("b")], &Runtime::with_workers(8));
        for ((s_stem, s_fig), (p_stem, p_fig)) in serial.iter().zip(&parallel) {
            assert_eq!(s_stem, p_stem);
            for (s_row, p_row) in s_fig.rows.iter().zip(&p_fig.rows) {
                assert_eq!(s_row.label, p_row.label);
                assert_eq!(s_row.values, p_row.values, "worker count changed a value");
            }
        }
    }

    #[test]
    fn notes_are_appended_in_point_order() {
        let spec = FigureSpec {
            stem: "notes",
            title: "t".into(),
            notes: "base.".into(),
            series_names: vec!["v".into()],
            points: (0..4)
                .map(|i| PointSpec {
                    label: format!("p{i}"),
                    seed: i as u64,
                    compute: Box::new(move |_rng: &mut StdRng| PointOutcome {
                        values: vec![0.0],
                        note: Some(format!("n{i}")),
                        stats: PointStats::default(),
                    }),
                })
                .collect(),
        };
        let fig = compute_figures(vec![spec], &Runtime::with_workers(4))
            .pop()
            .unwrap()
            .1;
        assert_eq!(fig.notes, "base. n0 n1 n2 n3");
    }

    #[test]
    fn run_series_shares_one_lp_across_series() {
        use coflow_core::model::{Coflow, Flow};
        use coflow_netgraph::topology;

        let topo = topology::line(2, 1.0);
        let g = topo.graph;
        let v0 = g.node_by_label("v0").unwrap();
        let v1 = g.node_by_label("v1").unwrap();
        let inst = CoflowInstance::new(
            g,
            vec![
                Coflow::new(vec![Flow::new(v0, v1, 2.0)]),
                Coflow::new(vec![Flow::new(v0, v1, 1.0)]),
            ],
        )
        .unwrap();
        let series = [
            SeriesDef::new("lb", "heuristic", Metric::LowerBound),
            SeriesDef::new("cost", "heuristic", Metric::Cost),
            SeriesDef::new("best", "stretch", Metric::SweepBest),
        ];
        let params = AlgoParams {
            samples: 4,
            ..Default::default()
        };
        let (values, outcomes) = run_series(&inst, &Routing::FreePath, &series, &params);
        assert_eq!(values.len(), 3);
        // Two distinct algorithms ran (heuristic appears twice in the
        // series but is solved once).
        assert_eq!(outcomes.len(), 2);
        // Both used the same cached LP, so their bounds agree exactly.
        assert_eq!(
            outcomes[0].1.lower_bound.unwrap(),
            outcomes[1].1.lower_bound.unwrap()
        );
        assert!(values[1] >= values[0] - 1e-9);
    }
}

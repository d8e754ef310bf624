//! The tracked performance harness: runs a pinned suite of
//! warm-start-sensitive scenarios and emits one JSON point of the repo's
//! performance trajectory (`perf_report.json` by default; the committed
//! points are `BENCH_PR<N>.json`).
//!
//! Scenarios (all deterministic given `--seed`):
//!
//! 1. **online fb2010 replay** — the bundled FB2010-format trace on the
//!    gadgeted big switch, event-driven online re-solving. The run is
//!    instrumented with a *shadow cold solve*: every epoch's exact LP is
//!    additionally solved from the all-slack crash basis, so warm and
//!    cold iteration counts compare the *same* LP sequence and their
//!    objectives must agree to 1e-9. A separate `--cold`
//!    trajectory run provides the end-to-end wall-clock A/B.
//! 2. **ε sweep** — the geometric-interval LP across an ε ladder,
//!    chained (each point crashes from the previous basis) vs cold.
//! 3. **online ablation** — the figure-harness online ablation at small
//!    scale, reporting per-point wall-clock and LP effort from the
//!    runner's [`PointStats`] capture.
//! 4. **scale sweep** — cold time-indexed LP solves over a
//!    ports × coflows × horizon-margin grid on the bipartite switch,
//!    plus the *full* bundled FB2010 trace as an offline LP. Each point
//!    records model dimensions and the sparse engine's FTRAN/BTRAN
//!    counters, so hyper-sparsity can be tracked as instances grow.
//! 5. **service replay** — four tenant fabrics streaming the bundled
//!    trace through the `coflow-service` daemon epoch loop concurrently
//!    on the shared runtime, each with a warm per-tenant resolver and
//!    the shadow cold probe. Reports coflows-admitted/sec and p50/p99
//!    epoch latency across all tenants' epochs.
//! 6. **ordering vs LP** — the LP-free Sincronia ordering against the
//!    sparse time-indexed LP on the largest scale-sweep point. Gates
//!    the ordering tier's bargain: cost within 4× of the LP bound
//!    (Sincronia's primal-dual guarantee on the big switch) at ≥ 10×
//!    the speed (full suite only; `--quick` checks the cost ratio on a
//!    small instance where the wall-clock gap is noise).
//! 7. **recovery overhead** — the fault-tolerance bargain. The bundled
//!    trace is streamed through the daemon session twice, with and
//!    without the write-ahead journal, for the steady-state cost; then
//!    a journaled run is crashed mid-stream (the in-process disconnect
//!    fault) and its journal is replayed, timing `read_journal` +
//!    `TenantEngine::restore` (median of 5) against a cold re-admission
//!    that re-solves every epoch (median of 3). Gates: the restore runs
//!    zero LP solves and zero simplex iterations, while on the full
//!    suite the cold re-admission runs some (counts, so an LP speed-up
//!    cannot move them; the wall ratio is reported as
//!    `recovery_speedup`); and, on the full suite only (`--quick` wall
//!    clocks are noise), journaling costs ≤ 1.10× + 25 ms over the
//!    plain run.
//!
//! Scenarios 1, 3 and 5 also report `infeasible_certified` and
//! `infeasible_solved`: the infeasible epoch answers the resolver's load
//! certificate gave without an LP solve, and those an LP solve found.
//!
//! Exit is non-zero when the warm path fails its bar: iterations must be
//! strictly below cold in `--quick` mode, and at least 2× below on the
//! full online replay (the PR's acceptance criterion).
//!
//! With `--compare OLD.json` (an earlier emission, e.g. the committed
//! `BENCH_PR8.json`) the harness also prints a per-scenario diff and
//! fails on regressions: for every scenario name present in both files,
//! wall clock must stay under 2× + 25 ms of the baseline and warm
//! iterations under 1.5× + 100 (iteration counts are deterministic;
//! the wall bar is loose on purpose so only order-of-magnitude
//! slowdowns — the thing this harness exists to catch — trip it).
//!
//! Usage: `perf_report [--quick] [--seed S] [--output PATH]
//! [--compare OLD.json]`. An output named `BENCH_PR<N>.json` labels the
//! emission `"pr": N`; any other name leaves the label out.

use coflow_baselines::registry::{self, AlgoParams};
use coflow_bench::runner::{compute_figures, online_ablation_spec, PointStats};
use coflow_bench::HarnessConfig;
use coflow_core::horizon::{horizon, HorizonMode};
use coflow_core::interval::{solve_interval, solve_interval_chained, IntervalChain};
use coflow_core::online::{online_heuristic_with, OnlineOptions};
use coflow_core::routing::Routing;
use coflow_core::solve::SolveContext;
use coflow_core::timeidx::{solve_time_indexed, LpSize};
use coflow_lp::{SolveStats, SolverOptions};
use coflow_netgraph::topology;
use coflow_runtime::Runtime;
use coflow_service::engine::{EngineConfig, PortCoflow, ServiceOutcome, TenantEngine};
use coflow_service::metrics::{percentile, ServiceMetrics};
use coflow_workloads::trace::{ReplayOptions, Trace, FB2010_SAMPLE};
use coflow_workloads::{build_instance, WorkloadConfig, WorkloadKind};
use std::time::Instant;

/// One emitted scenario record.
struct Scenario {
    name: String,
    wall_ms: f64,
    wall_ms_cold: Option<f64>,
    iterations: u64,
    iterations_cold: Option<u64>,
    resolves: u64,
    objective_max_rel_diff: Option<f64>,
    size: Option<LpSize>,
    stats: Option<SolveStats>,
    /// Scenario-specific numeric fields, appended to the JSON object
    /// verbatim (e.g. the service replay's throughput and latency
    /// percentiles).
    extra: Vec<(String, f64)>,
}

impl Scenario {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"wall_ms\":{:.3},\"iterations\":{},\"resolves\":{}",
            self.name, self.wall_ms, self.iterations, self.resolves
        );
        if let Some(w) = self.wall_ms_cold {
            s.push_str(&format!(",\"wall_ms_cold\":{w:.3}"));
        }
        if let Some(i) = self.iterations_cold {
            s.push_str(&format!(",\"iterations_cold\":{i}"));
            let speedup = i as f64 / (self.iterations.max(1)) as f64;
            s.push_str(&format!(",\"iteration_speedup\":{speedup:.3}"));
        }
        if let Some(d) = self.objective_max_rel_diff {
            s.push_str(&format!(",\"objective_max_rel_diff\":{d:.3e}"));
        }
        if let Some(sz) = self.size {
            s.push_str(&format!(
                ",\"rows\":{},\"cols\":{},\"nonzeros\":{}",
                sz.rows, sz.cols, sz.nonzeros
            ));
        }
        for (key, value) in &self.extra {
            s.push_str(&format!(",\"{key}\":{value:.3}"));
        }
        if let Some(st) = self.stats {
            s.push_str(&format!(
                ",\"lp_stats\":{{\"ftran_solves\":{},\"ftran_nnz\":{},\"btran_solves\":{},\
                 \"btran_nnz\":{},\"peak_alloc_bytes\":{},\"ft_updates\":{},\"spike_nnz\":{},\
                 \"update_nnz\":{},\"refactor_interval\":{},\"refactor_fill\":{},\
                 \"refactor_unstable\":{},\"refactor_repair\":{},\"distress_retries\":{},\
                 \"dense_fallbacks\":{}}}",
                st.ftran_solves,
                st.ftran_nnz,
                st.btran_solves,
                st.btran_nnz,
                st.peak_alloc_bytes,
                st.ft_updates,
                st.spike_nnz,
                st.update_nnz,
                st.refactor_interval,
                st.refactor_fill,
                st.refactor_unstable,
                st.refactor_repair,
                st.distress_retries,
                st.dense_fallbacks
            ));
        }
        s.push('}');
        s
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed = 1u64;
    let mut output = String::from("perf_report.json");
    let mut compare: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires a value");
                    std::process::exit(2);
                });
            }
            "--output" => {
                i += 1;
                output = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--output requires a value");
                    std::process::exit(2);
                });
            }
            "--compare" => {
                i += 1;
                compare = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--compare requires a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: perf_report [--quick] [--seed S] [--output PATH] [--compare OLD.json]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut scenarios = Vec::new();
    let mut failures = Vec::new();

    // ---- 1. Online fb2010 replay, warm vs cold ----
    let replay = online_fb2010(quick);
    let bar = if quick { 1.0 } else { 2.0 };
    let warm_it = replay.iterations.max(1) as f64;
    let cold_it = replay.iterations_cold.unwrap_or(0) as f64;
    println!(
        "online fb2010 replay: {} resolves, {warm_it} warm vs {cold_it} cold iterations ({:.2}x), \
         objective drift {:.2e}",
        replay.resolves,
        cold_it / warm_it,
        replay.objective_max_rel_diff.unwrap_or(0.0)
    );
    if cold_it <= bar * warm_it {
        failures.push(format!(
            "online fb2010 replay: cold {cold_it} iterations is not {bar}x warm {warm_it}"
        ));
    }
    if replay.objective_max_rel_diff.unwrap_or(0.0) > 1e-9 {
        failures.push("online fb2010 replay: warm/cold objectives diverged beyond 1e-9".into());
    }
    scenarios.push(replay);

    // ---- 2. ε sweep, chained vs cold ----
    let sweep = epsilon_sweep(quick, seed);
    println!(
        "epsilon sweep: {} points, {} chained vs {} cold iterations, objective drift {:.2e}",
        sweep.resolves,
        sweep.iterations,
        sweep.iterations_cold.unwrap_or(0),
        sweep.objective_max_rel_diff.unwrap_or(0.0)
    );
    if sweep.objective_max_rel_diff.unwrap_or(0.0) > 1e-6 {
        failures.push("epsilon sweep: chained/cold objectives diverged beyond 1e-6".into());
    }
    scenarios.push(sweep);

    // ---- 3. Online ablation through the figure harness ----
    for s in online_ablation(quick, seed) {
        println!(
            "online ablation [{}]: {:.0} ms, {} LP iterations, {} online solves",
            s.name, s.wall_ms, s.iterations, s.resolves
        );
        scenarios.push(s);
    }

    // ---- 4. Scale sweep: cold time-indexed LPs across the grid ----
    for s in scale_sweep(quick, seed) {
        let sz = s.size.unwrap_or_default();
        let st = s.stats.unwrap_or_default();
        println!(
            "scale sweep [{}]: {:.0} ms, {} iterations, {}x{} ({} nnz), \
             ftran avg nnz {:.1}, peak {} KiB",
            s.name,
            s.wall_ms,
            s.iterations,
            sz.rows,
            sz.cols,
            sz.nonzeros,
            st.ftran_nnz as f64 / st.ftran_solves.max(1) as f64,
            st.peak_alloc_bytes / 1024,
        );
        scenarios.push(s);
    }

    // ---- 5. Multi-tenant service replay ----
    let service = service_replay(quick);
    let warm_it = service.iterations.max(1) as f64;
    let cold_it = service.iterations_cold.unwrap_or(0) as f64;
    println!(
        "service replay: {} tenants x fb2010, {:.1} coflows/s, epoch p50 {:.1} ms p99 {:.1} ms, \
         {warm_it} warm vs {cold_it} cold iterations ({:.2}x)",
        SERVICE_TENANTS,
        service
            .extra
            .iter()
            .find(|(k, _)| k == "coflows_per_sec")
            .map_or(0.0, |(_, v)| *v),
        service
            .extra
            .iter()
            .find(|(k, _)| k == "epoch_ms_p50")
            .map_or(0.0, |(_, v)| *v),
        service
            .extra
            .iter()
            .find(|(k, _)| k == "epoch_ms_p99")
            .map_or(0.0, |(_, v)| *v),
        cold_it / warm_it,
    );
    if cold_it <= bar * warm_it {
        failures.push(format!(
            "service replay: cold {cold_it} iterations is not {bar}x warm {warm_it}"
        ));
    }
    if service.objective_max_rel_diff.unwrap_or(0.0) > 1e-9 {
        failures
            .push("service replay: tenant objectives diverged (engine is nondeterministic)".into());
    }
    scenarios.push(service);

    // ---- 6. LP-free ordering vs the sparse LP ----
    let ordering = ordering_vs_lp(quick, seed);
    let ratio = extra_field(&ordering, "cost_ratio");
    let speedup = extra_field(&ordering, "lp_speedup");
    println!(
        "ordering vs lp [{}]: {:.1} ms vs LP {:.1} ms ({speedup:.1}x), cost ratio {ratio:.3}",
        if quick { "quick" } else { "p32_c32" },
        ordering.wall_ms,
        ordering.wall_ms_cold.unwrap_or(0.0),
    );
    if ratio > 4.0 {
        failures.push(format!(
            "ordering vs lp: cost ratio {ratio:.3} exceeds the 4x Sincronia envelope"
        ));
    }
    // Wall clock is only meaningful at the full scale point; on the
    // --quick instance both sides finish in microseconds.
    if !quick && speedup < 10.0 {
        failures.push(format!(
            "ordering vs lp: LP-free tier is only {speedup:.1}x faster than the sparse LP"
        ));
    }
    scenarios.push(ordering);

    // ---- 7. Journal overhead + crash recovery speedup ----
    let recovery = recovery_overhead(quick);
    let plain_ms = recovery.wall_ms_cold.unwrap_or(0.0);
    let overhead = extra_field(&recovery, "journal_overhead");
    let recover_ms = extra_field(&recovery, "recover_ms");
    let cold_ms = extra_field(&recovery, "cold_ms");
    let speedup = extra_field(&recovery, "recovery_speedup");
    let restore_solves = extra_field(&recovery, "restore_lp_solves");
    let restore_iters = extra_field(&recovery, "restore_lp_iterations");
    let cold_solves = extra_field(&recovery, "cold_lp_solves");
    let cold_iters = extra_field(&recovery, "cold_lp_iterations");
    println!(
        "recovery overhead: journaled {:.1} ms vs plain {plain_ms:.1} ms ({overhead:.2}x), \
         recover {recover_ms:.2} ms ({restore_solves} solves, {restore_iters} iterations) \
         vs cold re-solve {cold_ms:.1} ms ({cold_solves} solves, {cold_iters} iterations) \
         ({speedup:.1}x)",
        recovery.wall_ms
    );
    if recovery.objective_max_rel_diff.unwrap_or(0.0) > 1e-9 {
        failures.push("recovery overhead: recovered state diverged from the cold re-solve".into());
    }
    // Wall-clock gates only bind at full scale; the --quick session is
    // over in a few milliseconds where fsync jitter dominates.
    if !quick && recovery.wall_ms > 1.10 * plain_ms + 25.0 {
        failures.push(format!(
            "recovery overhead: journaling costs {:.1} ms over plain {plain_ms:.1} ms \
             (beyond 1.10x + 25 ms)",
            recovery.wall_ms
        ));
    }
    if restore_solves != 0.0 || restore_iters != 0.0 {
        failures.push(format!(
            "recovery overhead: journal replay ran {restore_solves} LP solves \
             ({restore_iters} iterations); it must run none"
        ));
    }
    // The --quick stream crashes before its first epoch, so there is no
    // LP work to redo.
    if !quick && (cold_solves == 0.0 || cold_iters == 0.0) {
        failures.push(
            "recovery overhead: the cold re-admission ran no LP work to compare against".into(),
        );
    }
    scenarios.push(recovery);

    // ---- Compare against an earlier emission ----
    if let Some(path) = compare {
        let old = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        failures.extend(diff_against(&old, &scenarios));
    }

    // ---- Emit ----
    let body: Vec<String> = scenarios.iter().map(Scenario::json).collect();
    let pr = pr_label(&output).map_or(String::new(), |n| format!("\n  \"pr\": {n},"));
    let json = format!(
        "{{\n  \"suite\": \"coflow warm-start perf\",{pr}\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"scenarios\": [\n    {}\n  ]\n}}\n",
        body.join(",\n    ")
    );
    std::fs::write(&output, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {output}: {e}");
        std::process::exit(1);
    });
    println!("wrote {output}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Prints the per-scenario diff against an earlier emission and returns
/// the regressions that trip the gate (see module docs for the bars).
fn diff_against(old_json: &str, new: &[Scenario]) -> Vec<String> {
    let mut failures = Vec::new();
    println!(
        "{:<28} {:>12} {:>12} {:>8} {:>10} {:>14}",
        "compare", "old", "new", "ratio", "spike nnz", "refac i/f/u/r"
    );
    for s in new {
        // The FT counters of the new run (old emissions predating the
        // Forrest–Tomlin engine simply lack them; the new side is what
        // the trajectory tracks from here on).
        let (spike, causes) = s
            .stats
            .map_or((String::from("-"), String::from("-")), |st| {
                (
                    format!("{}", st.spike_nnz),
                    format!(
                        "{}/{}/{}/{}",
                        st.refactor_interval,
                        st.refactor_fill,
                        st.refactor_unstable,
                        st.refactor_repair
                    ),
                )
            });
        let Some(obj) = scenario_object(old_json, &s.name) else {
            println!(
                "{:<28} {:>12} {:>12.1} {:>8} {:>10} {:>14}",
                s.name, "-", s.wall_ms, "new", spike, causes
            );
            continue;
        };
        let old_wall = num_field(obj, "wall_ms").unwrap_or(0.0);
        let old_iters = num_field(obj, "iterations").unwrap_or(0.0);
        let ratio = s.wall_ms / old_wall.max(1e-9);
        println!(
            "{:<28} {:>9.1} ms {:>9.1} ms {:>7.2}x {:>10} {:>14}",
            s.name, old_wall, s.wall_ms, ratio, spike, causes
        );
        if s.wall_ms > 2.0 * old_wall + 25.0 {
            failures.push(format!(
                "{}: wall clock regressed {old_wall:.1} ms -> {:.1} ms",
                s.name, s.wall_ms
            ));
        }
        if s.iterations as f64 > 1.5 * old_iters + 100.0 {
            failures.push(format!(
                "{}: iterations regressed {old_iters} -> {}",
                s.name, s.iterations
            ));
        }
    }
    failures
}

/// Slices the `{...}` object for scenario `name` out of an earlier
/// emission (our own writer's format: one object per scenario, names
/// unique, at most one level of nesting under `lp_stats`).
fn scenario_object<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("{{\"name\":\"{name}\"");
    let start = json.find(&tag)?;
    let mut depth = 0usize;
    for (off, ch) in json[start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + off]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts a top-level numeric field from a scenario object.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = obj.find(&tag)? + tag.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scenario 1: the bundled trace replayed online, with the shadow cold
/// probe measuring the same LP sequence from the all-slack basis.
fn online_fb2010(quick: bool) -> Scenario {
    let trace = Trace::parse(FB2010_SAMPLE).expect("bundled fixture parses");
    let opts = ReplayOptions {
        limit: if quick { 8 } else { 0 },
        // Half-second slots double the arrival epochs of the fixture,
        // which is exactly the regime warm starts are for.
        ms_per_slot: 500.0,
        ..Default::default()
    };
    let inst = trace.switch_instance(&opts).expect("fixture replays");
    let lp_opts = SolverOptions::default();

    // Pure warm trajectory, timed (no probes inflating the clock).
    let t0 = Instant::now();
    let _warm_run = online_heuristic_with(
        &inst,
        &Routing::FreePath,
        &lp_opts,
        &OnlineOptions {
            cold: false,
            shadow_cold: false,
        },
    )
    .expect("online replay solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Instrumented warm trajectory with the shadow cold probe — the
    // iteration counts compare warm vs cold on identical LPs.
    let run = online_heuristic_with(
        &inst,
        &Routing::FreePath,
        &lp_opts,
        &OnlineOptions {
            cold: false,
            shadow_cold: true,
        },
    )
    .expect("online replay solves");

    let drift = run
        .epoch_objectives
        .iter()
        .zip(run.cold_objectives.as_deref().unwrap_or(&[]))
        .map(|(w, c)| (w - c).abs() / (1.0 + c.abs()))
        .fold(0.0f64, f64::max);

    // Separate cold trajectory for the end-to-end wall-clock A/B.
    let t0 = Instant::now();
    let _cold_run = online_heuristic_with(
        &inst,
        &Routing::FreePath,
        &lp_opts,
        &OnlineOptions {
            cold: true,
            shadow_cold: false,
        },
    )
    .expect("cold online replay solves");
    let wall_ms_cold = t0.elapsed().as_secs_f64() * 1e3;

    Scenario {
        name: "online_fb2010_replay".into(),
        wall_ms,
        wall_ms_cold: Some(wall_ms_cold),
        iterations: run.lp_iterations as u64,
        iterations_cold: run.cold_iterations.map(|i| i as u64),
        resolves: run.resolves as u64,
        objective_max_rel_diff: Some(drift),
        size: None,
        stats: Some(run.lp_stats),
        extra: infeasible_answers(run.certified_infeasible, run.solved_infeasible),
    }
}

/// The `infeasible_certified` / `infeasible_solved` fields of the
/// online scenarios: infeasible epoch answers the resolver's load
/// certificate gave without an LP solve, and those an LP solve found.
/// Each one is followed by a horizon growth.
fn infeasible_answers(certified: usize, solved: usize) -> Vec<(String, f64)> {
    vec![
        ("infeasible_certified".into(), certified as f64),
        ("infeasible_solved".into(), solved as f64),
    ]
}

/// Scenario 2: the interval LP across an ε ladder, basis-chained vs
/// cold per point.
fn epsilon_sweep(quick: bool, seed: u64) -> Scenario {
    let topo = topology::swan();
    let inst = build_instance(
        &topo,
        &WorkloadConfig {
            kind: WorkloadKind::Facebook,
            num_jobs: if quick { 4 } else { 8 },
            seed,
            slot_seconds: 50.0,
            mean_interarrival_slots: 1.0,
            weighted: true,
            demand_scale: 1.0,
        },
    )
    .expect("workload builds");
    let t = horizon(
        &inst,
        &Routing::FreePath,
        HorizonMode::Greedy { margin: 1.25 },
    )
    .expect("horizon");
    let opts = SolverOptions::default();
    let epsilons: Vec<f64> = if quick {
        vec![0.2, 0.5, 0.8]
    } else {
        (1..=10).map(|k| k as f64 / 10.0).collect()
    };

    let mut chain: Option<IntervalChain> = None;
    let mut warm_iters = 0u64;
    let mut cold_iters = 0u64;
    let mut drift = 0.0f64;
    let mut stats = SolveStats::default();
    let t0 = Instant::now();
    for &eps in &epsilons {
        let (rel, next) =
            solve_interval_chained(&inst, &Routing::FreePath, t, eps, &opts, chain.as_ref())
                .expect("interval LP solves");
        warm_iters += rel.lp.lp_iterations as u64;
        stats.merge(&rel.lp.stats);
        chain = Some(next);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let mut cold_objectives = Vec::new();
    for &eps in &epsilons {
        let rel =
            solve_interval(&inst, &Routing::FreePath, t, eps, &opts).expect("interval LP solves");
        cold_iters += rel.lp.lp_iterations as u64;
        cold_objectives.push(rel.lp.objective);
    }
    let wall_ms_cold = t0.elapsed().as_secs_f64() * 1e3;
    // Re-run the chain to compare objectives pointwise (cheap at this
    // scale and keeps the two timed loops pure).
    let mut chain: Option<IntervalChain> = None;
    for (&eps, &cold_obj) in epsilons.iter().zip(&cold_objectives) {
        let (rel, next) =
            solve_interval_chained(&inst, &Routing::FreePath, t, eps, &opts, chain.as_ref())
                .expect("interval LP solves");
        drift = drift.max((rel.lp.objective - cold_obj).abs() / (1.0 + cold_obj.abs()));
        chain = Some(next);
    }

    Scenario {
        name: "epsilon_sweep".into(),
        wall_ms,
        wall_ms_cold: Some(wall_ms_cold),
        iterations: warm_iters,
        iterations_cold: Some(cold_iters),
        resolves: epsilons.len() as u64,
        objective_max_rel_diff: Some(drift),
        size: None,
        stats: Some(stats),
        extra: Vec::new(),
    }
}

/// Scenario 3: the figure-harness online ablation, one record per
/// workload row, stats from the runner's per-point capture.
fn online_ablation(quick: bool, seed: u64) -> Vec<Scenario> {
    let topo = topology::swan();
    let cfg = HarnessConfig {
        jobs: if quick { 3 } else { 6 },
        seed,
        samples: 5,
        mean_interarrival: 1.0,
        verbose: false,
    };
    let spec = online_ablation_spec(&topo, &cfg);
    let fig = compute_figures(vec![spec], &Runtime::new())
        .pop()
        .expect("one figure")
        .1;
    fig.rows
        .iter()
        .zip(&fig.stats)
        .map(|(row, stats): (_, &PointStats)| Scenario {
            name: format!("online_ablation_{}", row.label.to_lowercase()),
            wall_ms: stats.wall_ms,
            wall_ms_cold: None,
            iterations: stats.lp_iterations,
            iterations_cold: None,
            resolves: stats.resolves,
            objective_max_rel_diff: None,
            size: None,
            stats: None,
            extra: infeasible_answers(
                stats.certified_infeasible as usize,
                stats.solved_infeasible as usize,
            ),
        })
        .collect()
}

/// Scenario 4: cold time-indexed LP solves across a
/// ports × coflows × horizon-margin grid, plus the full bundled FB2010
/// trace as one offline LP. Records model dimensions and engine
/// counters per point.
fn scale_sweep(quick: bool, seed: u64) -> Vec<Scenario> {
    // (ports, coflows, horizon margin): each axis doubles while the
    // others hold, so a regression on any single dimension is visible.
    let grid: &[(usize, usize, f64)] = if quick {
        &[(8, 4, 1.25)]
    } else {
        &[
            (8, 8, 1.25),
            (8, 8, 1.75),
            (16, 8, 1.25),
            (16, 16, 1.25),
            (16, 16, 1.75),
            (32, 16, 1.25),
            (32, 32, 1.25),
        ]
    };
    let opts = SolverOptions::default();
    let mut out = Vec::new();
    for &(ports, jobs, margin) in grid {
        let topo = topology::bipartite_switch(ports, 1.0);
        let inst = build_instance(
            &topo,
            &WorkloadConfig {
                kind: WorkloadKind::Facebook,
                num_jobs: jobs,
                seed,
                slot_seconds: 50.0,
                mean_interarrival_slots: 1.0,
                weighted: true,
                demand_scale: 0.05,
            },
        )
        .expect("workload builds");
        let t =
            horizon(&inst, &Routing::FreePath, HorizonMode::Greedy { margin }).expect("horizon");
        let t0 = Instant::now();
        let lp = solve_time_indexed(&inst, &Routing::FreePath, t, &opts).expect("LP solves");
        out.push(Scenario {
            name: format!("scale_p{ports}_c{jobs}_t{t}"),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            wall_ms_cold: None,
            iterations: lp.lp_iterations as u64,
            iterations_cold: None,
            resolves: 1,
            objective_max_rel_diff: None,
            size: Some(lp.size),
            stats: Some(lp.stats),
            extra: Vec::new(),
        });
    }

    // The whole bundled trace, one offline LP — the largest instance the
    // suite tracks.
    if !quick {
        let trace = Trace::parse(FB2010_SAMPLE).expect("bundled fixture parses");
        let inst = trace
            .switch_instance(&ReplayOptions::default())
            .expect("fixture replays");
        let t = horizon(
            &inst,
            &Routing::FreePath,
            HorizonMode::Greedy { margin: 1.25 },
        )
        .expect("horizon");
        let t0 = Instant::now();
        let lp = solve_time_indexed(&inst, &Routing::FreePath, t, &opts).expect("LP solves");
        out.push(Scenario {
            name: "scale_fb2010_full".into(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            wall_ms_cold: None,
            iterations: lp.lp_iterations as u64,
            iterations_cold: None,
            resolves: 1,
            objective_max_rel_diff: None,
            size: Some(lp.size),
            stats: Some(lp.stats),
            extra: Vec::new(),
        });
    }
    out
}

/// Reads a named `extra` field off a scenario (0.0 when absent).
fn extra_field(s: &Scenario, key: &str) -> f64 {
    s.extra
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// Scenario 6: the LP-free Sincronia ordering head to head with the
/// sparse time-indexed LP on the largest scale-sweep instance
/// (32 ports × 32 coflows on the full run). `cost_ratio` is the
/// ordering's Σ wC over the LP optimum — the LP is a true lower bound,
/// so this is an upper bound on the ordering's real approximation
/// factor — and `lp_speedup` is the LP's wall clock over the
/// ordering's. Both gates live in `main` (ratio ≤ 4 always, speedup
/// ≥ 10 on the full suite).
fn ordering_vs_lp(quick: bool, seed: u64) -> Scenario {
    let (ports, jobs) = if quick { (8, 4) } else { (32, 32) };
    let topo = topology::bipartite_switch(ports, 1.0);
    let inst = build_instance(
        &topo,
        &WorkloadConfig {
            kind: WorkloadKind::Facebook,
            num_jobs: jobs,
            seed,
            slot_seconds: 50.0,
            mean_interarrival_slots: 1.0,
            weighted: true,
            demand_scale: 0.05,
        },
    )
    .expect("workload builds");
    let t = horizon(
        &inst,
        &Routing::FreePath,
        HorizonMode::Greedy { margin: 1.25 },
    )
    .expect("horizon");

    let t0 = Instant::now();
    let lp = solve_time_indexed(&inst, &Routing::FreePath, t, &SolverOptions::default())
        .expect("LP solves");
    let lp_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let entry = registry::all()
        .iter()
        .find(|e| e.name == "sincronia")
        .expect("sincronia is registered");
    let solver = entry.build(&AlgoParams::default());
    let mut ctx = SolveContext::new();
    let t0 = Instant::now();
    let out = solver
        .solve(&inst, &Routing::FreePath, &mut ctx)
        .expect("ordering tier schedules");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    Scenario {
        name: "ordering_vs_lp".into(),
        wall_ms,
        wall_ms_cold: Some(lp_wall_ms),
        iterations: 0,
        iterations_cold: None,
        resolves: 1,
        objective_max_rel_diff: None,
        size: Some(lp.size),
        stats: None,
        extra: vec![
            ("cost".into(), out.cost),
            ("lp_bound".into(), lp.objective),
            ("cost_ratio".into(), out.cost / lp.objective.max(1e-9)),
            ("lp_wall_ms".into(), lp_wall_ms),
            ("lp_speedup".into(), lp_wall_ms / wall_ms.max(1e-9)),
        ],
    }
}

/// Tenant fabrics the service replay runs concurrently.
const SERVICE_TENANTS: usize = 4;

/// Scenario 5: the bundled trace streamed through the daemon epoch loop
/// by [`SERVICE_TENANTS`] independent tenants at once, fanned out on the
/// shared work-stealing runtime. Every tenant keeps one warm resolver
/// across its epochs; the shadow cold probe prices the same LPs from
/// the crash basis. Identical workloads must produce identical
/// objectives across tenants (checked as `objective_max_rel_diff`).
fn service_replay(quick: bool) -> Scenario {
    let trace = Trace::parse(FB2010_SAMPLE).expect("bundled fixture parses");
    let opts = ReplayOptions {
        limit: if quick { 8 } else { 0 },
        ms_per_slot: 500.0,
        ..Default::default()
    };
    let base = trace.port_base().expect("fixture is consistent");
    let take = if opts.limit == 0 {
        trace.coflows.len()
    } else {
        opts.limit.min(trace.coflows.len())
    };
    let coflows: Vec<PortCoflow> = trace.coflows[..take]
        .iter()
        .map(|c| PortCoflow {
            id: c.id.clone(),
            weight: 1.0,
            release: c.release_slot(&opts),
            deadline: None,
            flows: c.port_flows(base, &opts),
        })
        .collect();

    let rt = Runtime::new();
    let tenants: Vec<usize> = (0..SERVICE_TENANTS).collect();
    let t0 = Instant::now();
    let runs: Vec<(ServiceOutcome, ServiceMetrics)> = rt
        .run(&tenants, |_, _| {
            let mut engine = TenantEngine::new(
                trace.num_ports,
                EngineConfig {
                    shadow_cold: true,
                    ..EngineConfig::default()
                },
            );
            for pc in &coflows {
                engine.admit(&rt, pc.clone()).expect("fixture admits");
            }
            let outcome = engine.finish(&rt).expect("fixture stream completes");
            let mut metrics = ServiceMetrics::default();
            for report in engine.take_reports() {
                metrics.observe(&report);
            }
            (outcome, metrics)
        })
        .into_iter()
        .collect();
    let wall_secs = t0.elapsed().as_secs_f64();

    let admitted: usize = runs.iter().map(|(o, _)| o.admitted).sum();
    let warm_iters: u64 = runs.iter().map(|(o, _)| o.lp_iterations as u64).sum();
    let cold_iters: u64 = runs
        .iter()
        .map(|(o, _)| o.cold_iterations.unwrap_or(0) as u64)
        .sum();
    let resolves: u64 = runs.iter().map(|(o, _)| o.resolves as u64).sum();
    let certified: usize = runs.iter().map(|(o, _)| o.certified_infeasible).sum();
    let solved: usize = runs.iter().map(|(o, _)| o.solved_infeasible).sum();
    let mut stats = SolveStats::default();
    let mut epoch_ms = Vec::new();
    for (o, m) in &runs {
        stats.merge(&o.lp_stats);
        epoch_ms.extend_from_slice(&m.epoch_ms);
    }
    // Same stream, same engine ⇒ every tenant must land on the same
    // objective; any drift means shared-state contamination.
    let obj0 = runs[0].0.objective;
    let drift = runs
        .iter()
        .map(|(o, _)| (o.objective - obj0).abs() / (1.0 + obj0.abs()))
        .fold(0.0f64, f64::max);

    Scenario {
        name: "service_replay".into(),
        wall_ms: wall_secs * 1e3,
        wall_ms_cold: None,
        iterations: warm_iters,
        iterations_cold: Some(cold_iters),
        resolves,
        objective_max_rel_diff: Some(drift),
        size: None,
        stats: Some(stats),
        extra: [
            ("tenants".into(), SERVICE_TENANTS as f64),
            ("coflows_admitted".into(), admitted as f64),
            (
                "coflows_per_sec".into(),
                admitted as f64 / wall_secs.max(1e-9),
            ),
            ("epoch_ms_p50".into(), percentile(&epoch_ms, 50.0)),
            ("epoch_ms_p99".into(), percentile(&epoch_ms, 99.0)),
        ]
        .into_iter()
        .chain(infeasible_answers(certified, solved))
        .collect(),
    }
}

/// Timed journal restores in scenario 7 (the median is reported).
const RESTORE_RUNS: usize = 5;
/// Timed cold re-admissions in scenario 7 (the median is reported).
const COLD_RUNS: usize = 3;

/// Scenario 7: the fault-tolerance bargain, both sides. Steady state:
/// the bundled trace streamed through the daemon session with and
/// without the write-ahead journal (same runtime, same stream — the
/// delta is pure journaling: serialization + append + flush per round).
/// Crash: a journaled run is severed mid-stream by the in-process
/// disconnect fault, leaving a committed journal with no `DONE` marker;
/// recovery (`read_journal` + `TenantEngine::restore`, one model build
/// from the resolver's own logs, zero LP re-solves) is timed as the
/// median of [`RESTORE_RUNS`] against the median of [`COLD_RUNS`] cold
/// re-admissions that re-solve every epoch, and both sides' LP work is
/// counted with [`TenantEngine::lp_work`]. The recovered engine's
/// restored objective must equal the cold rebuild's to 1e-9 — the same
/// oracle the service's golden tests pin.
fn recovery_overhead(quick: bool) -> Scenario {
    use coflow_service::daemon::{session_with, SessionOptions};
    use coflow_service::fault::FaultPlan;
    use coflow_service::journal::read_journal;
    use coflow_service::protocol::{parse_request, Request};

    let lines: Vec<&str> = FB2010_SAMPLE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    let take = if quick { 6 } else { lines.len() - 1 };
    let mut input = String::new();
    for l in &lines[..=take] {
        input.push_str(l);
        input.push('\n');
    }
    input.push_str("BYE\n");

    let rt = Runtime::new();
    let run = |opts: SessionOptions| {
        let t0 = Instant::now();
        let mut out = Vec::new();
        session_with(&rt, input.as_bytes(), &mut out, opts).expect("session runs");
        t0.elapsed().as_secs_f64() * 1e3
    };

    // Steady-state A/B: identical streams, the journal is the only
    // difference.
    let plain_ms = run(SessionOptions::default());
    let dir = std::env::temp_dir().join(format!("coflow-perf-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let journal_ms = run(SessionOptions {
        journal: Some(dir.clone()),
        ..SessionOptions::default()
    });

    // Crash mid-stream: the disconnect fault severs the session after
    // half the coflows (line 1 is the header), leaving a recoverable
    // journal — `JournalWriter::create` truncates, so the clean run's
    // `DONE` marker above is overwritten, not appended to.
    let cut = take / 2 + 1;
    run(SessionOptions {
        journal: Some(dir.clone()),
        fault: FaultPlan::parse(&format!("disconnect={}", cut + 1)).expect("valid plan"),
        ..SessionOptions::default()
    });

    // Recovery: journal replay into a restored engine. The LP work is
    // the same on every repetition; the wall time is not.
    let path = dir.join("default.journal");
    let mut restore_ms = Vec::with_capacity(RESTORE_RUNS);
    let mut restore_work = (0, 0);
    let mut last = None;
    for _ in 0..RESTORE_RUNS {
        let t0 = Instant::now();
        let mut rec = read_journal(&path).expect("crash journal reads");
        let Ok(Request::Hello(hello)) = parse_request(&rec.hello_line, None) else {
            panic!("journal hello parses");
        };
        let snapshot = std::mem::take(&mut rec.snapshot);
        let restored = TenantEngine::restore(hello.ports, hello.engine_config(), snapshot)
            .expect("engine restores");
        restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        restore_work = restored.lp_work();
        last = Some((rec, hello));
    }
    let (rec, hello) = last.expect("at least one restore");
    let restored_objective = rec.reports.last().map_or(0.0, |r| r.objective);

    // Cold baseline: rebuild the same state the expensive way,
    // re-admitting (and re-solving) every journaled arrival.
    let mut cold_ms = Vec::with_capacity(COLD_RUNS);
    let mut cold_work = (0, 0);
    let mut cold_objective = 0.0;
    for _ in 0..COLD_RUNS {
        let t0 = Instant::now();
        let mut cold = TenantEngine::new(hello.ports, hello.engine_config());
        for a in &rec.arrivals {
            cold.admit(&rt, a.clone()).expect("cold re-admit");
        }
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cold_work = cold.lp_work();
        cold_objective = cold.take_reports().last().map_or(0.0, |r| r.objective);
    }
    let recover_ms = percentile(&restore_ms, 50.0);
    let cold_ms = percentile(&cold_ms, 50.0);
    let drift = (restored_objective - cold_objective).abs() / (1.0 + cold_objective.abs());
    let _ = std::fs::remove_dir_all(&dir);

    Scenario {
        name: "recovery_overhead".into(),
        wall_ms: journal_ms,
        wall_ms_cold: Some(plain_ms),
        iterations: 0,
        iterations_cold: None,
        resolves: take as u64,
        objective_max_rel_diff: Some(drift),
        size: None,
        stats: None,
        extra: vec![
            ("journal_overhead".into(), journal_ms / plain_ms.max(1e-9)),
            ("recover_ms".into(), recover_ms),
            ("cold_ms".into(), cold_ms),
            ("recovery_speedup".into(), cold_ms / recover_ms.max(1e-9)),
            ("restore_lp_solves".into(), restore_work.0 as f64),
            ("restore_lp_iterations".into(), restore_work.1 as f64),
            ("cold_lp_solves".into(), cold_work.0 as f64),
            ("cold_lp_iterations".into(), cold_work.1 as f64),
            ("recovered_arrivals".into(), rec.arrivals.len() as f64),
            ("recovered_epochs".into(), rec.reports.len() as f64),
        ],
    }
}

/// The trajectory label of an output path: `N` for a file named
/// `BENCH_PR<N>.json`, `None` for any other name.
fn pr_label(output: &str) -> Option<u32> {
    let name = std::path::Path::new(output).file_name()?.to_str()?;
    let digits = name.strip_prefix("BENCH_PR")?.strip_suffix(".json")?;
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::pr_label;

    #[test]
    fn pr_label_comes_from_a_bench_file_name() {
        assert_eq!(pr_label("BENCH_PR42.json"), Some(42));
        assert_eq!(pr_label("out/BENCH_PR7.json"), Some(7));
        assert_eq!(pr_label("perf_report.json"), None);
        assert_eq!(pr_label("BENCH_PR.json"), None);
        assert_eq!(pr_label("BENCH_PR+3.json"), None);
        assert_eq!(pr_label("BENCH_PR42.json.bak"), None);
        assert_eq!(pr_label("BENCH_PR42_quick.json"), None);
    }
}

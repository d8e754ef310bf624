//! `offline_paper`: the paper's §6 pipeline (time-indexed LP + Stretch
//! with 20 λ samples), one cold solve per instance.

use crate::gen::{offline_instance, OfflineInput, OFFLINE_POOL};
use crate::span::Tracer;
use crate::stats::{peak_rss_mb, percentile};
use crate::{Outcome, Setups};
use coflow_baselines::registry::{self, AlgoParams};
use coflow_core::solve::{CoflowSolver, SolveContext, SolveOutcome};
use coflow_core::stretch::{lambda_sweep, stretch_schedule, StretchOptions};
use coflow_lp::SolveStats;
use std::time::{Duration, Instant};

/// Instances every run solves, in pool order: `sum_wc` sums their
/// costs, and the traced run replays exactly these. At least 100, so
/// that the p90 has ten samples beyond it.
const BASE_OPS: usize = 768;

/// One solve as the untraced run sees it.
struct Solved {
    ack: Duration,
    total: Duration,
    out: SolveOutcome,
}

fn solve_one(solver: &dyn CoflowSolver, input: &OfflineInput) -> Result<Solved, String> {
    let t = Instant::now();
    let mut ctx = SolveContext::new();
    ctx.horizon(&input.inst, &input.routing)
        .map_err(|e| format!("{}: horizon: {e}", input.label))?;
    let ack = t.elapsed();
    let out = solver
        .solve(&input.inst, &input.routing, &mut ctx)
        .map_err(|e| format!("{}: solve: {e}", input.label))?;
    Ok(Solved {
        ack,
        total: t.elapsed(),
        out,
    })
}

/// Checks one outcome: a validated schedule whose cost is at least the
/// LP lower bound.
fn check(o: &mut Outcome, label: &str, out: &SolveOutcome) {
    let lb = out.lower_bound.unwrap_or(f64::INFINITY);
    o.check(out.cost >= lb - 1e-6, || {
        format!("{label}: cost {} below LP bound {lb}", out.cost)
    });
    o.check(
        (out.validation.completions.weighted_total - out.cost).abs() <= 1e-9,
        || format!("{label}: cost differs from the validated completions"),
    );
    o.check(out.validation.peak_utilization <= 1.0 + 1e-6, || {
        format!(
            "{label}: peak utilization {}",
            out.validation.peak_utilization
        )
    });
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::default();
    let params = AlgoParams::default();

    // Set-up: generate the inputs, build the solver, one warm-up solve
    // (of the same instance for every seed).
    let mut warmup_errors = Vec::new();
    let mut setup = || {
        let pool: Vec<OfflineInput> = (0..OFFLINE_POOL)
            .map(|i| offline_instance(seed, i))
            .collect();
        let solver = registry::build("stretch", &params).expect("`stretch` is registered");
        if let Err(e) = solve_one(solver.as_ref(), &offline_instance(0, 0)) {
            warmup_errors.push(format!("warm-up: {e}"));
        }
        (pool, solver)
    };

    if trace {
        let (pool, solver) = setup();
        run_traced(&mut o, &pool, solver.as_ref(), &params);
    } else {
        let mut setups = Setups::new(seconds, setup);
        let (pool, solver) = setups.run();
        run_timed(&mut o, &pool, solver.as_ref(), seconds, &mut setups);
        o.set("setup_s", setups.median());
    }
    o.problems.append(&mut warmup_errors);
    o
}

/// The untraced run: solves the pool in order until `seconds` have
/// passed and at least `BASE_OPS` instances are solved, repeating the
/// set-up between solves when it is due.
fn run_timed<T>(
    o: &mut Outcome,
    pool: &[OfflineInput],
    solver: &dyn CoflowSolver,
    seconds: f64,
    setups: &mut Setups<impl FnMut() -> T>,
) {
    let mut lat = Vec::new();
    let mut ack = Vec::new();
    let mut coflows = 0usize;
    let mut sum_wc = 0.0;
    let start = Instant::now();
    let mut paused = 0.0;
    let mut k = 0usize;
    while k < BASE_OPS || start.elapsed().as_secs_f64() < seconds {
        let input = &pool[k % pool.len()];
        o.attempted += 1;
        match solve_one(solver, input) {
            Ok(s) => {
                lat.push(s.total.as_secs_f64() * 1e3);
                ack.push(s.ack.as_secs_f64() * 1e3);
                coflows += input.inst.num_coflows();
                check(o, &input.label, &s.out);
                if k < BASE_OPS {
                    sum_wc += s.out.cost;
                }
            }
            Err(e) => {
                o.failed += 1;
                o.problems.push(e);
            }
        }
        k += 1;
        paused += setups.catch_up(start.elapsed().as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64() - paused;
    o.set("coflows_per_s", coflows as f64 / wall);
    o.set("latency_ms_p50", percentile(&lat, 50.0));
    o.set("latency_ms_p90", percentile(&lat, 90.0));
    o.set("ack_ms_p50", percentile(&ack, 50.0));
    o.set("sum_wc", sum_wc);
    o.set("peak_rss_mb", peak_rss_mb());
    o.notes.push(format!(
        "solves {}, latency samples {}, ack samples {}, wall {wall:.3} s, error_rate {}",
        o.attempted,
        lat.len(),
        ack.len(),
        o.failed as f64 / o.attempted.max(1) as f64
    ));
}

/// The traced run: the first `BASE_OPS` instances solved untraced for
/// reference, then the same instances through the layer functions in
/// the solver's order, with a span around each call.
fn run_traced(
    o: &mut Outcome,
    pool: &[OfflineInput],
    solver: &dyn CoflowSolver,
    params: &AlgoParams,
) {
    let pool = &pool[..BASE_OPS];
    let t = Instant::now();
    let mut reference = Vec::new();
    for input in pool {
        o.attempted += 1;
        match solve_one(solver, input) {
            Ok(s) => {
                check(o, &input.label, &s.out);
                reference.push(Some(s.out));
            }
            Err(e) => {
                o.failed += 1;
                o.problems.push(e);
                reference.push(None);
            }
        }
    }
    let untraced = t.elapsed().as_secs_f64();

    let options = StretchOptions {
        compact: params.compact,
    };
    let mut tr = Tracer::new();
    let mut stats = SolveStats::default();
    let (mut iterations, mut rows, mut cols, mut nnz, mut samples) = (0, 0, 0, 0, 0);
    let mut row_counts = Vec::new();
    let t = Instant::now();
    for (input, reference) in pool.iter().zip(&reference) {
        tr.next_request();
        let (inst, routing) = (&input.inst, &input.routing);
        let mut ctx = SolveContext::new();
        let traced = (|| {
            tr.span("timeidx", "horizon", || ctx.horizon(inst, routing))?;
            let lp = tr.span("timeidx", "solve_time_indexed", || {
                ctx.time_indexed(inst, routing)
            })?;
            let sweep = tr.span("rounding", "lambda_sweep", || {
                lambda_sweep(inst, &lp.plan, params.samples, params.seed, options)
            });
            let schedule = tr.span("rounding", "stretch_schedule", || {
                stretch_schedule(inst, &lp.plan, sweep.best().lambda, options)
            });
            let out = tr.span("validate", "validate", || {
                SolveOutcome::from_schedule(inst, routing, schedule, ctx.tolerance())
            })?;
            Ok::<_, coflow_core::CoflowError>((lp, sweep.samples.len(), out))
        })();
        match (traced, reference) {
            (Ok((lp, n, out)), Some(r)) => {
                iterations += lp.lp_iterations;
                rows += lp.size.rows;
                row_counts.push(lp.size.rows as f64);
                cols += lp.size.cols;
                nnz += lp.size.nonzeros;
                samples += n;
                stats.merge(&lp.stats);
                o.check(r.lower_bound == Some(lp.objective), || {
                    format!("{}: traced LP bound differs", input.label)
                });
                o.check((out.cost - r.cost).abs() <= 1e-6, || {
                    format!("{}: traced cost differs", input.label)
                });
            }
            (Err(e), _) => o
                .problems
                .push(format!("{}: traced pass: {e}", input.label)),
            (_, None) => {}
        }
    }
    let traced = t.elapsed().as_secs_f64();

    let n = pool.len() as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let (relax_ns, _) = tr.inclusive("timeidx", "solve_time_indexed");
    let (horizon_ns, _) = tr.inclusive("timeidx", "horizon");
    o.set("lp.iterations", iterations as f64);
    o.set(
        "lp.us_per_iter",
        relax_ns as f64 / 1e3 / iterations.max(1) as f64,
    );
    o.set(
        "lp.refactors",
        (stats.refactor_interval + stats.refactor_fill + stats.refactor_unstable) as f64,
    );
    o.set("lp.ftran_nnz", stats.ftran_nnz as f64);
    o.set("lp.btran_nnz", stats.btran_nnz as f64);
    o.set("lp.update_nnz", stats.update_nnz as f64);
    o.set("lp.peak_alloc_bytes", stats.peak_alloc_bytes as f64);
    o.set("lp.distress_retries", stats.distress_retries as f64);
    o.set("lp.dense_fallbacks", stats.dense_fallbacks as f64);
    o.set("lp.rows", rows as f64 / n);
    let q = |p: f64| percentile(&row_counts, p);
    o.notes.push(format!(
        "lp.rows min {} p25 {} p50 {} p75 {} p90 {} max {}",
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(90.0),
        q(100.0)
    ));
    o.set("lp.cols", cols as f64 / n);
    o.set("lp.nonzeros", nnz as f64 / n);
    o.set("timeidx.relax_ms", ms(relax_ns) / n);
    o.set("timeidx.horizon_ms", ms(horizon_ns) / n);
    o.set("rounding.ms", ms(tr.layer_ns("rounding")) / n);
    o.set("rounding.samples", samples as f64);
    o.set("validate.ms", ms(tr.layer_ns("validate")) / n);
    o.trace_summary(&tr, traced, untraced, "offline_paper");
}

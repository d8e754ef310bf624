//! The subcommands: `generate`, `info`, `solve`, `algos`, `trace`,
//! `serve`, `feed`.
//!
//! `solve` and `trace replay` dispatch through the algorithm registry
//! ([`coflow_baselines::registry`]): any registered name works with
//! `--algo NAME`, and `algos` prints the full table. `trace` works with
//! FB2010-format coflow traces ([`coflow_workloads::trace`]).

use crate::args::Args;
use coflow_baselines::registry::{self, AlgoParams, RoutingSupport};
use coflow_core::io::{read_instance_path, write_instance_path};
use coflow_core::model::CoflowInstance;
use coflow_core::routing::{self, Routing};
use coflow_core::solve::SolveContext;
use coflow_core::solver::Relaxation;
use coflow_netgraph::topology::{self, Topology};
use coflow_workloads::scenarios::{build_scenario_instance, Scenario, ScenarioConfig};
use coflow_workloads::trace::{ReplayOptions, Trace, TraceStream, WeightRule};
use coflow_workloads::{build_instance, WorkloadConfig, WorkloadKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `coflow generate`: synthesize an instance file — a benchmark-shaped
/// workload (`--workload`) or a structured scenario (`--scenario`).
///
/// # Errors
///
/// Usage or generation problems, as a printable message.
pub fn generate(args: &Args) -> Result<(), String> {
    let ports: usize = args.get("ports", 8)?;
    let topo = parse_topology(&args.get::<String>("topology", "swan".into())?, ports)?;
    let scenario_name: String = args.get("scenario", String::new())?;
    let num_jobs = args.get("jobs", 20)?;
    let seed = args.get("seed", 1)?;
    let slot_seconds = args.get("slot-seconds", 50.0)?;
    let mean_interarrival_slots = args.get("interarrival", 1.0)?;
    let weighted = !args.switch("--unweighted");
    let demand_scale = args.get("demand-scale", 0.05)?;
    let deadline_slack: f64 = args.get("deadline-slack", 0.0)?;
    let output: String = args.get("output", "-".into())?;

    let mut inst = if scenario_name.is_empty() {
        let kind = parse_workload(&args.get::<String>("workload", "fb".into())?)?;
        args.finish()?;
        build_instance(
            &topo,
            &WorkloadConfig {
                kind,
                num_jobs,
                seed,
                slot_seconds,
                mean_interarrival_slots,
                weighted,
                demand_scale,
            },
        )
        .map_err(|e| e.to_string())?
    } else {
        let mut scenario = Scenario::by_name(&scenario_name).ok_or(format!(
            "unknown scenario {scenario_name:?} (incast|broadcast|shuffle|allreduce|hotspot)"
        ))?;
        let fan: usize = args.get("fan", 0)?;
        let stages: usize = args.get("stages", 3)?;
        if fan > 0 {
            scenario = scenario.with_fan(fan);
        }
        if let Scenario::Shuffle {
            mappers, reducers, ..
        } = scenario
        {
            scenario = Scenario::Shuffle {
                mappers,
                reducers,
                stages,
            };
        }
        let cfg = ScenarioConfig {
            scenario,
            num_jobs,
            seed,
            slot_seconds,
            mean_interarrival_slots,
            weighted,
            flow_gb: args.get("flow-gb", 300.0)?,
            demand_scale,
            deadline_slack: (deadline_slack > 0.0).then_some(deadline_slack),
            ..Default::default()
        };
        args.finish()?;
        build_scenario_instance(&topo, &cfg).map_err(|e| e.to_string())?
    };
    // Scenario builds synthesize deadlines themselves; the workload
    // path gets the same treatment here.
    if deadline_slack > 0.0 && inst.coflows.iter().all(|c| c.deadline.is_none()) {
        coflow_core::loads::apply_deadline_slack(&mut inst, deadline_slack);
    }
    write_instance_path(&inst, &output).map_err(|e| e.to_string())?;
    eprintln!(
        "generated {} coflows / {} flows on {} ({} nodes, {} edges)",
        inst.num_coflows(),
        inst.num_flows(),
        topo.name,
        inst.graph.node_count(),
        inst.graph.edge_count()
    );
    Ok(())
}

/// `coflow info FILE`: summarize an instance file.
///
/// # Errors
///
/// I/O or parse problems.
pub fn info(args: &Args) -> Result<(), String> {
    let inst = load(args)?;
    args.finish()?;
    let g = &inst.graph;
    let total_demand: f64 = inst.coflows.iter().map(|c| c.total_demand()).sum();
    let max_release = inst
        .coflows
        .iter()
        .map(|c| c.full_release())
        .max()
        .unwrap_or(0);
    let widths: Vec<usize> = inst.coflows.iter().map(|c| c.flows.len()).collect();
    let max_width = widths.iter().copied().max().unwrap_or(0);
    let singles = widths.iter().filter(|&&w| w == 1).count();
    println!("nodes          {}", g.node_count());
    println!("edges          {}", g.edge_count());
    println!(
        "capacity       min {} / max {}",
        g.min_capacity().unwrap_or(0.0),
        g.edges().map(|e| e.capacity).fold(0.0f64, f64::max)
    );
    println!("coflows        {}", inst.num_coflows());
    println!("flows          {}", inst.num_flows());
    println!("total demand   {total_demand:.3}");
    println!("max width      {max_width}");
    println!(
        "single-flow    {singles} ({:.0}%)",
        100.0 * singles as f64 / inst.num_coflows().max(1) as f64
    );
    println!("max release    {max_release}");
    Ok(())
}

/// `coflow algos`: print the algorithm registry.
///
/// # Errors
///
/// Unknown flags.
pub fn algos(args: &Args) -> Result<(), String> {
    args.finish()?;
    let entries = registry::all();
    let name_w = entries.iter().map(|e| e.name.len()).max().unwrap_or(4);
    println!(
        "{:<name_w$}  {:<11}  {:<11}  {:<8}  {:<3}  {:<7}  {:<8}  description",
        "name", "kind", "routing", "weighted", "lp", "lp-free", "deadline",
    );
    for e in entries {
        println!(
            "{:<name_w$}  {:<11}  {:<11}  {:<8}  {:<3}  {:<7}  {:<8}  {}",
            e.name,
            e.kind.label(),
            e.caps.routing.label(),
            if e.caps.weighted { "yes" } else { "no" },
            if e.caps.lp_based { "yes" } else { "no" },
            if e.caps.lp_free { "yes" } else { "no" },
            if e.caps.deadline_aware { "yes" } else { "no" },
            e.description,
        );
    }
    println!("\nrun with: coflow solve FILE --algo NAME");
    Ok(())
}

/// `coflow solve FILE`: run any registered algorithm and report the
/// outcome against an LP lower bound.
///
/// # Errors
///
/// I/O, parse, routing, or solver problems.
pub fn solve(args: &Args) -> Result<(), String> {
    let inst = load(args)?;
    let model: String = args.get("model", "free".into())?;
    let algo_flag: String = args.get("algo", String::new())?;
    let algorithm: String = args.get("algorithm", "heuristic".into())?;
    let knobs = solver_knobs(args)?;
    args.finish()?;

    let routing = match model.as_str() {
        "free" => Routing::FreePath,
        "single" => single_path_routing(&inst, knobs.seed)?,
        "multi" => routing::k_shortest_path_sets(&inst, knobs.k).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown model {other:?} (free|single|multi)")),
    };

    // `--algo` takes any registry name; the legacy `--algorithm`
    // spellings map onto registry names (with `--epsilon > 0` selecting
    // the interval-LP variants, as before).
    let name = if algo_flag.is_empty() {
        legacy_name(&algorithm, knobs.epsilon)?
    } else {
        algo_flag
    };
    let entry = registry::by_name(&name).ok_or(format!(
        "unknown algorithm {name:?} — run `coflow algos` for the list"
    ))?;

    println!("model          {model}");
    dispatch(&inst, &routing, entry, &knobs.params, knobs.epsilon)
}

/// The solver knobs `solve` and `trace replay` share:
/// `--seed/--samples/--lambda/--k/--epsilon/--alpha/--cold`, validated
/// and assembled into [`AlgoParams`] exactly once so the two commands
/// cannot drift (`--epsilon` maps onto both the interval-LP ε and
/// Jahanjou's ε, as `solve` has always done; `--cold` disables the
/// online frameworks' warm-started re-solves for A/B runs).
struct SolverKnobs {
    seed: u64,
    k: usize,
    epsilon: f64,
    params: AlgoParams,
}

fn solver_knobs(args: &Args) -> Result<SolverKnobs, String> {
    let seed: u64 = args.get("seed", 1)?;
    let samples: usize = args.get("samples", 20)?;
    let lambda: f64 = args.get("lambda", 1.0)?;
    let k: usize = args.get("k", 3)?;
    let epsilon: f64 = args.get("epsilon", 0.0)?;
    let alpha: f64 = args.get("alpha", 0.5)?;
    let cold = args.switch("--cold");
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(format!("--alpha must lie in (0, 1], got {alpha}"));
    }
    let dflt = AlgoParams::default();
    Ok(SolverKnobs {
        seed,
        k,
        epsilon,
        params: AlgoParams {
            samples,
            seed,
            lambda,
            cold,
            epsilon: if epsilon > 0.0 { epsilon } else { dflt.epsilon },
            jahanjou_epsilon: if epsilon > 0.0 {
                epsilon
            } else {
                dflt.jahanjou_epsilon
            },
            alpha,
            ..dflt
        },
    })
}

/// Random shortest paths seeded from `--seed` (the `single` model).
fn single_path_routing(inst: &CoflowInstance, seed: u64) -> Result<Routing, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    routing::random_shortest_paths(inst, &mut rng).map_err(|e| e.to_string())
}

/// Runs `entry` on `(inst, routing)` and prints the outcome against an
/// LP lower bound — the shared tail of `solve` and `trace replay`.
fn dispatch(
    inst: &CoflowInstance,
    routing: &Routing,
    entry: &registry::AlgorithmEntry,
    params: &AlgoParams,
    epsilon: f64,
) -> Result<(), String> {
    println!("algorithm      {}", entry.name);
    let mut ctx = SolveContext::new();
    let out = entry
        .build(params)
        .solve(inst, routing, &mut ctx)
        .map_err(|e| e.to_string())?;

    // LP-free algorithms carry no bound of their own; report their cost
    // against the relaxation an LP method would solve on this instance
    // (cheap here: the context caches it for any later solve).
    let lower_bound = match out.lower_bound {
        Some(lb) => lb,
        None => {
            let relaxation = if epsilon > 0.0 {
                Relaxation::Interval { epsilon }
            } else {
                Relaxation::TimeIndexed
            };
            ctx.relaxation(inst, routing, relaxation)
                .map_err(|e| e.to_string())?
                .objective
        }
    };
    print_outcome(inst, lower_bound, out.cost, &out.validation.completions);
    if let Some(size) = out.lp_size {
        println!("lp rows/cols   {} / {}", size.rows, size.cols);
    }
    if let Some(iters) = out.lp_iterations {
        println!("lp iterations  {iters}");
    }
    if let Some(sweep) = &out.sweep {
        println!("best lambda    {:.4}", sweep.best().lambda);
        println!("average cost   {:.3}", sweep.average());
    }
    for (key, value) in &out.aux {
        println!("{key:<14} {value:.6}");
    }
    Ok(())
}

/// `coflow trace <summarize|convert|replay> FILE`: work with
/// FB2010-format coflow traces.
///
/// # Errors
///
/// I/O, parse, or solver problems, as a printable message.
pub fn trace(args: &Args) -> Result<(), String> {
    let action = args
        .positional
        .first()
        .cloned()
        .ok_or("trace needs an action (summarize|convert|replay)")?;
    let path = args
        .positional
        .get(1)
        .cloned()
        .ok_or("a trace file is required (use '-' for stdin)")?;
    match action.as_str() {
        "summarize" => trace_summarize(args, &path),
        "convert" => trace_convert(args, &path),
        "replay" => trace_replay(args, &path),
        other => Err(format!(
            "unknown trace action {other:?} (summarize|convert|replay)"
        )),
    }
}

/// Streams a trace file (or stdin) into memory; returns the trace and
/// the header's declared coflow count.
fn load_trace(path: &str) -> Result<(Trace, usize), String> {
    fn collect<B: std::io::BufRead>(r: B) -> Result<(Trace, usize), String> {
        let stream = TraceStream::new(r).map_err(|e| e.to_string())?;
        let num_ports = stream.num_ports();
        let declared = stream.declared_coflows();
        let coflows = stream
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((Trace { num_ports, coflows }, declared))
    }
    if path == "-" {
        collect(std::io::stdin().lock())
    } else {
        let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        collect(std::io::BufReader::new(f))
    }
}

/// Parses the shared replay knobs; unspecified flags fall back to the
/// library's [`ReplayOptions::default`] so the CLI cannot drift from
/// library/bench replays.
fn replay_options(args: &Args) -> Result<ReplayOptions, String> {
    let dflt = ReplayOptions::default();
    // Consumed unconditionally: --seed is a documented shared knob, and
    // only consumed flags survive Args::finish.
    let seed: u64 = args.get("seed", 1)?;
    let weights = match args.get::<String>("weights", "unit".into())?.as_str() {
        "unit" => WeightRule::Unit,
        "uniform" => WeightRule::Uniform { seed },
        other => return Err(format!("unknown weight rule {other:?} (unit|uniform)")),
    };
    let deadline_slack: f64 = args.get("deadline-slack", 0.0)?;
    Ok(ReplayOptions {
        ms_per_slot: args.get("ms-per-slot", dflt.ms_per_slot)?,
        mb_per_slot: args.get("mb-per-slot", dflt.mb_per_slot)?,
        demand_scale: args.get("demand-scale", dflt.demand_scale)?,
        limit: args.get("limit", dflt.limit)?,
        weights,
        deadline_slack: (deadline_slack > 0.0).then_some(deadline_slack),
    })
}

/// Builds the replay instance on the `--on` target: the I/O-gadgeted
/// big switch, or a WAN topology with ports mapped round-robin
/// (capacities scaled to per-slot volumes from `--ms-per-slot`).
fn trace_instance(tr: &Trace, args: &Args, opts: &ReplayOptions) -> Result<CoflowInstance, String> {
    let on: String = args.get("on", "switch".into())?;
    if on == "switch" {
        tr.switch_instance(opts).map_err(|e| e.to_string())
    } else {
        let topo = parse_topology(&on, tr.num_ports)?.scale_capacity(opts.ms_per_slot / 1000.0);
        tr.place(&topo, opts).map_err(|e| e.to_string())
    }
}

/// `coflow trace summarize FILE`.
fn trace_summarize(args: &Args, path: &str) -> Result<(), String> {
    args.finish()?;
    let (tr, declared) = load_trace(path)?;
    let s = tr.summary();
    println!("ports          {}", s.num_ports);
    if s.coflows == declared {
        println!("coflows        {}", s.coflows);
    } else {
        println!("coflows        {} (header declares {declared})", s.coflows);
    }
    println!("flows          {}", s.flows);
    println!(
        "single-flow    {} ({:.0}%)",
        s.single_flow,
        100.0 * s.single_flow as f64 / s.coflows.max(1) as f64
    );
    println!("max width      {}", s.max_width);
    println!("total shuffle  {:.1} MB", s.total_mb);
    println!("arrival span   {} ms", s.span_ms);
    println!(
        "port ids       {}-based",
        tr.port_base().map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `coflow trace convert FILE --output OUT`.
fn trace_convert(args: &Args, path: &str) -> Result<(), String> {
    let opts = replay_options(args)?;
    let (tr, _) = load_trace(path)?;
    let inst = trace_instance(&tr, args, &opts)?;
    let output: String = args.get("output", "-".into())?;
    args.finish()?;
    write_instance_path(&inst, &output).map_err(|e| e.to_string())?;
    eprintln!(
        "converted {} coflows / {} flows onto {} nodes",
        inst.num_coflows(),
        inst.num_flows(),
        inst.graph.node_count()
    );
    Ok(())
}

/// `coflow trace replay FILE --algo NAME`: replay the trace through any
/// registry algorithm. `--model auto` (the default) picks a routing
/// model from the algorithm's capability flags, so every registry entry
/// replays without per-algorithm knowledge.
fn trace_replay(args: &Args, path: &str) -> Result<(), String> {
    let opts = replay_options(args)?;
    let (tr, _) = load_trace(path)?;
    let inst = trace_instance(&tr, args, &opts)?;
    let algo: String = args.get("algo", "heuristic".into())?;
    let model: String = args.get("model", "auto".into())?;
    let knobs = solver_knobs(args)?;
    args.finish()?;

    let entry = registry::by_name(&algo).ok_or(format!(
        "unknown algorithm {algo:?} — run `coflow algos` for the list"
    ))?;
    let (routing, model_label) = match model.as_str() {
        "auto" => match entry.caps.routing {
            RoutingSupport::SinglePathOnly => {
                (single_path_routing(&inst, knobs.seed)?, "single (auto)")
            }
            RoutingSupport::FreePathOnly | RoutingSupport::Any => {
                (Routing::FreePath, "free (auto)")
            }
        },
        "free" => (Routing::FreePath, "free"),
        "single" => (single_path_routing(&inst, knobs.seed)?, "single"),
        "multi" => (
            routing::k_shortest_path_sets(&inst, knobs.k).map_err(|e| e.to_string())?,
            "multi",
        ),
        other => return Err(format!("unknown model {other:?} (auto|free|single|multi)")),
    };
    println!(
        "replaying      {} coflows / {} flows",
        inst.num_coflows(),
        inst.num_flows()
    );
    println!("model          {model_label}");
    dispatch(&inst, &routing, entry, &knobs.params, knobs.epsilon)
}

/// Maps the pre-registry `--algorithm` spellings onto registry names.
fn legacy_name(algorithm: &str, epsilon: f64) -> Result<String, String> {
    let interval = epsilon > 0.0;
    Ok(match algorithm {
        "heuristic" if interval => "interval-heuristic",
        "heuristic" => "heuristic",
        "stretch" if interval => "interval-stretch",
        "stretch" => "stretch",
        "lambda" if interval => "interval-fixed-lambda",
        "lambda" => "fixed-lambda",
        "derand" if interval => "interval-derand",
        "derand" => "derand",
        "primal-dual" => "primal-dual",
        // The legacy `sjf` always ran the Smith-ratio variant.
        "sjf" => "weighted-sjf",
        "batch-online" => "batch-online",
        other => {
            if registry::by_name(other).is_some() {
                other
            } else {
                return Err(format!(
                    "unknown algorithm {other:?} — run `coflow algos` for the list"
                ));
            }
        }
    }
    .to_string())
}

fn print_outcome(
    inst: &CoflowInstance,
    lower_bound: f64,
    cost: f64,
    completions: &coflow_core::schedule::Completions,
) {
    let ft = coflow_core::flowtime::flow_times(inst, completions);
    println!("lp bound       {lower_bound:.3}");
    println!("cost           {cost:.3}");
    println!("ratio          {:.4}", cost / lower_bound.max(1e-12));
    println!("makespan       {}", completions.makespan);
    println!(
        "flow time      {:.3} (max {:.0})",
        ft.weighted_total, ft.max
    );
}

fn load(args: &Args) -> Result<CoflowInstance, String> {
    let path = args
        .positional
        .first()
        .ok_or("an instance file is required (use '-' for stdin)")?;
    read_instance_path(path).map_err(|e| e.to_string())
}

fn parse_topology(name: &str, ports: usize) -> Result<Topology, String> {
    Ok(match name {
        "swan" => topology::swan(),
        "gscale" | "g-scale" => topology::gscale(),
        "abilene" => topology::abilene(),
        "nsfnet" => topology::nsfnet(),
        "fig2" => topology::fig2_example(),
        // 10 Gbps port-to-port fabric; `--slot-seconds` scales it like
        // the WANs.
        "switch" => topology::bipartite_switch(ports.max(1), 10.0),
        other => {
            return Err(format!(
                "unknown topology {other:?} (swan|gscale|abilene|nsfnet|fig2|switch)"
            ))
        }
    })
}

fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "bigbench" | "bb" => WorkloadKind::BigBench,
        "tpcds" | "tpc-ds" => WorkloadKind::TpcDs,
        "tpch" | "tpc-h" => WorkloadKind::TpcH,
        "fb" | "facebook" => WorkloadKind::Facebook,
        other => {
            return Err(format!(
                "unknown workload {other:?} (bigbench|tpcds|tpch|fb)"
            ))
        }
    })
}

/// `coflow serve`: run the streaming scheduler daemon — one protocol
/// session on stdin/stdout (the default), or a TCP listener with
/// `--listen ADDR`. See `coflow_service::protocol` for the line
/// protocol; `coflow feed` is the matching client.
///
/// # Errors
///
/// Usage or transport problems, as a printable message.
pub fn serve(args: &Args) -> Result<(), String> {
    use coflow_service::daemon::SessionOptions;
    use coflow_service::fault::FaultPlan;

    let listen: String = args.get("listen", String::new())?;
    let threads: usize = args.get("threads", 0)?;
    let journal: String = args.get("journal", String::new())?;
    let recover = args.switch("--recover");
    let max_solve_ms: f64 = args.get("max-solve-ms", 0.0)?;
    let fault_spec: String = args.get("fault-plan", String::new())?;
    let _ = args.switch("--stdin"); // stdin is the default; flag is documentation
    args.finish()?;
    if recover && journal.is_empty() {
        return Err("--recover needs --journal DIR (the directory to replay)".to_string());
    }
    let opts = SessionOptions {
        journal: (!journal.is_empty()).then(|| std::path::PathBuf::from(&journal)),
        recover,
        max_solve_ms: (max_solve_ms > 0.0).then_some(max_solve_ms),
        fault: FaultPlan::parse(&fault_spec)?,
    };
    if let Some(dir) = &opts.journal {
        std::fs::create_dir_all(dir).map_err(|e| format!("--journal {journal}: {e}"))?;
    }
    let rt = if threads == 0 {
        coflow_runtime::Runtime::new()
    } else {
        coflow_runtime::Runtime::with_workers(threads)
    };
    if listen.is_empty() {
        let summary =
            coflow_service::daemon::serve_stdin_with(&rt, opts).map_err(|e| e.to_string())?;
        eprintln!(
            "serve: {} tenants, {} coflows, {} errors",
            summary.tenants, summary.admitted, summary.errors
        );
        Ok(())
    } else {
        coflow_service::daemon::serve_tcp_with(&rt, &listen, opts).map_err(|e| e.to_string())
    }
}

/// `coflow feed`: replay a trace file against a running daemon and
/// echo the server's responses.
///
/// # Errors
///
/// Usage, parse, or socket problems, as a printable message.
pub fn feed(args: &Args) -> Result<(), String> {
    use coflow_service::engine::EpochPolicy;
    use coflow_service::feed::FeedOptions;
    use coflow_service::protocol::Tier;
    use coflow_service::shard::ShardSplit;

    let path = args
        .positional
        .first()
        .cloned()
        .ok_or("a trace file is required (use '-' for stdin)")?;
    let addr: String = args.get("addr", "127.0.0.1:7077".into())?;
    let dflt = FeedOptions::default();
    let opts = FeedOptions {
        tenant: args.get("tenant", dflt.tenant)?,
        policy: match args.get::<String>("policy", "event".into())?.as_str() {
            "event" => EpochPolicy::Event,
            "doubling" => EpochPolicy::Doubling,
            other => return Err(format!("unknown policy {other:?} (event|doubling)")),
        },
        shards: args.get("shards", dflt.shards)?,
        split: match args.get::<String>("split", "equal".into())?.as_str() {
            "equal" => ShardSplit::Equal,
            "prop" | "proportional" => ShardSplit::Proportional,
            other => return Err(format!("unknown split {other:?} (equal|prop)")),
        },
        cold: args.switch("--cold"),
        shadow_cold: args.switch("--shadow-cold"),
        plans: args.switch("--plans"),
        limit: args.get("limit", dflt.limit)?,
        ms_per_slot: args.get("ms-per-slot", dflt.ms_per_slot)?,
        mb_per_slot: args.get("mb-per-slot", dflt.mb_per_slot)?,
        scale: args.get("demand-scale", dflt.scale)?,
        tier: match args.get::<String>("tier", "lp".into())?.as_str() {
            "lp" => Tier::Lp,
            "ordering" => Tier::Ordering,
            other => return Err(format!("unknown tier {other:?} (lp|ordering)")),
        },
        fallback: args.switch("--fallback"),
        max_resolves: args.get("max-resolves", dflt.max_resolves)?,
        deadline_slack: args.get("deadline-slack", dflt.deadline_slack)?,
        max_solve_ms: args.get("max-solve-ms", dflt.max_solve_ms)?,
    };
    args.finish()?;
    let text = if path == "-" {
        let mut s = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut s)
            .map_err(|e| e.to_string())?;
        s
    } else {
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?
    };
    let mut stdout = std::io::stdout();
    let summary =
        coflow_service::feed::feed(&addr, &text, &opts, &mut stdout).map_err(|e| e.to_string())?;
    eprintln!(
        "feed: sent {} coflows, received {} lines, {} errors",
        summary.sent, summary.received, summary.errors
    );
    match summary.done {
        Some(_) => Ok(()),
        None => Err(format!("no DONE line for tenant {:?}", opts.tenant)),
    }
}

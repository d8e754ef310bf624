//! `coflow` — the command-line front end of the suite.
//!
//! ```text
//! coflow generate --topology swan --workload fb --jobs 20 --output inst.coflow
//! coflow info inst.coflow
//! coflow solve inst.coflow --model free --algorithm heuristic
//! coflow solve inst.coflow --model single --algorithm primal-dual
//! ```
//!
//! Instances travel as plain-text `.coflow` files
//! ([`coflow_core::io`]); every run is a pure function of the file and
//! the flags, so results are reproducible by pasting the command line.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
usage: coflow <command> [options]

commands:
  generate   synthesize a workload instance
             --topology swan|gscale|abilene|nsfnet|fig2|switch (swan)
             --workload bigbench|tpcds|tpch|fb            (fb)
             --scenario incast|broadcast|shuffle|allreduce|hotspot
                        (structured pattern instead of --workload)
             --fan N    scenario cardinality (fanin/fanout/workers/width)
             --stages K shuffle stages (3)  --flow-gb X (300)
             --ports N  switch port count (8)
             --jobs N (20)  --seed S (1)  --unweighted
             --interarrival SLOTS (1.0)  --slot-seconds S (50)
             --demand-scale X (0.05)     --output FILE|- (-)
             --deadline-slack F (0 = no deadlines; F scales each
                        coflow's bottleneck bound into its deadline)
  info FILE  print instance statistics
  algos      list every registered algorithm (name, kind, capabilities)
  solve FILE run an algorithm and report cost vs the LP bound
             --model free|single|multi                    (free)
             --algo NAME    any registry name (see `coflow algos`)
             --algorithm heuristic|stretch|lambda|derand|
                         primal-dual|sjf|batch-online     (heuristic;
                         legacy spellings — --epsilon > 0 selects the
                         interval-LP variants)
             --samples N (20)  --lambda X (1.0)  --k PATHS (3)
             --epsilon E (0 = time-indexed LP)  --seed S (1)
             --alpha A (0.5, jahanjou)
  trace <action> FILE   work with FB2010-format coflow traces
             summarize  stream the trace and print statistics
             convert    write the replayed instance as a .coflow file
                        --output FILE|- (-)
             replay     run a registry algorithm over the trace
                        --algo NAME (heuristic)
                        --model auto|free|single|multi (auto: pick from
                        the algorithm's capability flags)
                        solver knobs as for `solve`: --samples --lambda
                        --k --epsilon --alpha --seed
             shared replay knobs:
             --on switch|swan|gscale|abilene|nsfnet (switch)
             --ms-per-slot X (1000)  --mb-per-slot X (125; 125 MB = 1 Gb,
                        so demands are in Gb and 1 Gbps ports saturate)
             --demand-scale X (1.0)  --limit N (0 = all coflows)
             --weights unit|uniform (unit)  --seed S (1)
             --deadline-slack F (0 = no deadlines; F scales each
                        coflow's bottleneck bound into its deadline)

  serve      run the streaming scheduler daemon
             --listen ADDR  serve the line protocol over TCP
                        (default: one session on stdin/stdout, so
                        `coflow serve < trace.txt` replays a trace)
             --threads N    LP worker threads (0 = all cores)
             --journal DIR  write-ahead journal, one file per tenant
             --recover      replay unfinished tenants from --journal DIR
             --max-solve-ms F  per-epoch solve budget; a breach degrades
                        the tenant one rung (lp -> ordering -> shed)
             --fault-plan SPEC  deterministic fault injection, e.g.
                        'seed=7;engine-error=3;slow=2;garbage=4x2;disconnect=9'
             protocol: HELLO <tenant> <ports> [base=0|1]
                        [policy=event|doubling] [shards=G] [split=equal|prop]
                        [ms-per-slot=F] [mb-per-slot=F] [scale=F]
                        [tier=lp|ordering] [fallback=ordering|none]
                        [max-resolves=N] [deadline-slack=F] [max-solve-ms=F]
                        [cold] [shadow-cold] [plans],
                       then FB2010 coflow lines, then BYE
  feed FILE  replay a trace against a running daemon
             --addr HOST:PORT (127.0.0.1:7077)  --tenant NAME (feed)
             --policy event|doubling (event)  --shards G (1)
             --split equal|prop (equal)  --limit N (0 = all)
             --tier lp|ordering (lp)  --fallback  --max-resolves N (0 = off)
             --deadline-slack F (0 = no deadlines)
             --max-solve-ms F (0 = no per-epoch solve budget)
             --cold  --shadow-cold  --plans
             replay knobs as for `trace`: --ms-per-slot --mb-per-slot
             --demand-scale

FILE may be '-' for stdin.
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let result = Args::parse(&raw[1..]).and_then(|args| match command.as_str() {
        "generate" => commands::generate(&args),
        "info" => commands::info(&args),
        "algos" => commands::algos(&args),
        "solve" => commands::solve(&args),
        "trace" => commands::trace(&args),
        "serve" => commands::serve(&args),
        "feed" => commands::feed(&args),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    });
    if let Err(msg) = result {
        eprintln!("coflow: {msg}");
        eprintln!("run `coflow help` for usage");
        std::process::exit(1);
    }
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Exits non-zero on bad arguments.

const USAGE: &str = "usage: perfbench --workload offline_paper|serve_fleet \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let ok = match (flag.as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.clone());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| seconds = s)
                .is_some(),
            ("--trace", Some(v)) => match v.as_str() {
                "0" => {
                    trace = false;
                    true
                }
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let Some(outcome) = workload.and_then(|w| perfbench::run(&w, seed, seconds, trace)) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# CHECK FAILED: {problem}");
    }
    let names = perfbench::metric_names(trace);
    for (name, unit) in names {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("# {name:<26} {v:>16.6} {unit}");
    }
    println!("{}", outcome.json(names));
}

//! End-to-end tests spawning the actual `coflow` binary: generate →
//! info → solve pipelines over a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn coflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coflow"))
}

fn temp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("coflow-cli-test-{}-{name}", std::process::id()));
    p
}

fn run(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "command failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, stderr)
}

#[test]
fn generate_info_solve_roundtrip() {
    let file = temp_file("roundtrip.coflow");
    let _ = std::fs::remove_file(&file);

    let (_, gen_err) = run(coflow().args([
        "generate",
        "--topology",
        "fig2",
        "--workload",
        "fb",
        "--jobs",
        "4",
        "--seed",
        "3",
        "--interarrival",
        "0",
        "--demand-scale",
        "0.02",
        "--output",
        file.to_str().unwrap(),
    ]));
    assert!(gen_err.contains("generated 4 coflows"), "{gen_err}");

    let (info_out, _) = run(coflow().args(["info", file.to_str().unwrap()]));
    assert!(info_out.contains("coflows        4"), "{info_out}");
    assert!(info_out.contains("nodes          5"), "{info_out}");

    let (solve_out, _) = run(coflow().args([
        "solve",
        file.to_str().unwrap(),
        "--model",
        "free",
        "--algorithm",
        "heuristic",
    ]));
    assert!(solve_out.contains("lp bound"), "{solve_out}");
    assert!(solve_out.contains("cost"), "{solve_out}");
    // cost/bound ratio is printed and at least 1.
    let ratio_line = solve_out
        .lines()
        .find(|l| l.starts_with("ratio"))
        .expect("ratio line");
    let ratio: f64 = ratio_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(ratio >= 1.0 - 1e-9, "{ratio_line}");

    let _ = std::fs::remove_file(&file);
}

#[test]
fn stdin_stdout_piping_works() {
    // generate to stdout, solve from stdin.
    let gen = coflow()
        .args([
            "generate",
            "--topology",
            "fig2",
            "--jobs",
            "3",
            "--seed",
            "5",
            "--interarrival",
            "0",
            "--demand-scale",
            "0.02",
        ])
        .output()
        .expect("runs");
    assert!(gen.status.success());
    let text = String::from_utf8_lossy(&gen.stdout).into_owned();
    assert!(text.starts_with("coflow-instance v1"), "{text}");

    use std::io::Write;
    let mut child = coflow()
        .args(["solve", "-", "--algorithm", "lambda", "--lambda", "0.8"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(text.as_bytes())
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lp bound"), "{stdout}");
}

#[test]
fn every_algorithm_runs_on_a_tiny_instance() {
    let file = temp_file("algos.coflow");
    run(coflow().args([
        "generate",
        "--topology",
        "swan",
        "--jobs",
        "3",
        "--seed",
        "7",
        "--interarrival",
        "0.5",
        "--demand-scale",
        "0.01",
        "--output",
        file.to_str().unwrap(),
    ]));
    for (model, algo) in [
        ("free", "heuristic"),
        ("free", "stretch"),
        ("free", "derand"),
        ("free", "batch-online"),
        ("free", "sjf"),
        ("single", "primal-dual"),
        ("single", "heuristic"),
        ("multi", "heuristic"),
    ] {
        let (out, _) = run(coflow().args([
            "solve",
            file.to_str().unwrap(),
            "--model",
            model,
            "--algorithm",
            algo,
            "--samples",
            "5",
        ]));
        assert!(out.contains("cost"), "{model}/{algo}: {out}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn algos_lists_the_registry() {
    let (out, _) = run(coflow().arg("algos"));
    for name in [
        "heuristic",
        "stretch",
        "jahanjou",
        "terra",
        "primal-dual",
        "sjf",
        "weighted-sjf",
        "batch-online",
    ] {
        assert!(
            out.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "{name} missing from:\n{out}"
        );
    }
    // Capability columns are rendered.
    assert!(out.contains("lp-rounding"), "{out}");
    assert!(out.contains("single-path"), "{out}");
}

#[test]
fn algo_flag_dispatches_any_registry_name() {
    let file = temp_file("registry.coflow");
    run(coflow().args([
        "generate",
        "--topology",
        "swan",
        "--jobs",
        "3",
        "--seed",
        "11",
        "--interarrival",
        "0.5",
        "--demand-scale",
        "0.01",
        "--output",
        file.to_str().unwrap(),
    ]));
    for (model, algo) in [
        ("free", "terra"),
        ("free", "sjf"),
        ("single", "jahanjou"),
        ("single", "jahanjou-wc"),
        ("free", "interval-heuristic"),
        ("free", "online"),
    ] {
        let (out, _) = run(coflow().args([
            "solve",
            file.to_str().unwrap(),
            "--model",
            model,
            "--algo",
            algo,
        ]));
        assert!(out.contains("cost"), "{model}/{algo}: {out}");
        assert!(out.contains("lp bound"), "{model}/{algo}: {out}");
    }
    // Capability mismatches fail loudly instead of mis-scheduling.
    let out = coflow()
        .args([
            "solve",
            file.to_str().unwrap(),
            "--model",
            "free",
            "--algo",
            "jahanjou",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("single-path"));
    // Unknown names point at the listing.
    let out = coflow()
        .args([
            "solve",
            file.to_str().unwrap(),
            "--algo",
            "no-such-algorithm",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("coflow algos"));
    // Out-of-range --alpha is a clean error, not a panic.
    let out = coflow()
        .args([
            "solve",
            file.to_str().unwrap(),
            "--model",
            "single",
            "--algo",
            "jahanjou",
            "--alpha",
            "1.5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--alpha"));
    let _ = std::fs::remove_file(&file);
}

/// The bundled FB2010-format sample trace (also embedded as
/// `coflow_workloads::trace::FB2010_SAMPLE`).
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../workloads/fixtures/fb2010_sample.txt"
);

#[test]
fn trace_summarize_reports_the_fixture() {
    let (out, _) = run(coflow().args(["trace", "summarize", FIXTURE]));
    assert!(out.contains("ports          16"), "{out}");
    assert!(out.contains("coflows        20"), "{out}");
    assert!(out.contains("flows          58"), "{out}");
    assert!(out.contains("1-based"), "{out}");
}

#[test]
fn trace_convert_produces_a_solvable_instance() {
    let file = temp_file("trace-convert.coflow");
    // --seed is a shared replay knob and must be accepted even with the
    // default unit weights (regression: it was only consumed by
    // --weights uniform).
    run(coflow().args([
        "trace",
        "convert",
        FIXTURE,
        "--limit",
        "6",
        "--seed",
        "5",
        "--output",
        file.to_str().unwrap(),
    ]));
    let (out, _) = run(coflow().args(["info", file.to_str().unwrap()]));
    assert!(out.contains("coflows        6"), "{out}");
    let (out, _) = run(coflow().args(["solve", file.to_str().unwrap(), "--algo", "weighted-sjf"]));
    assert!(out.contains("cost"), "{out}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn trace_replay_auto_model_covers_every_registry_entry() {
    // The acceptance contract: `coflow trace replay --algo NAME` must
    // produce a validated schedule for every registry entry, with
    // `--model auto` resolving each entry's routing capability.
    for entry in coflow_baselines::registry::all() {
        let (out, _) = run(coflow().args([
            "trace",
            "replay",
            FIXTURE,
            "--algo",
            entry.name,
            "--limit",
            "6",
            "--samples",
            "3",
        ]));
        assert!(out.contains("cost"), "{}: {out}", entry.name);
        assert!(out.contains("lp bound"), "{}: {out}", entry.name);
        // Solvers never beat the LP bound of their own model.
        let ratio_line = out
            .lines()
            .find(|l| l.starts_with("ratio"))
            .unwrap_or_else(|| panic!("{}: no ratio in {out}", entry.name));
        let ratio: f64 = ratio_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio >= 1.0 - 1e-6, "{}: {ratio_line}", entry.name);
    }
}

#[test]
fn trace_replay_on_wan_and_with_uniform_weights() {
    let (out, _) = run(coflow().args([
        "trace",
        "replay",
        FIXTURE,
        "--on",
        "swan",
        "--algo",
        "weighted-sjf",
        "--weights",
        "uniform",
        "--limit",
        "8",
    ]));
    assert!(out.contains("model          free (auto)"), "{out}");
    // Bad trace inputs fail with line numbers.
    use std::io::Write;
    let mut child = coflow()
        .args(["trace", "summarize", "-"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"4 1\n1 0 1 9 1 1:5\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 2"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn scenario_generation_covers_the_library() {
    for scenario in ["incast", "broadcast", "shuffle", "allreduce", "hotspot"] {
        let file = temp_file(&format!("scen-{scenario}.coflow"));
        let (_, gen_err) = run(coflow().args([
            "generate",
            "--scenario",
            scenario,
            "--topology",
            "gscale",
            "--jobs",
            "3",
            "--seed",
            "5",
            "--demand-scale",
            "0.02",
            "--output",
            file.to_str().unwrap(),
        ]));
        assert!(gen_err.contains("generated"), "{scenario}: {gen_err}");
        let (out, _) = run(coflow().args(["solve", file.to_str().unwrap(), "--algo", "heuristic"]));
        assert!(out.contains("lp bound"), "{scenario}: {out}");
        let _ = std::fs::remove_file(&file);
    }
    // Shuffle emits one coflow per stage.
    let file = temp_file("scen-stages.coflow");
    run(coflow().args([
        "generate",
        "--scenario",
        "shuffle",
        "--stages",
        "4",
        "--jobs",
        "2",
        "--demand-scale",
        "0.02",
        "--output",
        file.to_str().unwrap(),
    ]));
    let (out, _) = run(coflow().args(["info", file.to_str().unwrap()]));
    assert!(out.contains("coflows        8"), "{out}");
    let _ = std::fs::remove_file(&file);
    // Unknown scenario names fail loudly.
    let out = coflow()
        .args(["generate", "--scenario", "gossip"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown command.
    let out = coflow().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    // Unknown topology.
    let out = coflow()
        .args(["generate", "--topology", "atlantis"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown topology"));
    // Unknown flag.
    let out = coflow()
        .args(["generate", "--bogus", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
    // Missing file.
    let out = coflow()
        .args(["info", "/nonexistent/path.coflow"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn removed_lp_flags_are_unknown_options() {
    // The LP has one configuration: the old engine, basis-update and
    // pricing selectors are rejected like any other unknown flag.
    let file = temp_file("lp-flags.coflow");
    run(coflow().args([
        "generate",
        "--topology",
        "fig2",
        "--jobs",
        "2",
        "--output",
        file.to_str().unwrap(),
    ]));
    for (flag, value) in [
        ("--lp-engine", "dense"),
        ("--basis-update", "eta"),
        ("--pricing", "dantzig"),
    ] {
        let out = coflow()
            .args(["solve", file.to_str().unwrap(), flag, value])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option"), "{flag}: {stderr}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn serve_replays_a_trace_from_stdin() {
    use std::io::Write;
    // The implicit-HELLO path: the raw fixture (header + coflow lines)
    // is a complete session, and EOF is a clean shutdown.
    let text = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let mut child = coflow()
        .args(["serve", "--stdin", "--threads", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(text.as_bytes())
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK tenant=default ports=16"), "{stdout}");
    assert!(stdout.contains("EPOCH tenant=default"), "{stdout}");
    assert!(
        stdout.contains("DONE tenant=default admitted=20 objective="),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 tenants, 20 coflows, 0 errors"),
        "{stderr}"
    );
}

#[test]
fn serve_and_feed_over_tcp() {
    use std::io::BufRead;
    let mut server = coflow()
        .args(["serve", "--listen", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    // The daemon prints `LISTENING <addr>` once the socket is bound.
    let mut server_out = std::io::BufReader::new(server.stdout.take().expect("piped"));
    let mut banner = String::new();
    server_out.read_line(&mut banner).expect("banner");
    let addr = banner
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let (out, err) = run(coflow().args([
        "feed",
        FIXTURE,
        "--addr",
        &addr,
        "--tenant",
        "e2e",
        "--limit",
        "8",
        "--shadow-cold",
    ]));
    assert!(out.contains("OK tenant=e2e ports=16"), "{out}");
    assert!(out.contains("EPOCH tenant=e2e"), "{out}");
    assert!(out.contains("cold-iters="), "{out}");
    assert!(
        out.contains("DONE tenant=e2e admitted=8 objective="),
        "{out}"
    );
    assert!(err.contains("sent 8 coflows"), "{err}");

    server.kill().expect("server stops");
    server.wait().expect("server reaped");
}

//! Crash recovery golden tests: a session killed mid-stream (the
//! in-process `disconnect` fault — the same code path `kill -9`
//! exercises, minus the process boundary) is resumed with `recover`,
//! and the recovered stream's per-epoch objectives and final `DONE`
//! objective must be identical to an uninterrupted run's at 1e-6.
//!
//! Identity holds because the journal stores the resolver's own
//! activation/fix logs: recovery rebuilds the same LPs (bit-identical
//! models, or — after a live model grew its horizon in place — the same
//! constraints in a different row and column order) and the LP optimum
//! is unique, so only basis trajectories (never objectives) can differ.

use coflow_runtime::Runtime;
use coflow_service::daemon::{session_with, SessionOptions, SessionSummary};
use coflow_service::fault::FaultPlan;
use coflow_workloads::trace::FB2010_SAMPLE;
use std::path::PathBuf;

fn run(input: &str, opts: SessionOptions) -> (SessionSummary, String) {
    let rt = Runtime::with_workers(2);
    let mut out = Vec::new();
    let summary = session_with(&rt, input.as_bytes(), &mut out, opts).expect("in-memory session");
    (summary, String::from_utf8(out).expect("utf8 responses"))
}

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coflow-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    dir
}

/// The bundled fixture's non-empty lines: its header, then one line per coflow.
fn fixture_lines() -> Vec<&'static str> {
    FB2010_SAMPLE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect()
}

fn input_from(lines: &[&str]) -> String {
    let mut s = lines.join("\n");
    s.push('\n');
    s
}

/// `(epoch, objective)` pairs for one tenant, in emission order.
fn epoch_objectives(out: &str, tenant: &str) -> Vec<(usize, f64)> {
    let prefix = format!("EPOCH tenant={tenant} ");
    out.lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| {
            let field = |key: &str| {
                l.split_whitespace()
                    .find_map(|tok| tok.strip_prefix(key))
                    .unwrap_or_else(|| panic!("{key} missing in {l}"))
            };
            (
                field("epoch=").parse().expect("epoch index"),
                field("objective=").parse().expect("epoch objective"),
            )
        })
        .collect()
}

fn done_objective(out: &str, tenant: &str) -> f64 {
    let prefix = format!("DONE tenant={tenant} ");
    let line = out
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no DONE for {tenant} in:\n{out}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix("objective="))
        .expect("DONE objective")
        .parse()
        .expect("DONE objective parses")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + b.abs())
}

/// Streams the fixture's first `take` coflows uninterrupted, then again
/// journaled with a crash after `crashed` coflows; hands the crashed
/// journal to `inspect`, recovers the rest of the stream from it, and
/// checks that every epoch objective and the `DONE` objective equal the
/// uninterrupted run's at 1e-6.
fn assert_recovery_matches(take: usize, crashed: usize, tag: &str, inspect: impl FnOnce(&str)) {
    let lines = fixture_lines();
    let full: Vec<&str> = lines[..=take].to_vec();
    let golden_input = input_from(&full);

    // Golden: one uninterrupted run, no journal.
    let (golden_summary, golden_out) = run(&golden_input, SessionOptions::default());
    assert_eq!(golden_summary.admitted, take, "{golden_out}");
    let golden_epochs = epoch_objectives(&golden_out, "default");
    assert!(!golden_epochs.is_empty(), "{golden_out}");

    // Crashed: same stream, journaled, killed after `crashed` coflows
    // (line 1 is the header).
    let dir = journal_dir(tag);
    let crash_opts = SessionOptions {
        journal: Some(dir.clone()),
        fault: FaultPlan::parse(&format!("disconnect={}", crashed + 1)).expect("valid plan"),
        ..SessionOptions::default()
    };
    let (crash_summary, crash_out) = run(&golden_input, crash_opts);
    assert_eq!(crash_summary.admitted, crashed, "{crash_out}");
    assert!(!crash_out.contains("DONE"), "{crash_out}");
    inspect(&std::fs::read_to_string(dir.join("default.journal")).expect("crashed journal"));

    // Recovered: replay the journal, then feed the rest of the stream.
    let mut rec_lines: Vec<&str> = vec![full[0]]; // re-HELLO (implicit header)
    rec_lines.extend_from_slice(&full[crashed + 1..]);
    let rec_opts = SessionOptions {
        journal: Some(dir.clone()),
        recover: true,
        ..SessionOptions::default()
    };
    let (rec_summary, rec_out) = run(&input_from(&rec_lines), rec_opts);
    assert_eq!(rec_summary.errors, 0, "{rec_out}");
    assert!(
        rec_out.contains(&format!(
            "INFO tenant=default recovered=1 arrivals={crashed}"
        )),
        "{rec_out}"
    );

    // The recovered stream re-emits the journaled epochs and continues:
    // the full objective sequence must equal the golden run's.
    let rec_epochs = epoch_objectives(&rec_out, "default");
    assert_eq!(
        rec_epochs.len(),
        golden_epochs.len(),
        "epoch counts diverged\ngolden:\n{golden_out}\nrecovered:\n{rec_out}"
    );
    for ((ge, go), (re, ro)) in golden_epochs.iter().zip(&rec_epochs) {
        assert_eq!(ge, re, "epoch indices diverged");
        assert!(close(*ro, *go), "epoch {ge}: golden {go} vs recovered {ro}");
    }
    assert!(
        close(
            done_objective(&rec_out, "default"),
            done_objective(&golden_out, "default")
        ),
        "DONE objectives diverged\ngolden:\n{golden_out}\nrecovered:\n{rec_out}"
    );
    // The recovered DONE advertises how much came from the journal.
    let done = rec_out
        .lines()
        .find(|l| l.starts_with("DONE tenant=default"))
        .expect("recovered DONE");
    assert!(done.contains("recovered-epochs="), "{done}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_lp_session_matches_the_uninterrupted_run() {
    // 12 coflows keep the test fast; the crash comes after the 6th.
    assert_recovery_matches(12, 6, "lp", |_| {});
}

#[test]
fn recovery_after_in_place_horizon_growth_matches_the_uninterrupted_run() {
    // The whole fixture outgrows its first horizon at the 14th coflow;
    // the crash comes after the 16th, so the crashed run's model grew in
    // place while recovery rebuilds it from the logs at the grown
    // horizon.
    assert_recovery_matches(20, 16, "grown", |journal| {
        let mut horizons: Vec<&str> = journal
            .lines()
            .filter(|l| l.starts_with("STATE "))
            .filter_map(|l| {
                l.split_whitespace()
                    .find_map(|t| t.strip_prefix("horizons="))
            })
            .filter(|h| !h.is_empty())
            .collect();
        horizons.dedup();
        assert!(
            horizons.len() >= 2,
            "the horizon never grew before the crash: {horizons:?}"
        );
    });
}

#[test]
fn cleanly_finished_journals_are_not_resurrected() {
    let lines = fixture_lines();
    let full: Vec<&str> = lines[..=4].to_vec();
    let dir = journal_dir("clean");
    let opts = SessionOptions {
        journal: Some(dir.clone()),
        ..SessionOptions::default()
    };
    let (summary, out) = run(&input_from(&full), opts);
    assert_eq!(summary.admitted, 4, "{out}");
    assert!(out.contains("DONE tenant=default"), "{out}");

    // A recover session over the same directory finds only the DONE
    // marker and starts fresh.
    let rec_opts = SessionOptions {
        journal: Some(dir.clone()),
        recover: true,
        ..SessionOptions::default()
    };
    let (rec_summary, rec_out) = run("BYE\n", rec_opts);
    assert_eq!(rec_summary.tenants, 0, "{rec_out}");
    assert!(!rec_out.contains("recovered=1"), "{rec_out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ordering_tier_recovery_keeps_the_arrival_backlog() {
    let dir = journal_dir("ordering");
    let crash_opts = SessionOptions {
        journal: Some(dir.clone()),
        fault: FaultPlan::parse("disconnect=3").expect("valid plan"),
        ..SessionOptions::default()
    };
    let input = "HELLO t 4 base=0 tier=ordering\n\
                 c1 0 1 0 1 2:125\n\
                 c2 0 1 1 1 3:125\n\
                 c3 0 1 0 1 3:125\n\
                 BYE\n";
    let (crash_summary, crash_out) = run(input, crash_opts);
    assert_eq!(crash_summary.admitted, 2, "{crash_out}");
    assert!(!crash_out.contains("DONE"), "{crash_out}");

    let rec_opts = SessionOptions {
        journal: Some(dir.clone()),
        recover: true,
        ..SessionOptions::default()
    };
    let rec_input = "HELLO t 4 base=0 tier=ordering\n\
                     c3 0 1 0 1 3:125\n\
                     BYE\n";
    let (rec_summary, rec_out) = run(rec_input, rec_opts);
    assert_eq!(rec_summary.errors, 0, "{rec_out}");
    assert!(
        rec_out.contains("recovered=1 arrivals=2 epochs=0 tier=ordering"),
        "{rec_out}"
    );
    // The two journaled arrivals plus the re-fed third all schedule.
    assert!(rec_out.contains("DONE tenant=t admitted=3"), "{rec_out}");
    assert!(rec_out.contains("tier=ordering"), "{rec_out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_survives_a_corrupt_journal_file() {
    let dir = journal_dir("corrupt");
    std::fs::write(dir.join("bad.journal"), "HELLO t 4\nADMIT broken\nSTATE\n")
        .expect("write corrupt journal");
    let rec_opts = SessionOptions {
        journal: Some(dir.clone()),
        recover: true,
        ..SessionOptions::default()
    };
    // The corrupt file is reported as an ERR line; the session itself
    // keeps working.
    let (summary, out) = run("HELLO fresh 4 base=0\nc1 0 1 0 1 2:125\nBYE\n", rec_opts);
    assert_eq!(summary.errors, 1, "{out}");
    assert!(out.contains("ERR recover:"), "{out}");
    assert!(out.contains("DONE tenant=fresh admitted=1"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

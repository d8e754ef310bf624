//! `serve_fleet`: in-memory `coflow serve` sessions driven by one
//! closed-loop client.
//!
//! The client lives inside the session's reader and writer: the reader
//! hands the session its next request line only after the previous
//! response was flushed, and stamps the hand-off; the writer stamps each
//! flush. A request's latency is the time between the two.

use crate::gen::{fleet_session, warmup_session, Kind, Session};
use crate::span::{maybe, maybe_id, Tracer};
use crate::stats::{peak_rss_mb, percentile};
use crate::{Outcome, Setups};
use coflow_lp::SolveStats;
use coflow_runtime::Runtime;
use coflow_service::daemon::{session_with, SessionOptions};
use coflow_service::engine::{validate_port_coflow, ServiceOutcome, TenantEngine};
use coflow_service::journal::{self, JournalWriter};
use coflow_service::ladder::Ladder;
use coflow_service::metrics::ServiceMetrics;
use coflow_service::protocol::{
    done_line, epoch_line, parse_request, rate_lines, to_port_coflow, DoneExtras, Hello, Request,
    Tier,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Decision samples a run collects at least, so that the p90 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 100;

/// Sessions every run completes; `sum_wc` sums their objectives, so it
/// does not depend on how many sessions fit in the run.
const MIN_SESSIONS: usize = 3;
/// Sessions generated during set-up; a run that serves more generates
/// the rest between sessions, outside the timed phase.
const POOL: usize = 16;
/// The workload's name, for its scratch files.
const NAME: &str = "serve_fleet";

/// The session's input: hands out one line per read cycle and stamps
/// the hand-off.
struct Feed<'a> {
    session: &'a Session,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    handoff: Vec<Instant>,
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            if let Some(line) = self.session.lines.get(self.next) {
                self.buf.clear();
                self.buf.extend_from_slice(line.text.as_bytes());
                self.buf.push(b'\n');
                self.pos = 0;
                self.next += 1;
                self.handoff.push(Instant::now());
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// One flushed response.
struct Flush {
    at: Instant,
    epochs: usize,
    errors: usize,
}

/// The session's output: stamps each flush, then classifies the lines
/// it carried.
#[derive(Default)]
struct Sink {
    buf: Vec<u8>,
    flushes: Vec<Flush>,
    /// `(tenant, admitted, objective)` per `DONE` line.
    dones: Vec<(String, usize, f64)>,
    errors: Vec<String>,
    bytes: usize,
}

impl Write for Sink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let at = Instant::now();
        let text = String::from_utf8_lossy(&self.buf);
        let (mut epochs, mut errors) = (0, 0);
        for line in text.lines() {
            if line.starts_with("EPOCH ") {
                epochs += 1;
            } else if line.starts_with("ERR") {
                errors += 1;
                self.errors.push(line.to_string());
            } else if line.starts_with("DONE ") {
                self.dones.push(parse_done(line));
            }
        }
        self.bytes += self.buf.len();
        self.buf.clear();
        self.flushes.push(Flush { at, epochs, errors });
        Ok(())
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn parse_done(line: &str) -> (String, usize, f64) {
    (
        field(line, "tenant").unwrap_or("?").to_string(),
        field(line, "admitted")
            .and_then(|v| v.parse().ok())
            .unwrap_or(usize::MAX),
        field(line, "objective")
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN),
    )
}

/// A finished session as the client saw it.
struct Served {
    handoff: Vec<Instant>,
    sink: Sink,
    start: Instant,
    end: Instant,
}

/// Runs one session to its `BYE` with a journal under `dir`.
fn serve(rt: &Runtime, session: &Session, dir: &Path) -> std::io::Result<Served> {
    std::fs::create_dir_all(dir)?;
    let opts = SessionOptions {
        journal: Some(dir.to_path_buf()),
        ..SessionOptions::default()
    };
    let mut feed = Feed {
        session,
        next: 0,
        buf: Vec::new(),
        pos: 0,
        handoff: Vec::with_capacity(session.lines.len()),
    };
    let mut sink = Sink::default();
    let start = Instant::now();
    session_with(rt, &mut feed, &mut sink, opts)?;
    let end = Instant::now();
    Ok(Served {
        handoff: feed.handoff,
        sink,
        start,
        end,
    })
}

/// Checks a served session: one response per request, no `ERR`, a
/// `DONE` line per tenant with every coflow admitted and a finite
/// objective, and every tenant journal read back with its `DONE` seal.
/// Returns the failed ops.
fn check_served(o: &mut Outcome, session: &Session, served: &Served, dir: &Path) -> u64 {
    let mut failed = 0u64;
    o.check(served.sink.flushes.len() == session.lines.len(), || {
        format!(
            "{} responses for {} requests",
            served.sink.flushes.len(),
            session.lines.len()
        )
    });
    for e in &served.sink.errors {
        o.problems.push(format!("response: {e}"));
    }
    failed += served.sink.errors.len() as u64;
    for (k, name) in session.tenants.iter().enumerate() {
        let done = served.sink.dones.iter().find(|d| &d.0 == name);
        match done {
            None => {
                failed += 1;
                o.problems.push(format!("tenant {name}: no DONE line"));
            }
            Some(d) => {
                o.check(d.1 == session.coflows[k], || {
                    format!("tenant {name}: admitted {} of {}", d.1, session.coflows[k])
                });
                o.check(d.2.is_finite(), || {
                    format!("tenant {name}: DONE objective is not a finite number")
                });
            }
        }
        let path = dir.join(journal::journal_file_name(name));
        match journal::read_journal(&path) {
            Ok(rec) => {
                o.check(rec.done, || {
                    format!("tenant {name}: journal has no DONE seal")
                });
                o.check(rec.arrivals.len() == session.coflows[k], || {
                    format!(
                        "tenant {name}: journal holds {} arrivals",
                        rec.arrivals.len()
                    )
                });
            }
            Err(e) => o.problems.push(format!("tenant {name}: journal: {e}")),
        }
    }
    failed
}

/// A scratch directory inside the working directory, removed at the end
/// of the run.
fn scratch_dir(name: &str) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("{name}-{}", std::process::id()))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::default();
    let root = scratch_dir(NAME);

    // Set-up: generate the inputs, create the runtime and the journal
    // directory, and serve one small warm-up session.
    let mut warmup = Outcome::default();
    let mut rep = 0usize;
    let mut setup = || {
        let sessions: Vec<Session> = (0..POOL).map(|k| fleet_session(seed, k)).collect();
        let rt = Runtime::with_workers(1);
        let warm = warmup_session();
        let dir = root.join(format!("warmup-{rep}"));
        rep += 1;
        match serve(&rt, &warm, &dir) {
            Ok(served) => {
                let failed = check_served(&mut warmup, &warm, &served, &dir);
                warmup.check(failed == 0, || "warm-up session failed".into());
            }
            Err(e) => warmup.problems.push(format!("warm-up session: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        (sessions, rt)
    };

    if trace {
        let (sessions, rt) = setup();
        run_traced(&mut o, &rt, &sessions[..MIN_SESSIONS], &root);
    } else {
        let mut setups = Setups::new(seconds, setup);
        let (sessions, rt) = setups.run();
        run_timed(&mut o, seed, &rt, &sessions, seconds, &root, &mut setups);
        o.set("setup_s", setups.median());
    }
    o.problems.append(&mut warmup.problems);
    if let Err(e) = std::fs::remove_dir_all(&root) {
        o.notes
            .push(format!("could not remove {}: {e}", root.display()));
    }
    // Removes `.perfbench_tmp` too unless another run still uses it.
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    o
}

/// The untraced run: whole sessions back to back until `seconds` have
/// passed, at least `MIN_SESSIONS` and `MIN_SAMPLES` decisions. The
/// timed phase is the sessions themselves, from the first request line
/// to the flushed `BYE` response; the checks and the set-ups repeated
/// between sessions are not timed.
fn run_timed<T>(
    o: &mut Outcome,
    seed: u64,
    rt: &Runtime,
    pool: &[Session],
    seconds: f64,
    root: &Path,
    setups: &mut Setups<impl FnMut() -> T>,
) {
    let mut lat = Vec::new();
    let mut ack = Vec::new();
    let mut admitted = 0usize;
    let mut sum_wc = 0.0;
    let start = Instant::now();
    let mut wall = 0.0;
    let mut k = 0usize;
    let mut first_dones = Vec::new();
    while k < MIN_SESSIONS || lat.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        let generated;
        let session = match pool.get(k) {
            Some(s) => s,
            None => {
                generated = fleet_session(seed, k);
                &generated
            }
        };
        let dir = root.join(format!("session-{k}"));
        let served = match serve(rt, session, &dir) {
            Ok(s) => s,
            Err(e) => {
                o.problems.push(format!("session {k}: {e}"));
                o.failed += 1;
                break;
            }
        };
        wall += served.end.duration_since(served.start).as_secs_f64();
        o.attempted += session.coflow_lines() as u64;
        o.failed += check_served(o, session, &served, &dir);
        for ((line, at), f) in session
            .lines
            .iter()
            .zip(&served.handoff)
            .zip(&served.sink.flushes)
        {
            if line.kind != Kind::Coflow || f.errors > 0 {
                continue;
            }
            let ms = f.at.duration_since(*at).as_secs_f64() * 1e3;
            if f.epochs > 0 {
                lat.push(ms);
            } else {
                ack.push(ms);
            }
        }
        for d in &served.sink.dones {
            admitted += d.1;
            if k < MIN_SESSIONS {
                sum_wc += d.2;
            }
        }
        if k == 0 {
            first_dones = served.sink.dones;
        }
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
        setups.catch_up(start.elapsed().as_secs_f64());
    }
    // After the timed phase: the served objectives must match a replay
    // through the layer functions; the first tenant stands for the run.
    match replay(rt, &pool[0], Some(0), &root.join("replay"), None) {
        Ok(r) => compare_done(o, &first_dones, &r, 1),
        Err(e) => o.problems.push(format!("replay: {e}")),
    }
    o.set("coflows_per_s", admitted as f64 / wall);
    o.set("latency_ms_p50", percentile(&lat, 50.0));
    o.set("latency_ms_p90", percentile(&lat, 90.0));
    o.set("ack_ms_p50", percentile(&ack, 50.0));
    o.set("sum_wc", sum_wc);
    o.set("peak_rss_mb", peak_rss_mb());
    o.notes.push(format!(
        "sessions {k}, coflow requests {}, decision samples {}, ack samples {}, wall {wall:.3} s, error_rate {}",
        o.attempted,
        lat.len(),
        ack.len(),
        o.failed as f64 / o.attempted.max(1) as f64
    ));
}

/// Compares the served `DONE` objectives with a replay's (the replay's
/// tenants are a prefix of the session's); `expect` tenants must match.
fn compare_done(o: &mut Outcome, dones: &[(String, usize, f64)], r: &Replayed, expect: usize) {
    o.check(r.objectives.len() == expect, || {
        format!(
            "replay finished {} tenants, expected {expect}",
            r.objectives.len()
        )
    });
    for (name, obj) in &r.objectives {
        match dones.iter().find(|d| &d.0 == name) {
            Some(d) => o.check((d.2 - obj).abs() <= 1e-6, || {
                format!("tenant {name}: DONE objective {} but replay {obj}", d.2)
            }),
            None => o
                .problems
                .push(format!("tenant {name}: replayed but no DONE")),
        }
    }
}

/// The traced run: each base session served untraced for reference,
/// then replayed through the layer functions with spans.
fn run_traced(o: &mut Outcome, rt: &Runtime, sessions: &[Session], root: &Path) {
    let mut tr = Tracer::new();
    let mut r = Replayed::default();
    let (mut untraced, mut traced, mut bytes) = (0.0, 0.0, 0usize);
    for (k, session) in sessions.iter().enumerate() {
        let dir = root.join(format!("reference-{k}"));
        let served = match serve(rt, session, &dir) {
            Ok(s) => s,
            Err(e) => {
                o.problems.push(format!("reference session {k}: {e}"));
                o.failed += 1;
                return;
            }
        };
        o.attempted += session.coflow_lines() as u64;
        o.failed += check_served(o, session, &served, &dir);
        untraced += served.end.duration_since(served.start).as_secs_f64();
        bytes += served.sink.bytes;

        let t = Instant::now();
        let replayed = replay(rt, session, None, &root.join("traced"), Some(&mut tr));
        traced += t.elapsed().as_secs_f64();
        match replayed {
            Ok(one) => {
                compare_done(o, &served.sink.dones, &one, session.tenants.len());
                r.add(one);
            }
            Err(e) => {
                o.problems.push(format!("traced replay {k}: {e}"));
                return;
            }
        }
    }

    let lines = sessions.iter().map(|s| s.lines.len()).sum::<usize>() as f64;
    let coflows = sessions.iter().map(Session::coflow_lines).sum::<usize>() as f64;
    let self_ns = tr.self_ns();
    let op_ns = |layer: &str, ops: &[&str]| -> f64 {
        self_ns
            .iter()
            .filter(|((l, op), _)| *l == layer && ops.contains(op))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let s = &r.stats;
    o.set("lp.iterations", r.iterations as f64);
    o.set(
        "lp.us_per_iter",
        r.epoch_ms * 1e3 / r.iterations.max(1) as f64,
    );
    o.set(
        "lp.refactors",
        (s.refactor_interval + s.refactor_fill + s.refactor_unstable) as f64,
    );
    o.set("lp.ftran_nnz", s.ftran_nnz as f64);
    o.set("lp.btran_nnz", s.btran_nnz as f64);
    o.set("lp.update_nnz", s.update_nnz as f64);
    o.set("lp.peak_alloc_bytes", s.peak_alloc_bytes as f64);
    o.set("lp.distress_retries", s.distress_retries as f64);
    o.set("lp.dense_fallbacks", s.dense_fallbacks as f64);
    o.set("resolver.epochs", r.epochs as f64);
    o.set("resolver.epoch_ms", r.epoch_ms);
    o.set(
        "resolver.iters_per_epoch",
        r.iterations as f64 / r.epochs.max(1) as f64,
    );
    o.set(
        "resolver.warm_share",
        r.warm_epochs as f64 / r.epochs.max(1) as f64,
    );
    o.set("resolver.rebuilds", r.rebuilds as f64);
    let (admit_ns, admits) = tr.inclusive("engine", "admit");
    let (finish_ns, finishes) = tr.inclusive("engine", "finish");
    o.set(
        "engine.admit_ms",
        admit_ns as f64 / 1e6 / admits.max(1) as f64,
    );
    o.set(
        "engine.finish_ms",
        finish_ns as f64 / 1e6 / finishes.max(1) as f64,
    );
    o.set(
        "protocol.parse_us",
        op_ns("protocol", &["parse_request", "to_port_coflow"]) / 1e3 / lines,
    );
    o.set(
        "protocol.format_us",
        op_ns("protocol", &["epoch_line", "rate_lines", "done_line"]) / 1e3 / lines,
    );
    o.set("protocol.response_bytes", bytes as f64);
    o.set(
        "journal.append_us",
        tr.layer_ns("journal") as f64 / 1e3 / coflows,
    );
    o.set("journal.bytes", r.journal_bytes as f64);
    o.set("journal.commits", r.commits as f64);
    o.trace_summary(&tr, traced, untraced, NAME);
}

/// One tenant of a replay.
struct Tenant {
    hello: Hello,
    engine: TenantEngine,
    ladder: Ladder,
    metrics: ServiceMetrics,
    ids: Vec<String>,
    journal: JournalWriter,
    cursor: coflow_service::engine::RecoveryCursor,
}

/// What a replay produced.
#[derive(Default)]
struct Replayed {
    /// `(tenant, objective)` per finished tenant, in creation order.
    objectives: Vec<(String, f64)>,
    iterations: usize,
    epochs: usize,
    warm_epochs: usize,
    epoch_ms: f64,
    rebuilds: usize,
    stats: SolveStats,
    commits: usize,
    journal_bytes: u64,
}

/// Drives `session` (or only tenant `only`) through the layer functions
/// in the daemon's order, with a span around each call when tracing.
fn replay(
    rt: &Runtime,
    session: &Session,
    only: Option<usize>,
    dir: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<Replayed, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Replayed::default();
    let mut tenants: BTreeMap<String, Tenant> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut current: Option<String> = None;
    let io = |e: std::io::Error| format!("journal: {e}");

    for line in &session.lines {
        if only.is_some_and(|k| line.kind != Kind::Bye && line.tenant != k) {
            continue;
        }
        if let Some(t) = tr.as_deref_mut() {
            t.next_request();
        }
        let ports = current
            .as_ref()
            .and_then(|c| tenants.get(c))
            .map(|t| t.hello.ports);
        let request = maybe(&mut tr, "protocol", "parse_request", || {
            parse_request(&line.text, ports)
        })?;
        match request {
            Request::Empty => {}
            Request::Hello(hello) => {
                let name = hello.tenant.clone();
                if !tenants.contains_key(&name) {
                    let mut journal = maybe(&mut tr, "journal", "create", || {
                        JournalWriter::create(dir, &name)
                    })
                    .map_err(io)?;
                    let engine = maybe(&mut tr, "engine", "new", || {
                        TenantEngine::new(hello.ports, hello.engine_config())
                    });
                    let ladder = Ladder::new(hello.tier);
                    maybe(&mut tr, "journal", "event", || {
                        journal.event(&format!("HELLO {}", line.text))
                    })
                    .map_err(io)?;
                    maybe(&mut tr, "journal", "commit", || {
                        journal.commit(&engine.state(), &ladder)
                    })
                    .map_err(io)?;
                    out.commits += 1;
                    order.push(name.clone());
                    tenants.insert(
                        name.clone(),
                        Tenant {
                            hello,
                            engine,
                            ladder,
                            metrics: ServiceMetrics::default(),
                            ids: Vec::new(),
                            journal,
                            cursor: Default::default(),
                        },
                    );
                }
                current = Some(name);
            }
            Request::Coflow(c) => {
                let name = current.clone().ok_or("coflow before HELLO")?;
                let t = tenants.get_mut(&name).ok_or("unknown tenant")?;
                let pc = maybe(&mut tr, "protocol", "to_port_coflow", || {
                    to_port_coflow(&c, &t.hello)
                })?;
                maybe(&mut tr, "engine", "validate_port_coflow", || {
                    validate_port_coflow(t.hello.ports, &pc)
                })
                .map_err(|e| e.to_string())?;
                maybe(&mut tr, "journal", "admit_line", || {
                    t.journal.event(&journal::admit_line(&pc))
                })
                .map_err(io)?;
                t.ids.push(c.id.clone());
                let a = t.ladder.engine_next;
                let (admitted, admit) =
                    maybe_id(&mut tr, "engine", "admit", || t.engine.admit(rt, pc));
                admitted.map_err(|e| format!("{name}: admit: {e}"))?;
                t.ladder.engine_next = a + 1;
                let rel = t.engine.releases().last().copied().unwrap_or(0);
                maybe(&mut tr, "journal", "engadm_line", || {
                    t.journal.event(&journal::engadm_line(a, rel))
                })
                .map_err(io)?;
                after_round(t, &name, admit, &mut tr, &mut out).map_err(io)?;
                maybe(&mut tr, "journal", "commit", || {
                    t.journal.commit(&t.engine.state(), &t.ladder)
                })
                .map_err(io)?;
                out.commits += 1;
            }
            Request::Bye => {
                for name in &order {
                    let t = tenants.get_mut(name).ok_or("unknown tenant")?;
                    let (finished, finish) =
                        maybe_id(&mut tr, "engine", "finish", || t.engine.finish(rt));
                    let outcome = finished.map_err(|e| format!("{name}: finish: {e}"))?;
                    after_round(t, name, finish, &mut tr, &mut out).map_err(io)?;
                    let extras = DoneExtras {
                        tier: Tier::Lp,
                        ..DoneExtras::default()
                    };
                    black_box(maybe(&mut tr, "protocol", "done_line", || {
                        done_line(name, &outcome, &t.metrics, 0.0, &extras)
                    }));
                    maybe(&mut tr, "journal", "commit", || {
                        t.journal.commit(&t.engine.state(), &t.ladder)
                    })
                    .map_err(io)?;
                    maybe(&mut tr, "journal", "finish", || t.journal.finish()).map_err(io)?;
                    out.commits += 1;
                    add_outcome(&mut out, &outcome);
                    out.objectives.push((name.clone(), outcome.objective));
                    out.journal_bytes += std::fs::metadata(t.journal.path())
                        .map(|m| m.len())
                        .unwrap_or(0);
                }
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

impl Replayed {
    /// Folds another replay's counters into this one.
    fn add(&mut self, other: Replayed) {
        self.objectives.extend(other.objectives);
        self.iterations += other.iterations;
        self.epochs += other.epochs;
        self.warm_epochs += other.warm_epochs;
        self.epoch_ms += other.epoch_ms;
        self.rebuilds += other.rebuilds;
        self.stats.merge(&other.stats);
        self.commits += other.commits;
        self.journal_bytes += other.journal_bytes;
    }
}

fn add_outcome(out: &mut Replayed, outcome: &ServiceOutcome) {
    out.iterations += outcome.lp_iterations;
    out.rebuilds += outcome.rebuilds;
    out.stats.merge(&outcome.lp_stats);
}

/// The daemon's post-admission round: take the epoch reports (emitted
/// and journaled), then journal the resolver delta. The reports' own
/// wall times become `resolver` spans inside the engine call `parent`.
fn after_round(
    t: &mut Tenant,
    name: &str,
    parent: Option<usize>,
    tr: &mut Option<&mut Tracer>,
    out: &mut Replayed,
) -> std::io::Result<()> {
    let reports = maybe(tr, "engine", "take_reports", || t.engine.take_reports());
    let epoch_ms: f64 = reports.iter().map(|r| r.wall_ms).sum();
    if let (Some(tr), Some(p)) = (tr.as_deref_mut(), parent) {
        tr.inner(p, "resolver", "epochs", epoch_ms);
    }
    for report in &reports {
        t.metrics.observe(report);
        out.epochs += 1;
        out.warm_epochs += usize::from(report.warm);
        out.epoch_ms += report.wall_ms;
        maybe(tr, "journal", "report_line", || {
            t.journal.event(&journal::report_line(report))
        })?;
        black_box(maybe(tr, "protocol", "epoch_line", || {
            epoch_line(name, report)
        }));
        black_box(maybe(tr, "protocol", "rate_lines", || {
            rate_lines(name, &t.ids, report)
        }));
    }
    if t.cursor.is_fresh() {
        if let Some(shares) = t.engine.egress_shares() {
            let line = journal::cores_line(shares);
            maybe(tr, "journal", "cores_line", || t.journal.event(&line))?;
        }
    }
    let deltas = maybe(tr, "engine", "drain_recovery", || {
        t.engine.drain_recovery(&mut t.cursor)
    });
    for (g, delta) in deltas.iter().enumerate() {
        maybe(tr, "journal", "delta_lines", || {
            journal::delta_lines(g, delta)
                .iter()
                .try_for_each(|l| t.journal.event(l))
        })?;
    }
    Ok(())
}

//! The serve loop: session handling and the multi-tenant map.
//!
//! A *session* is one request stream (stdin, or one TCP connection)
//! speaking the [`crate::protocol`] line protocol. Each session owns a
//! tenant map — tenant name → live [`TenantEngine`] — and all tenants'
//! LP work runs on one shared [`Runtime`], so N tenant fabrics solve
//! concurrently without oversubscribing the machine. `BYE` or EOF
//! finishes every tenant (remaining epochs, shard merge, validation)
//! and emits one `DONE` line per tenant in creation order.
//!
//! # Fault tolerance
//!
//! With [`SessionOptions::journal`] set, every round is written to a
//! per-tenant write-ahead journal ([`crate::journal`]) and committed
//! (flushed behind a `STATE` marker) *before* the round's response
//! lines go out — so `kill -9` at any instant loses only rounds the
//! client never heard about, and `--recover` reinstates each tenant by
//! replaying the resolver's own activation/fix logs (one model rebuild
//! per shard, no LP re-solves).
//!
//! Engine errors and solve-budget breaches
//! ([`SessionOptions::max_solve_ms`] or the `max-solve-ms` `HELLO`
//! knob) no longer quarantine a tenant: they demote it one rung down
//! the degrade ladder ([`crate::ladder`], LP → ordering → shed), and
//! exponential-backoff probes promote it back once the fault clears.
//! A deterministic [`FaultPlan`] can inject engine errors, slow
//! epochs, garbage input lines, and mid-stream disconnects to drive
//! all of this under test.
//!
//! The daemon installs no signal handlers (the workspace forbids
//! `unsafe`); `SIGTERM` terminates it through the default disposition,
//! which is exactly the "clean shutdown" contract the CI smoke test
//! asserts — and `SIGKILL` is exactly the crash the journal is for.

use crate::engine::{
    validate_port_coflow, PortCoflow, RecoveryCursor, ServiceOutcome, TenantEngine,
};
use crate::fallback::ordering_outcome;
use crate::fault::FaultPlan;
use crate::journal::{self, JournalWriter};
use crate::ladder::Ladder;
use crate::metrics::ServiceMetrics;
use crate::protocol::{
    degrade_line, done_line, epoch_line, parse_request, promote_line, rate_lines, recovered_line,
    to_port_coflow, DoneExtras, Hello, Request, Tier,
};
use coflow_core::CoflowError;
use coflow_runtime::Runtime;
use coflow_workloads::trace::TraceCoflow;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Instant;

/// Durability and robustness knobs of one session (all off by
/// default, giving the plain in-memory daemon).
#[derive(Clone, Debug, Default)]
pub struct SessionOptions {
    /// Write-ahead journal directory (`--journal DIR`); one
    /// `<tenant>.journal` file per tenant.
    pub journal: Option<PathBuf>,
    /// Recover journaled tenants before reading input (`--recover`).
    pub recover: bool,
    /// Daemon-wide per-epoch solve budget in milliseconds; a tenant's
    /// `max-solve-ms` `HELLO` knob overrides it.
    pub max_solve_ms: Option<f64>,
    /// Deterministic fault-injection schedule (`--fault-plan`).
    pub fault: FaultPlan,
}

/// One tenant's live state inside a session.
struct Tenant {
    hello: Hello,
    /// The raw `HELLO` request line, journaled verbatim so recovery
    /// re-parses the exact configuration.
    hello_raw: String,
    engine: TenantEngine,
    metrics: ServiceMetrics,
    /// Admitted coflow ids, in admission order (for `RATE` lines).
    ids: Vec<String>,
    started: Instant,
    /// Creation order (for deterministic `DONE` ordering).
    order: usize,
    /// Degrade-ladder state (replaces the old quarantine flag).
    ladder: Ladder,
    /// Every validated, non-shed arrival, kept verbatim: the ordering
    /// tier schedules from it, and LP probes replay the backlog.
    arrivals: Vec<PortCoflow>,
    /// A *real* engine error may leave the engine mid-epoch; a probe
    /// then rebuilds it from `arrivals` instead of resuming it.
    poisoned: bool,
    journal: Option<JournalWriter>,
    /// Tracks which engine events the journal already holds.
    cursor: RecoveryCursor,
}

/// What a session did, for callers that embed the daemon loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Tenants created.
    pub tenants: usize,
    /// Coflows admitted across tenants.
    pub admitted: usize,
    /// `ERR` responses emitted.
    pub errors: usize,
}

/// Appends one response line.
fn say(resp: &mut String, line: &str) {
    resp.push_str(line);
    resp.push('\n');
}

struct Session<'rt> {
    rt: &'rt Runtime,
    opts: SessionOptions,
    tenants: BTreeMap<String, Tenant>,
    current: Option<String>,
    summary: SessionSummary,
    /// Session-wide engine-admission attempt counter (the fault plan's
    /// `engine-error` indices address it).
    engine_attempts: usize,
    /// Session-wide epoch-report counter (the fault plan's `slow`
    /// indices address it).
    reports_seen: usize,
    /// Garbage lines injected so far (seeds the generator).
    garbage_injected: usize,
}

/// Runs one protocol session: reads requests from `input`, writes
/// responses to `out`. Returns when the stream ends or `BYE` arrives.
///
/// # Errors
///
/// Only transport I/O errors; protocol and engine errors become `ERR`
/// response lines and the session continues.
pub fn session<R: BufRead, W: Write>(
    rt: &Runtime,
    input: R,
    out: &mut W,
) -> std::io::Result<SessionSummary> {
    session_with(rt, input, out, SessionOptions::default())
}

/// [`session`] with durability/robustness options.
///
/// # Errors
///
/// Only transport I/O errors, as for [`session`].
pub fn session_with<R: BufRead, W: Write>(
    rt: &Runtime,
    mut input: R,
    out: &mut W,
    opts: SessionOptions,
) -> std::io::Result<SessionSummary> {
    let mut s = Session {
        rt,
        opts,
        tenants: BTreeMap::new(),
        current: None,
        summary: SessionSummary::default(),
        engine_attempts: 0,
        reports_seen: 0,
        garbage_injected: 0,
    };
    let mut resp = String::new();
    if s.opts.recover {
        s.recover_all(&mut resp);
        out.write_all(resp.as_bytes())?;
        out.flush()?;
    }
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        // Raw bytes + lossy decode: invalid UTF-8 must yield ERR, not
        // kill the transport.
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        resp.clear();
        let mut finished = false;
        for _ in 0..s.opts.fault.garbage_count_before(line_no) {
            let g = s.opts.fault.garbage_line(s.garbage_injected);
            s.garbage_injected += 1;
            let g = String::from_utf8_lossy(&g).into_owned();
            finished |= s.handle_line(g.trim_end_matches(['\n', '\r']), &mut resp);
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        finished |= s.handle_line(line.trim_end_matches(['\n', '\r']), &mut resp);
        out.write_all(resp.as_bytes())?;
        out.flush()?;
        if finished {
            return Ok(s.summary);
        }
        if s.opts.fault.disconnect_after == Some(line_no) {
            // Simulated crash: drop everything unfinished on the floor
            // (no DONE lines, no journal finish markers).
            return Ok(s.summary);
        }
    }
    resp.clear();
    s.finish_all(&mut resp);
    out.write_all(resp.as_bytes())?;
    out.flush()?;
    Ok(s.summary)
}

impl Session<'_> {
    /// Handles one request line; returns `true` after `BYE`.
    fn handle_line(&mut self, line: &str, resp: &mut String) -> bool {
        let current_ports = self
            .current
            .as_ref()
            .and_then(|t| self.tenants.get(t))
            .map(|t| t.hello.ports);
        match parse_request(line, current_ports) {
            Ok(Request::Empty) => {}
            Ok(Request::Hello(hello)) => self.handle_hello(hello, line, resp),
            Ok(Request::Coflow(c)) => self.handle_coflow(&c, resp),
            Ok(Request::Bye) => {
                self.finish_all(resp);
                return true;
            }
            Err(msg) => {
                self.summary.errors += 1;
                say(resp, &format!("ERR {msg}"));
            }
        }
        false
    }

    fn handle_hello(&mut self, hello: Hello, raw: &str, resp: &mut String) {
        let name = hello.tenant.clone();
        match self.tenants.get(&name) {
            Some(existing) if existing.hello.ports != hello.ports => {
                self.summary.errors += 1;
                say(
                    resp,
                    &format!(
                        "ERR tenant {name} already has {} ports",
                        existing.hello.ports
                    ),
                );
                return;
            }
            Some(_) => {} // re-HELLO switches the current tenant
            None => {
                let config = hello.engine_config();
                let tier = hello.tier;
                let mut tenant = Tenant {
                    engine: TenantEngine::new(hello.ports, config),
                    hello_raw: raw.to_string(),
                    ladder: Ladder::new(tier),
                    hello,
                    metrics: ServiceMetrics::default(),
                    ids: Vec::new(),
                    started: Instant::now(),
                    order: self.summary.tenants,
                    arrivals: Vec::new(),
                    poisoned: false,
                    journal: None,
                    cursor: RecoveryCursor::default(),
                };
                if let Some(dir) = &self.opts.journal {
                    match JournalWriter::create(dir, &name) {
                        Ok(w) => tenant.journal = Some(w),
                        Err(e) => eprintln!("serve: journal for {name} disabled: {e}"),
                    }
                    jwrite(&mut tenant, &format!("HELLO {raw}"));
                    jcommit(&mut tenant);
                }
                self.tenants.insert(name.clone(), tenant);
                self.summary.tenants += 1;
            }
        }
        let t = &self.tenants[&name];
        say(
            resp,
            &format!(
                "OK tenant={name} ports={} policy={:?} shards={} tier={}",
                t.hello.ports,
                t.hello.policy,
                t.engine.shards(),
                t.ladder.rung().label(),
            ),
        );
        self.current = Some(name);
    }

    fn handle_coflow(&mut self, c: &TraceCoflow, resp: &mut String) {
        let Some(name) = self.current.clone() else {
            self.summary.errors += 1;
            say(resp, "ERR no tenant — HELLO first");
            return;
        };
        let Some(tenant) = self.tenants.get_mut(&name) else {
            self.summary.errors += 1;
            say(resp, &format!("ERR tenant {name} vanished"));
            return;
        };
        let pc = match to_port_coflow(c, &tenant.hello) {
            Err(msg) => {
                self.summary.errors += 1;
                say(resp, &format!("ERR {msg}"));
                return;
            }
            Ok(pc) => pc,
        };
        // Both tiers reject the same malformed inputs, and a malformed
        // coflow is the caller's fault — it must not reach the arrival
        // list or tick the ladder.
        if let Err(e) = validate_port_coflow(tenant.hello.ports, &pc) {
            self.summary.errors += 1;
            say(resp, &format!("ERR {e}"));
            return;
        }

        // A due retry probe runs before the admission decision, so this
        // arrival is served on the post-probe rung.
        if self
            .tenants
            .get_mut(&name)
            .is_some_and(|t| t.ladder.tick_arrival())
        {
            self.run_probe(&name, resp);
        }

        let Some(tenant) = self.tenants.get_mut(&name) else {
            return;
        };
        match tenant.ladder.rung() {
            Tier::Shed => {
                tenant.metrics.shed += 1;
                self.summary.errors += 1;
                say(
                    resp,
                    &format!(
                        "ERR tenant {name} is shedding admissions (retry probe in {} arrivals)",
                        tenant.ladder.probe_in()
                    ),
                );
                // A shed round still commits, so the shed counter's
                // backoff state survives a crash.
                jcommit_state(tenant);
            }
            Tier::Ordering => {
                tenant.arrivals.push(pc.clone());
                jwrite_owned(tenant, journal::admit_line(&pc));
                tenant.ids.push(c.id.clone());
                self.summary.admitted += 1;
                jcommit_state(tenant);
            }
            Tier::Lp => {
                tenant.arrivals.push(pc.clone());
                jwrite_owned(tenant, journal::admit_line(&pc));
                tenant.ids.push(c.id.clone());
                self.summary.admitted += 1;
                match self.admit_next_to_engine(&name) {
                    Ok(()) => self.after_engine_round(&name, resp),
                    Err(e) => {
                        // The arrival stays in `arrivals`; the ordering
                        // tier schedules it at finish (or a successful
                        // probe replays it into the engine).
                        self.demote(&name, &format!("engine-error: {e}"), resp);
                    }
                }
                if let Some(t) = self.tenants.get_mut(&name) {
                    jcommit_state(t);
                }
            }
        }
    }

    /// Feeds the engine its next backlog arrival (`ladder.engine_next`),
    /// consulting the fault plan first so injected faults never touch
    /// (and thus never poison) the real engine.
    fn admit_next_to_engine(&mut self, name: &str) -> Result<(), CoflowError> {
        let attempt = self.engine_attempts;
        self.engine_attempts += 1;
        if self.opts.fault.engine_error_at(attempt) {
            return Err(CoflowError::Lp(format!(
                "injected engine fault (admission attempt {attempt})"
            )));
        }
        let tenant = self
            .tenants
            .get_mut(name)
            .ok_or_else(|| CoflowError::BadInstance(format!("tenant {name} vanished")))?;
        let a = tenant.ladder.engine_next;
        let pc = tenant
            .arrivals
            .get(a)
            .cloned()
            .ok_or_else(|| CoflowError::BadInstance(format!("no backlog arrival {a}")))?;
        match tenant.engine.admit(self.rt, pc) {
            Ok(_) => {
                tenant.ladder.engine_next = a + 1;
                let rel = tenant.engine.releases().last().copied().unwrap_or(0);
                jwrite_owned(tenant, journal::engadm_line(a, rel));
                Ok(())
            }
            Err(e) => {
                // The engine may have run (and half-committed) epochs
                // for this admission; only a rebuild may reuse it.
                tenant.poisoned = true;
                Err(e)
            }
        }
    }

    /// Post-admission bookkeeping: drain reports (emit + journal),
    /// run the solve watchdog, and check the `max-resolves` overload
    /// knob.
    fn after_engine_round(&mut self, name: &str, resp: &mut String) {
        let Some(tenant) = self.tenants.get_mut(name) else {
            return;
        };
        let budget = tenant.hello.max_solve_ms.or(self.opts.max_solve_ms);
        let mut breach: Option<String> = None;
        for report in tenant.engine.take_reports() {
            let idx = self.reports_seen;
            self.reports_seen += 1;
            tenant.metrics.observe(&report);
            jwrite_owned(tenant, journal::report_line(&report));
            say(resp, &epoch_line(name, &report));
            for rl in rate_lines(name, &tenant.ids, &report) {
                say(resp, &rl);
            }
            if let Some(b) = budget {
                let injected = self.opts.fault.slow_at(idx);
                if report.wall_ms > b || injected {
                    breach = Some(format!(
                        "solve-budget={b}ms exceeded (epoch {} took {:.3}ms{})",
                        report.epoch,
                        report.wall_ms,
                        if injected { ", injected-slow" } else { "" }
                    ));
                }
            }
        }
        self.journal_engine_delta(name);
        if let Some(reason) = breach {
            self.demote(name, &reason, resp);
            return;
        }
        let Some(tenant) = self.tenants.get_mut(name) else {
            return;
        };
        let cap = tenant.hello.max_resolves;
        if tenant.ladder.rung() == Tier::Lp
            && tenant.hello.fallback
            && cap > 0
            && tenant.engine.resolves() > cap
        {
            // The tenant chose this budget: lower its *home* rung so no
            // probe ever retries the LP tier.
            tenant.ladder.demote_home();
            tenant.metrics.degrades += 1;
            say(
                resp,
                &degrade_line(
                    name,
                    Tier::Ordering,
                    &format!(
                        "max-resolves={cap} exceeded ({} re-solves)",
                        tenant.engine.resolves()
                    ),
                ),
            );
        }
    }

    /// Journals `CORES` (once) plus any new resolver/schedule events.
    fn journal_engine_delta(&mut self, name: &str) {
        let Some(tenant) = self.tenants.get_mut(name) else {
            return;
        };
        if tenant.journal.is_none() {
            return;
        }
        if tenant.cursor.is_fresh() {
            if let Some(shares) = tenant.engine.egress_shares() {
                let line = journal::cores_line(shares);
                jwrite_owned(tenant, line);
            }
        }
        let deltas = tenant.engine.drain_recovery(&mut tenant.cursor);
        for (g, delta) in deltas.iter().enumerate() {
            for line in journal::delta_lines(g, delta) {
                jwrite(tenant, &line);
            }
        }
    }

    /// One rung down, with the `INFO` line and counters.
    fn demote(&mut self, name: &str, reason: &str, resp: &mut String) {
        let Some(tenant) = self.tenants.get_mut(name) else {
            return;
        };
        let to = tenant.ladder.demote();
        tenant.metrics.degrades += 1;
        say(resp, &degrade_line(name, to, reason));
    }

    /// A due retry probe: from shed, accepting arrivals again is the
    /// whole probe; from ordering (with an LP home), the probe replays
    /// the arrival backlog into the engine — rebuilding it first if a
    /// real fault poisoned it.
    fn run_probe(&mut self, name: &str, resp: &mut String) {
        let Some(tenant) = self.tenants.get_mut(name) else {
            return;
        };
        tenant.metrics.probes += 1;
        match tenant.ladder.rung() {
            Tier::Shed => {
                let to = tenant.ladder.probe_succeeded();
                tenant.metrics.promotions += 1;
                say(resp, &promote_line(name, to, "probe"));
            }
            Tier::Ordering if tenant.ladder.home() == Tier::Lp => {
                let poisoned = tenant.poisoned;
                let outcome = if poisoned {
                    self.rebuild_engine(name)
                } else {
                    self.catch_up_engine(name)
                };
                match outcome {
                    Ok(()) => {
                        let Some(tenant) = self.tenants.get_mut(name) else {
                            return;
                        };
                        let to = tenant.ladder.probe_succeeded();
                        tenant.metrics.promotions += 1;
                        say(resp, &promote_line(name, to, "probe"));
                    }
                    Err(e) => {
                        let Some(tenant) = self.tenants.get_mut(name) else {
                            return;
                        };
                        let before = tenant.ladder.rung();
                        let after = tenant.ladder.probe_failed();
                        if after == before {
                            say(resp, &format!("INFO tenant={name} probe=failed reason={e}"));
                        } else {
                            tenant.metrics.degrades += 1;
                            say(
                                resp,
                                &degrade_line(name, after, &format!("probe-failed: {e}")),
                            );
                        }
                    }
                }
            }
            // Healthy, or the home rung itself: nothing to probe.
            _ => {}
        }
    }

    /// Probe path for a healthy-but-degraded engine: admit the backlog
    /// `arrivals[engine_next..]` one by one.
    fn catch_up_engine(&mut self, name: &str) -> Result<(), CoflowError> {
        loop {
            let Some(tenant) = self.tenants.get(name) else {
                return Ok(());
            };
            if tenant.ladder.engine_next >= tenant.arrivals.len() {
                return Ok(());
            }
            self.admit_next_to_engine(name)?;
        }
    }

    /// Probe path for a poisoned engine: rebuild from scratch by
    /// replaying every arrival, swap it in only on full success. The
    /// replayed epochs are internal re-planning — their reports are
    /// not re-emitted (the client already saw the pre-fault epochs) —
    /// and the journal is rewritten to match the fresh engine.
    fn rebuild_engine(&mut self, name: &str) -> Result<(), CoflowError> {
        let (ports, config, arrivals) = {
            let tenant = self
                .tenants
                .get(name)
                .ok_or_else(|| CoflowError::BadInstance(format!("tenant {name} vanished")))?;
            (
                tenant.hello.ports,
                tenant.hello.engine_config(),
                tenant.arrivals.clone(),
            )
        };
        let mut fresh = TenantEngine::new(ports, config);
        for pc in arrivals {
            let attempt = self.engine_attempts;
            self.engine_attempts += 1;
            if self.opts.fault.engine_error_at(attempt) {
                return Err(CoflowError::Lp(format!(
                    "injected engine fault (admission attempt {attempt})"
                )));
            }
            fresh.admit(self.rt, pc)?;
        }
        let _replayed = fresh.take_reports();
        let Some(tenant) = self.tenants.get_mut(name) else {
            return Ok(());
        };
        tenant.engine = fresh;
        tenant.poisoned = false;
        tenant.ladder.engine_next = tenant.arrivals.len();
        tenant.cursor = RecoveryCursor::default();
        self.rewrite_journal(name);
        Ok(())
    }

    /// Recreates a tenant's journal from its current state (after an
    /// engine rebuild invalidated the logged resolver events).
    fn rewrite_journal(&mut self, name: &str) {
        let Some(dir) = self.opts.journal.clone() else {
            return;
        };
        let Some(tenant) = self.tenants.get_mut(name) else {
            return;
        };
        if tenant.journal.is_none() {
            return;
        }
        match JournalWriter::create(&dir, name) {
            Err(e) => {
                eprintln!("serve: journal rewrite for {name} failed: {e}");
                tenant.journal = None;
                return;
            }
            Ok(w) => tenant.journal = Some(w),
        }
        let hello_raw = tenant.hello_raw.clone();
        jwrite(tenant, &format!("HELLO {hello_raw}"));
        let admits: Vec<String> = tenant.arrivals.iter().map(journal::admit_line).collect();
        for line in admits {
            jwrite(tenant, &line);
        }
        let engadm: Vec<String> = tenant
            .engine
            .releases()
            .iter()
            .enumerate()
            .map(|(a, &rel)| journal::engadm_line(a, rel))
            .collect();
        for line in engadm {
            jwrite(tenant, &line);
        }
        self.journal_engine_delta(name);
        if let Some(tenant) = self.tenants.get_mut(name) {
            jcommit(tenant);
        }
    }

    /// Reinstates every unfinished tenant journaled under the journal
    /// directory (sorted by file name for determinism).
    fn recover_all(&mut self, resp: &mut String) {
        let Some(dir) = self.opts.journal.clone() else {
            return;
        };
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) => {
                self.summary.errors += 1;
                say(resp, &format!("ERR recover: read {}: {e}", dir.display()));
                return;
            }
        };
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("journal"))
            .collect();
        files.sort();
        for path in files {
            match journal::read_journal(&path) {
                Err(msg) => {
                    self.summary.errors += 1;
                    say(resp, &format!("ERR recover: {msg}"));
                }
                Ok(rec) if rec.done => {}
                Ok(rec) => self.recover_one(&path, rec, resp),
            }
        }
        self.current = None;
    }

    fn recover_one(
        &mut self,
        path: &std::path::Path,
        rec: journal::JournalRecovery,
        resp: &mut String,
    ) {
        let file = path.display();
        let hello = match parse_request(&rec.hello_line, None) {
            Ok(Request::Hello(h)) => h,
            _ => {
                self.summary.errors += 1;
                say(resp, &format!("ERR recover: {file}: bad HELLO header"));
                return;
            }
        };
        let name = hello.tenant.clone();
        if self.tenants.contains_key(&name) {
            self.summary.errors += 1;
            say(
                resp,
                &format!("ERR recover: {file}: tenant {name} already live"),
            );
            return;
        }
        let engine = match TenantEngine::restore(hello.ports, hello.engine_config(), rec.snapshot) {
            Ok(engine) => engine,
            Err(e) => {
                self.summary.errors += 1;
                say(resp, &format!("ERR recover: {file}: {e}"));
                return;
            }
        };
        let mut metrics = ServiceMetrics::default();
        for r in &rec.reports {
            metrics.observe(r);
        }
        metrics.recovered_epochs = rec.reports.len();
        say(
            resp,
            &recovered_line(
                &name,
                rec.arrivals.len(),
                rec.reports.len(),
                rec.ladder.rung(),
            ),
        );
        // Re-emit the journaled epochs so the recovered stream carries
        // the full objective sequence (the golden test compares it to
        // an uninterrupted run's).
        for r in &rec.reports {
            say(resp, &epoch_line(&name, r));
        }
        let cursor = engine.recovery_cursor();
        let journal_writer = match JournalWriter::open_append(path) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("serve: journal for {name} disabled: {e}");
                None
            }
        };
        self.tenants.insert(
            name,
            Tenant {
                hello_raw: rec.hello_line,
                ids: rec.arrivals.iter().map(|p| p.id.clone()).collect(),
                arrivals: rec.arrivals,
                ladder: rec.ladder,
                hello,
                engine,
                metrics,
                started: Instant::now(),
                order: self.summary.tenants,
                poisoned: false,
                journal: journal_writer,
                cursor,
            },
        );
        self.summary.tenants += 1;
    }

    /// Finishes every tenant in creation order, emitting `DONE` (or
    /// `ERR`) lines and sealing the journals.
    fn finish_all(&mut self, resp: &mut String) {
        let by_order: BTreeMap<usize, String> = self
            .tenants
            .iter()
            .map(|(name, t)| (t.order, name.clone()))
            .collect();
        for name in by_order.values() {
            // An LP-rung tenant runs its final epochs; if those fail it
            // degrades to the ordering tier like any other fault.
            let mut lp_outcome: Option<ServiceOutcome> = None;
            if self
                .tenants
                .get(name)
                .is_some_and(|t| t.ladder.rung() == Tier::Lp)
            {
                let finish = {
                    let Some(tenant) = self.tenants.get_mut(name) else {
                        continue;
                    };
                    tenant.engine.finish(self.rt)
                };
                match finish {
                    Ok(outcome) => {
                        self.after_engine_round(name, resp);
                        lp_outcome = Some(outcome);
                    }
                    Err(e) => self.demote(name, &format!("finish-error: {e}"), resp),
                }
            }
            let Some(tenant) = self.tenants.get_mut(name) else {
                continue;
            };
            let wall = tenant.started.elapsed().as_secs_f64();
            let counters = (&tenant.metrics).into();
            match lp_outcome {
                Some(outcome) => {
                    // With a fallback configured, compute what the
                    // ordering tier would have cost and report both.
                    let fallback_objective = if tenant.hello.fallback {
                        ordering_outcome(tenant.hello.ports, &tenant.arrivals)
                            .ok()
                            .map(|fo| fo.objective)
                    } else {
                        None
                    };
                    let extras = DoneExtras {
                        tier: Tier::Lp,
                        fallback_objective,
                        deadline: (outcome.deadline_total > 0)
                            .then_some((outcome.deadline_missed, outcome.deadline_total)),
                        ..counters
                    };
                    say(
                        resp,
                        &done_line(name, &outcome, &tenant.metrics, wall, &extras),
                    );
                    jfinish(tenant);
                }
                None => match ordering_outcome(tenant.hello.ports, &tenant.arrivals) {
                    Err(e) => {
                        self.summary.errors += 1;
                        say(resp, &format!("ERR tenant {name}: {e}"));
                        jfinish(tenant);
                    }
                    Ok(fo) => {
                        let outcome = ServiceOutcome {
                            admitted: tenant.arrivals.len(),
                            objective: fo.objective,
                            completions: fo.completions.clone(),
                            peak_utilization: fo.peak_utilization,
                            deadline_total: fo.deadline_total,
                            deadline_missed: fo.deadline_missed,
                            ..ServiceOutcome::default()
                        };
                        let extras = DoneExtras {
                            tier: tenant.ladder.rung(),
                            fallback_objective: None,
                            deadline: (fo.deadline_total > 0)
                                .then_some((fo.deadline_missed, fo.deadline_total)),
                            ..counters
                        };
                        say(
                            resp,
                            &done_line(name, &outcome, &tenant.metrics, wall, &extras),
                        );
                        jfinish(tenant);
                    }
                },
            }
        }
        self.tenants.clear();
    }
}

/// Journal helpers: a journal I/O failure disables journaling for the
/// tenant (reported to stderr) rather than killing the session.
fn jwrite(tenant: &mut Tenant, line: &str) {
    if let Some(w) = &mut tenant.journal {
        if let Err(e) = w.event(line) {
            eprintln!("serve: journal write failed, disabling: {e}");
            tenant.journal = None;
        }
    }
}

fn jwrite_owned(tenant: &mut Tenant, line: String) {
    jwrite(tenant, &line);
}

fn jcommit(tenant: &mut Tenant) {
    let state = tenant.engine.state();
    if let Some(w) = &mut tenant.journal {
        if let Err(e) = w.commit(&state, &tenant.ladder) {
            eprintln!("serve: journal commit failed, disabling: {e}");
            tenant.journal = None;
        }
    }
}

/// Commit shorthand used at the end of every coflow round.
fn jcommit_state(tenant: &mut Tenant) {
    jcommit(tenant);
}

fn jfinish(tenant: &mut Tenant) {
    // Seal with the final engine state, then the DONE marker.
    jcommit(tenant);
    if let Some(w) = &mut tenant.journal {
        if let Err(e) = w.finish() {
            eprintln!("serve: journal finish failed: {e}");
            tenant.journal = None;
        }
    }
}

impl From<&ServiceMetrics> for DoneExtras {
    fn from(m: &ServiceMetrics) -> DoneExtras {
        DoneExtras {
            tier: Tier::Lp,
            fallback_objective: None,
            deadline: None,
            degrades: m.degrades,
            probes: m.probes,
            promotions: m.promotions,
            shed: m.shed,
            recovered_epochs: m.recovered_epochs,
        }
    }
}

/// Serves one session over stdin/stdout (`coflow serve --stdin`).
///
/// # Errors
///
/// Transport I/O errors only.
pub fn serve_stdin(rt: &Runtime) -> std::io::Result<SessionSummary> {
    serve_stdin_with(rt, SessionOptions::default())
}

/// [`serve_stdin`] with durability/robustness options.
///
/// # Errors
///
/// Transport I/O errors only.
pub fn serve_stdin_with(rt: &Runtime, opts: SessionOptions) -> std::io::Result<SessionSummary> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    session_with(rt, stdin.lock(), &mut stdout, opts)
}

/// Binds `addr` and serves TCP sessions until the process is killed
/// (`coflow serve --listen addr`). Each connection gets its own
/// session thread; LP work from all sessions shares `rt`. Prints
/// `LISTENING <addr>` on stdout once ready (the `coflow feed` client
/// and the CI smoke test key on it).
///
/// # Errors
///
/// Bind errors; per-connection errors are reported to stderr and do
/// not stop the listener.
pub fn serve_tcp(rt: &Runtime, addr: &str) -> std::io::Result<()> {
    serve_tcp_with(rt, addr, SessionOptions::default())
}

/// [`serve_tcp`] with durability/robustness options. Journaling and
/// recovery assume one client session at a time: every new connection
/// with `recover` set replays the journal directory's unfinished
/// tenants, and concurrent sessions sharing a tenant name would race
/// on its journal file.
///
/// # Errors
///
/// Bind errors, as for [`serve_tcp`].
pub fn serve_tcp_with(rt: &Runtime, addr: &str, opts: SessionOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    println!("LISTENING {}", listener.local_addr()?);
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            match stream {
                Err(e) => eprintln!("serve: accept failed: {e}"),
                Ok(stream) => {
                    let opts = opts.clone();
                    scope.spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "?".to_string());
                        let reader = BufReader::new(&stream);
                        let mut writer = &stream;
                        match session_with(rt, reader, &mut writer, opts) {
                            Ok(s) => eprintln!(
                                "serve: {peer}: {} tenants, {} coflows, {} errors",
                                s.tenants, s.admitted, s.errors
                            ),
                            Err(e) => eprintln!("serve: {peer}: session failed: {e}"),
                        }
                    });
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn run(input: &str) -> (SessionSummary, String) {
        let rt = Runtime::with_workers(2);
        let mut out = Vec::new();
        let summary = session(&rt, input.as_bytes(), &mut out).expect("in-memory session");
        (summary, String::from_utf8(out).expect("utf8 responses"))
    }

    fn run_with(input: &str, opts: SessionOptions) -> (SessionSummary, String) {
        let rt = Runtime::with_workers(2);
        let mut out = Vec::new();
        let summary =
            session_with(&rt, input.as_bytes(), &mut out, opts).expect("in-memory session");
        (summary, String::from_utf8(out).expect("utf8 responses"))
    }

    #[test]
    fn stdin_trace_with_implicit_hello() {
        // 4-port, 1-based mini trace: two coflows, staggered arrivals.
        let input = "4 2\n1 0 1 1 1 3:250\n2 1000 2 1 2 1 4:250\n";
        let (summary, out) = run(input);
        assert_eq!(summary.tenants, 1);
        assert_eq!(summary.admitted, 2);
        assert_eq!(summary.errors, 0);
        assert!(out.contains("OK tenant=default ports=4"), "{out}");
        assert!(out.contains("EPOCH tenant=default epoch=0"), "{out}");
        assert!(out.contains("DONE tenant=default admitted=2"), "{out}");
    }

    #[test]
    fn explicit_hello_two_tenants() {
        let input = "HELLO a 4 base=0 plans\n\
                     c1 0 1 0 1 2:125\n\
                     HELLO b 4 base=0\n\
                     c2 0 1 1 1 3:125\n\
                     BYE\n";
        let (summary, out) = run(input);
        assert_eq!(summary.tenants, 2);
        assert_eq!(summary.admitted, 2);
        assert_eq!(summary.errors, 0);
        assert!(out.contains("DONE tenant=a admitted=1"), "{out}");
        assert!(out.contains("DONE tenant=b admitted=1"), "{out}");
        assert!(out.contains("RATE tenant=a coflow=c1"), "{out}");
        // DONE lines come out in creation order.
        let a = out.find("DONE tenant=a").expect("tenant a done");
        let b = out.find("DONE tenant=b").expect("tenant b done");
        assert!(a < b);
    }

    #[test]
    fn ordering_tier_schedules_without_the_lp_engine() {
        let input = "HELLO t 4 base=0 tier=ordering deadline-slack=4\n\
                     c1 0 1 0 1 2:125\n\
                     c2 0 1 1 1 2:125\n\
                     BYE\n";
        let (summary, out) = run(input);
        assert_eq!(summary.admitted, 2);
        assert_eq!(summary.errors, 0);
        assert!(out.contains("OK tenant=t ports=4"), "{out}");
        assert!(out.contains(" tier=ordering"), "{out}");
        // No LP epochs ran; the DONE line reports the greedy schedule.
        assert!(!out.contains("EPOCH"), "{out}");
        assert!(
            out.contains("DONE tenant=t admitted=2") && out.contains("lp-iterations=0"),
            "{out}"
        );
        assert!(out.contains("deadline-missed=0/2"), "{out}");
    }

    #[test]
    fn max_resolves_degrades_to_the_ordering_tier() {
        // Staggered arrivals force one LP re-solve per epoch; capping at
        // one re-solve trips the overload knob deterministically.
        let input = "HELLO t 4 base=0 fallback=ordering max-resolves=1\n\
                     c1 0 1 0 1 2:125\n\
                     c2 1000 1 1 1 3:125\n\
                     c3 2000 1 0 1 3:125\n\
                     BYE\n";
        let (summary, out) = run(input);
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.errors, 0);
        assert!(
            out.contains("INFO tenant=t degraded=ordering reason=max-resolves=1"),
            "{out}"
        );
        assert!(out.contains("DONE tenant=t admitted=3"), "{out}");
        assert!(out.contains("tier=ordering"), "{out}");
    }

    #[test]
    fn lp_tenant_with_fallback_reports_both_costs() {
        let input = "HELLO t 4 base=0 fallback=ordering\n\
                     c1 0 1 0 1 2:125\n\
                     c2 0 1 1 1 3:125\n\
                     BYE\n";
        let (summary, out) = run(input);
        assert_eq!(summary.errors, 0, "{out}");
        let done = out
            .lines()
            .find(|l| l.starts_with("DONE tenant=t"))
            .expect("DONE line");
        assert!(done.contains(" tier=lp"), "{done}");
        assert!(done.contains(" fallback-objective="), "{done}");
        // Two independent unit coflows: both tiers finish them in slot 1,
        // so the two reported costs agree exactly.
        assert!(done.contains("objective=2.000000"), "{done}");
        assert!(done.contains("fallback-objective=2.000000"), "{done}");
    }

    #[test]
    fn errors_do_not_kill_the_session() {
        let input = "nonsense before hello\n\
                     HELLO t 4 base=1\n\
                     c1 0 1 0 1 2:125\n\
                     HELLO t 8\n\
                     c2 0 1 1 1 2:125\n\
                     BYE\n";
        let (summary, out) = run(input);
        // port 0 under base=1 and the ports mismatch are both ERRs.
        assert_eq!(summary.errors, 3, "{out}");
        assert_eq!(summary.admitted, 1);
        assert!(out.contains("ERR no tenant"), "{out}");
        assert!(out.contains("below the tenant's base=1"), "{out}");
        assert!(out.contains("already has 4 ports"), "{out}");
        assert!(out.contains("DONE tenant=t admitted=1"), "{out}");
    }

    #[test]
    fn invalid_utf8_input_yields_err_not_a_crash() {
        let rt = Runtime::with_workers(1);
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"HELLO t 4 base=0\n");
        input.extend_from_slice(&[0xff, 0xfe, 0x80, b' ', 0xc0, b'\n']);
        input.extend_from_slice(b"c1 0 1 0 1 2:125\nBYE\n");
        let mut out = Vec::new();
        let summary = session(&rt, &input[..], &mut out).expect("session survives bad bytes");
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.admitted, 1);
        let out = String::from_utf8(out).expect("responses are valid utf8");
        assert!(out.contains("ERR"), "{out}");
        assert!(out.contains("DONE tenant=t admitted=1"), "{out}");
    }

    #[test]
    fn injected_engine_fault_degrades_then_probe_promotes() {
        // Fault the second engine admission (attempt index 1). The
        // ladder demotes to ordering with a probe 2 arrivals out; the
        // probe replays the backlog and promotes back to LP.
        let opts = SessionOptions {
            fault: FaultPlan::parse("engine-error=1").expect("valid plan"),
            ..SessionOptions::default()
        };
        let input = "HELLO t 4 base=0\n\
                     c1 0 1 0 1 2:125\n\
                     c2 1000 1 1 1 3:125\n\
                     c3 2000 1 0 1 3:125\n\
                     c4 3000 1 1 1 2:125\n\
                     c5 4000 1 0 1 3:125\n\
                     BYE\n";
        let (summary, out) = run_with(input, opts);
        assert_eq!(summary.admitted, 5, "{out}");
        assert!(
            out.contains("INFO tenant=t degraded=ordering reason=engine-error"),
            "{out}"
        );
        assert!(
            out.contains("INFO tenant=t promoted=lp reason=probe"),
            "{out}"
        );
        let done = out
            .lines()
            .find(|l| l.starts_with("DONE tenant=t"))
            .expect("DONE line");
        assert!(done.contains(" tier=lp"), "{done}");
        assert!(
            done.contains(" degrades=1 probes=1 promotions=1 shed=0"),
            "{done}"
        );
    }
}

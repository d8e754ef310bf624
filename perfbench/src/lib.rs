//! The coflow suite's benchmark: two seeded workloads that drive the
//! program through its public functions, print every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) by name and
//! unit, and check the program's outputs. See `README.md` for the
//! workloads, the metrics and which layer should move which metric.

pub mod gen;
pub mod offline;
pub mod serve;
pub mod span;
pub mod stats;

use span::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics with their units, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("coflows_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ack_ms_p50", "ms"),
    ("sum_wc", "slots"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units, reported by the traced run.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lp.iterations", "count"),
    ("lp.us_per_iter", "us"),
    ("lp.refactors", "count"),
    ("lp.ftran_nnz", "count"),
    ("lp.btran_nnz", "count"),
    ("lp.update_nnz", "count"),
    ("lp.peak_alloc_bytes", "bytes"),
    ("lp.distress_retries", "count"),
    ("lp.dense_fallbacks", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.nonzeros", "count"),
    ("timeidx.relax_ms", "ms"),
    ("timeidx.horizon_ms", "ms"),
    ("rounding.ms", "ms"),
    ("rounding.samples", "count"),
    ("validate.ms", "ms"),
    ("resolver.epochs", "count"),
    ("resolver.epoch_ms", "ms"),
    ("resolver.iters_per_epoch", "count"),
    ("resolver.warm_share", "ratio"),
    ("resolver.rebuilds", "count"),
    ("engine.admit_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.format_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("journal.append_us", "us"),
    ("journal.bytes", "bytes"),
    ("journal.commits", "count"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.calib_ms", "ms"),
];

/// What one run measured and whether the program's outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (instance solves, or coflow requests).
    pub attempted: u64,
    /// Operations that failed (solve or validation errors, `ERR`
    /// responses, missing `DONE` lines).
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (sample counts,
    /// per-layer detail).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the traced run's closure and overhead metrics, notes each
    /// `(layer, function)`'s self time, and writes the spans to
    /// `.perfbench_out/<name>.spans.tsv`. `traced` and `untraced` are
    /// the wall times, in s, of the traced pass and of the reference
    /// pass over the same inputs.
    pub fn trace_summary(&mut self, tr: &Tracer, traced: f64, untraced: f64, name: &str) {
        let self_ns = tr.self_ns();
        let covered: u64 = self_ns.values().sum();
        self.set(
            "trace.unaccounted_share",
            (1.0 - covered as f64 / 1e9 / traced).max(0.0),
        );
        self.set("trace.overhead", traced / untraced);
        for ((layer, op), ns) in self_ns {
            self.notes.push(format!(
                "self time {layer}/{op}: {:.3} ms ({:.1}%)",
                ns as f64 / 1e6,
                100.0 * ns as f64 / 1e9 / traced
            ));
        }
        self.notes.push(format!(
            "traced wall {traced:.3} s, untraced wall {untraced:.3} s, spans {}",
            tr.spans().len()
        ));
        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("{name}.spans.tsv"));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_tsv()))
        {
            self.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }

    /// The result object: every metric of `names` (0 when the workload
    /// does not produce it), and whether every check held. A metric that
    /// is not finite prints as 0; [`run`] has failed a check for it.
    pub fn json(&self, names: &[(&str, &str)]) -> String {
        let mut m = String::new();
        for (k, (name, unit)) in names.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if k > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        let correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// Times a workload's set-up `SETUP_REPS` times over the run rather than
/// in its first seconds, so that `setup_s` sees the same host speed as
/// the timed phase. The first repetition builds what the run uses; the
/// others repeat the same work and drop it.
pub struct Setups<F> {
    setup: F,
    times: Vec<f64>,
    seconds: f64,
}

impl<T, F: FnMut() -> T> Setups<F> {
    /// `setup` repeated over a run of `seconds`.
    pub fn new(seconds: f64, setup: F) -> Self {
        Setups {
            setup,
            times: Vec::with_capacity(SETUP_REPS),
            seconds,
        }
    }

    /// Runs and times one set-up.
    pub fn run(&mut self) -> T {
        let t = Instant::now();
        let out = (self.setup)();
        self.times.push(t.elapsed().as_secs_f64());
        out
    }

    /// Repeats the set-ups that are due `elapsed` seconds into the run
    /// (repetition `k` at `k / SETUP_REPS` of it); returns the seconds
    /// they took, which the caller leaves out of its timed phase.
    pub fn catch_up(&mut self, elapsed: f64) -> f64 {
        let t = Instant::now();
        while self.times.len() < SETUP_REPS
            && elapsed >= self.times.len() as f64 / SETUP_REPS as f64 * self.seconds
        {
            black_box(self.run());
        }
        t.elapsed().as_secs_f64()
    }

    /// Repeats the set-ups still due and returns the median time.
    pub fn median(mut self) -> f64 {
        self.catch_up(f64::INFINITY);
        stats::median(&self.times)
    }
}

/// Runs workload `name` (`None` for an unknown name), with the host
/// probe timed before and after it.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let calib_start = stats::calib_ms();
    let mut o = match name {
        "offline_paper" => offline::run(seed, seconds, trace),
        "serve_fleet" => serve::run(seed, seconds, trace),
        _ => return None,
    };
    let calib_end = stats::calib_ms();
    o.set("host.calib_ms", (calib_start + calib_end) / 2.0);
    o.notes.push(format!(
        "host.calib_ms start {calib_start:.3} end {calib_end:.3}"
    ));
    for (name, _) in metric_names(trace) {
        let v = o.metrics.get(name).copied().unwrap_or(0.0);
        o.check(v.is_finite(), || format!("metric {name} is {v}"));
    }
    Some(o)
}

/// The metrics a run reports: per-layer when traced, else end-to-end.
pub fn metric_names(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

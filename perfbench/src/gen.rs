//! Seeded input generator.
//!
//! Every input is a pure function of `(seed, index)`: the offline
//! instance mix of the paper's §6 evaluation, and synthetic FB2010
//! coflow streams for the serve workloads (the bundled sample trace has
//! only 20 coflows). The program under test receives only what these
//! functions return.

use coflow_core::io::write_instance;
use coflow_core::model::CoflowInstance;
use coflow_core::routing::{random_shortest_paths, Routing};
use coflow_netgraph::topology;
use coflow_workloads::{build_instance, WorkloadConfig, WorkloadKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Coflows per offline instance.
const OFFLINE_JOBS: usize = 6;
/// Distinct offline instances generated for a run; a run that gets
/// through all of them starts over.
pub const OFFLINE_POOL: usize = 1024;
/// Largest size proxy (estimated LP rows, see [`size_proxy`]) an
/// offline instance may have. Larger draws are redrawn, so that no
/// single instance takes seconds and dominates a run.
const OFFLINE_MAX_PROXY: f64 = 700.0;
/// Draws per offline instance; the one with the median size proxy is
/// kept, which keeps the run's size mix close to the same on every
/// seed.
const OFFLINE_DRAWS: usize = 3;
/// Port count of every serve tenant's fabric.
pub const PORTS: usize = 16;
/// Tenants in one `serve_fleet` session.
pub const FLEET_TENANTS: usize = 40;
/// Coflows per `serve_fleet` tenant.
pub const FLEET_COFLOWS: usize = 10;

/// Mixes the benchmark seed with a stream index (SplitMix64 finaliser),
/// so that neighbouring seeds and indices give unrelated streams.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One offline solve request: an instance placed on a WAN topology and
/// its routing.
pub struct OfflineInput {
    /// `kind/topology/routing` label.
    pub label: String,
    /// The instance.
    pub inst: CoflowInstance,
    /// Free-path or random-shortest single-path routing.
    pub routing: Routing,
}

/// A cheap estimate of the rows of an instance's time-indexed LP,
/// computed by the benchmark from the instance alone: estimated slots ×
/// rows per slot. The horizon tracks last release + total demand in Gb
/// / 1000 on SWAN and G-Scale with 50 s slots; a slot has about one
/// capacity row per edge plus one per flow under free-path routing, and
/// a few per flow under single-path routing.
pub fn size_proxy(inst: &CoflowInstance, free_path: bool) -> f64 {
    let flows = inst.coflows.iter().flat_map(|c| &c.flows);
    let (n, demand, last) = flows.fold((0usize, 0.0f64, 0u32), |(n, d, r), f| {
        (n + 1, d + f.demand, r.max(f.release))
    });
    let per_slot = if free_path {
        inst.graph.edge_count() + n
    } else {
        3 * n
    };
    (f64::from(last) + demand / 1000.0) * per_slot as f64
}

/// Offline instance `index` of the mix for `seed`. The index cycles
/// through the four workload kinds, the two topologies and the two
/// routing models, so every block of 16 consecutive indices is balanced.
/// Of `OFFLINE_DRAWS` draws of `OFFLINE_JOBS` coflows whose
/// [`size_proxy`] is at most `OFFLINE_MAX_PROXY`, the median one is kept.
///
/// # Panics
///
/// If placement fails, which cannot happen on the strongly connected
/// WAN topologies.
pub fn offline_instance(seed: u64, index: usize) -> OfflineInput {
    let kind = WorkloadKind::ALL[index % 4];
    let topo = if (index / 4).is_multiple_of(2) {
        topology::swan()
    } else {
        topology::gscale()
    };
    let single = (index / 8) % 2 == 1;
    let draw = |k: u64| {
        let s = mix(seed, (index as u64) << 16 | k);
        let cfg = WorkloadConfig {
            kind,
            num_jobs: OFFLINE_JOBS,
            seed: s,
            slot_seconds: 50.0,
            mean_interarrival_slots: 1.0,
            weighted: true,
            demand_scale: 1.0,
        };
        let inst = build_instance(&topo, &cfg).expect("WAN placement always validates");
        (size_proxy(&inst, !single), s, inst)
    };
    let mut draws: Vec<(f64, u64, CoflowInstance)> = (0u64..)
        .map(draw)
        .filter(|d| d.0 <= OFFLINE_MAX_PROXY)
        .take(OFFLINE_DRAWS)
        .collect();
    draws.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, s, inst) = draws.swap_remove(OFFLINE_DRAWS / 2);
    let routing = if single {
        random_shortest_paths(&inst, &mut StdRng::seed_from_u64(s ^ 0x5eed))
            .expect("WAN topologies are strongly connected")
    } else {
        Routing::FreePath
    };
    OfflineInput {
        label: format!("{}/{}/{}", kind.name(), topo.name, routing.model_name()),
        inst,
        routing,
    }
}

/// Serialises an offline input (instance file format plus routing) for
/// the determinism test.
pub fn offline_bytes(input: &OfflineInput) -> String {
    let mut out = write_instance(&input.inst).expect("generated instances serialise");
    out.push_str(&format!("{:?}\n", input.routing));
    out
}

/// What a request line of a serve stream is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A `HELLO` (first handshake or tenant switch).
    Hello,
    /// An FB2010 coflow line for the current tenant.
    Coflow,
    /// The closing `BYE`.
    Bye,
}

/// One request line of a serve stream.
#[derive(Clone, Debug)]
pub struct Line {
    /// The request text, without the newline.
    pub text: String,
    /// Its kind.
    pub kind: Kind,
    /// Index of the tenant a `Hello`/`Coflow` line belongs to.
    pub tenant: usize,
}

/// A serve session: tenant names and the request lines, ending in `BYE`.
#[derive(Clone, Debug)]
pub struct Session {
    /// Tenant names, in creation order.
    pub tenants: Vec<String>,
    /// Coflows sent to each tenant.
    pub coflows: Vec<usize>,
    /// Request lines.
    pub lines: Vec<Line>,
}

impl Session {
    /// The stream as protocol bytes.
    pub fn bytes(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(&l.text);
            out.push('\n');
        }
        out
    }

    /// Coflow lines in the session.
    pub fn coflow_lines(&self) -> usize {
        self.coflows.iter().sum()
    }
}

/// Width and volume ranges of synthetic coflows.
#[derive(Clone, Copy)]
struct Shape {
    /// Largest mapper count; 70% of coflows have one mapper.
    max_mappers: usize,
    /// Largest reducer count; 70% of coflows have one reducer.
    max_reducers: usize,
    /// Reducer volume range in MB.
    mb: (u64, u64),
}

/// The FB2010 trace's shape: most coflows have one mapper and one
/// reducer, a few are wide shuffles.
const FLEET_SHAPE: Shape = Shape {
    max_mappers: 4,
    max_reducers: 3,
    mb: (40, 400),
};

/// Stratified draws from `[0, 1)`: every `STRATA` consecutive draws take
/// one value from each of `STRATA` equal strata, in a shuffled order. A
/// stream's coflow widths, volumes and gaps then cover their ranges
/// evenly on every seed, so that runs on different seeds serve the same
/// mix of small and large models.
struct Strata {
    order: Vec<usize>,
}

/// Strata per [`Strata`] cycle. Since 70% of coflows have one mapper
/// (see [`width`]), exactly three of every ten coflows have several.
const STRATA: usize = 10;

impl Strata {
    fn new() -> Self {
        Strata { order: Vec::new() }
    }

    fn draw(&mut self, rng: &mut StdRng) -> f64 {
        if self.order.is_empty() {
            self.order = (0..STRATA).collect();
            self.order.shuffle(rng);
        }
        let s = self.order.pop().expect("refilled above");
        (s as f64 + rng.gen_range(0.0..1.0)) / STRATA as f64
    }
}

/// The stratified draws of one stream, and the load it has put on each
/// port so far (MB sent from each mapper port, MB received at each
/// reducer port).
struct Draws {
    mappers: Strata,
    reducers: Strata,
    mb: Strata,
    gap: Strata,
    sent: [u64; PORTS],
    received: [u64; PORTS],
}

impl Draws {
    fn new() -> Self {
        Draws {
            mappers: Strata::new(),
            reducers: Strata::new(),
            mb: Strata::new(),
            gap: Strata::new(),
            sent: [0; PORTS],
            received: [0; PORTS],
        }
    }
}

/// The `n` least-loaded ports of `free` (ties broken at random), removed
/// from it.
fn least_loaded(rng: &mut StdRng, free: &mut Vec<usize>, load: &[u64], n: usize) -> Vec<usize> {
    free.shuffle(rng);
    free.sort_by_key(|&p| load[p]);
    free.drain(..n).collect()
}

/// Maps a draw `u` in `[0, 1)` to an integer of `lo..=hi`.
fn scale(u: f64, lo: u64, hi: u64) -> u64 {
    (lo + (u * (hi - lo + 1) as f64) as u64).min(hi)
}

/// A coflow width of `1..=max` from a draw `u`: one for `u` of 0.3 and
/// up (70% of draws), else `2..=max` spread evenly below it.
fn width(u: f64, max: usize) -> usize {
    if max == 1 || u >= 0.3 {
        1
    } else {
        scale(u / 0.3, 2, max as u64) as usize
    }
}

/// One synthetic FB2010 coflow line, arriving at `arrival_ms` on a
/// `PORTS`-port fabric with 1-based ports. Its mappers and reducers are
/// the stream's least-loaded ports so far, so that no port's load, and
/// with it the tenant's horizon, hangs on a few unlucky draws.
fn coflow_line(
    rng: &mut StdRng,
    draws: &mut Draws,
    shape: Shape,
    id: usize,
    arrival_ms: u64,
) -> String {
    let m = width(draws.mappers.draw(rng), shape.max_mappers);
    let r = width(draws.reducers.draw(rng), shape.max_reducers);
    let mut free: Vec<usize> = (0..PORTS).collect();
    let mappers = least_loaded(rng, &mut free, &draws.sent, m);
    let reducers = least_loaded(rng, &mut free, &draws.received, r);
    let mut line = format!("{id} {arrival_ms} {m}");
    for p in &mappers {
        line.push_str(&format!(" {}", p + 1));
    }
    line.push_str(&format!(" {r}"));
    let mut total = 0;
    for p in reducers {
        let mb = scale(draws.mb.draw(rng), shape.mb.0, shape.mb.1);
        draws.received[p] += mb;
        total += mb;
        line.push_str(&format!(" {}:{mb}", p + 1));
    }
    for p in mappers {
        draws.sent[p] += total / m as u64;
    }
    line
}

/// `n` coflow lines of one fleet tenant with arrival times relative to
/// the tenant's start, 0–1.2 s apart (1 s release slots), so that some
/// arrivals share a slot and are acknowledged without a decision.
fn fleet_stream(rng: &mut StdRng, n: usize) -> Vec<(u64, String)> {
    let mut draws = Draws::new();
    let mut t = 0u64;
    (0..n)
        .map(|k| {
            if k > 0 {
                t += scale(draws.gap.draw(rng), 0, 1199);
            }
            (t, coflow_line(rng, &mut draws, FLEET_SHAPE, k + 1, t))
        })
        .collect()
}

/// Milliseconds between the starts of consecutive tenants of a session.
const STAGGER_MS: u64 = 2000;

fn hello(name: &str) -> String {
    format!("HELLO {name} {PORTS} policy=event shards=1 plans")
}

/// Interleaves tenant streams by global arrival time (tenant `k` starts
/// `k · STAGGER_MS` after the first), with a `HELLO` for every tenant up
/// front, a re-`HELLO` whenever the next line belongs to another tenant,
/// and a closing `BYE`.
fn interleave(names: Vec<String>, streams: Vec<Vec<(u64, String)>>) -> Session {
    let mut lines: Vec<Line> = names
        .iter()
        .enumerate()
        .map(|(k, n)| Line {
            text: hello(n),
            kind: Kind::Hello,
            tenant: k,
        })
        .collect();
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    for (k, s) in streams.iter().enumerate() {
        for (i, (t, _)) in s.iter().enumerate() {
            events.push((k as u64 * STAGGER_MS + t, k, i));
        }
    }
    events.sort_unstable();
    let mut current = names.len().checked_sub(1);
    for (_, k, i) in events {
        if current != Some(k) {
            lines.push(Line {
                text: hello(&names[k]),
                kind: Kind::Hello,
                tenant: k,
            });
            current = Some(k);
        }
        lines.push(Line {
            text: streams[k][i].1.clone(),
            kind: Kind::Coflow,
            tenant: k,
        });
    }
    lines.push(Line {
        text: "BYE".into(),
        kind: Kind::Bye,
        tenant: 0,
    });
    Session {
        coflows: streams.iter().map(Vec::len).collect(),
        tenants: names,
        lines,
    }
}

/// `serve_fleet` session `index`: many short-lived tenants of
/// `FLEET_COFLOWS` coflows each, started 2 s apart.
pub fn fleet_session(seed: u64, index: usize) -> Session {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1_000_000 + index as u64));
    let names = (0..FLEET_TENANTS)
        .map(|k| format!("fleet-{index}-{k}"))
        .collect();
    let streams = (0..FLEET_TENANTS)
        .map(|_| fleet_stream(&mut rng, FLEET_COFLOWS))
        .collect();
    interleave(names, streams)
}

/// The untimed warm-up session every serve set-up runs: two fleet
/// tenants of four coflows. It is the same for every seed, so that
/// set-up time does not depend on the seed.
pub fn warmup_session() -> Session {
    let mut rng = StdRng::seed_from_u64(mix(0, 3_000_000));
    let names = (0..2).map(|k| format!("warmup-{k}")).collect();
    let streams = (0..2).map(|_| fleet_stream(&mut rng, 4)).collect();
    interleave(names, streams)
}

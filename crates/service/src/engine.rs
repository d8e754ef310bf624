//! The per-tenant streaming epoch engine.
//!
//! A [`TenantEngine`] is the long-lived scheduling state of one tenant
//! fabric inside the daemon: it accepts coflow arrivals one at a time
//! ([`admit`](TenantEngine::admit)), batches them into epochs, keeps one
//! warm [`EpochDriver`] alive across those epochs per port-group shard,
//! and streams back per-epoch reports. Calling
//! [`finish`](TenantEngine::finish) after the last arrival runs the
//! remaining epochs to completion, merges the shard schedules, and
//! re-validates the merged schedule against the full unsharded
//! instance.
//!
//! The engine is an arrival policy over `coflow_core::epoch`: the epoch
//! body itself (activation, solve with horizon growth, λ=1 heuristic,
//! execution, freezing) is the driver's, shared with the batch entry
//! points. Two policies decide when it runs:
//!
//! * [`EpochPolicy::Event`] calls
//!   [`EpochDriver::event_epoch`] like `coflow_core::online` — an epoch
//!   per distinct release, window closed by the next arrival. With a
//!   single shard and a [`horizon_hint`](EngineConfig::horizon_hint)
//!   matching the batch run's initial horizon, the engine builds
//!   bitwise-identical LPs and reproduces `online_heuristic_with`'s
//!   epoch objectives exactly (the determinism test pins this to 1e-6).
//! * [`EpochPolicy::Doubling`] calls [`EpochDriver::batch`] like
//!   `coflow_core::flowtime`: arrivals buffer until their
//!   [`doubling_boundary`] passes, then the whole batch dispatches
//!   after the committed work.
//!
//! The streaming engine is *not* clairvoyant: unlike the batch
//! entry points it sizes its initial horizon from the coflows admitted
//! by the first dispatch (growing later as needed), and arrivals that
//! report a release at or before the already-processed frontier are
//! admitted at the frontier instead (time does not rewind).

use crate::shard::{mapper_shares, shard_fabric, Partition, ShardSplit};
use coflow_core::epoch::{EpochDriver, EpochStep};
use coflow_core::flowtime::doubling_boundary;
use coflow_core::horizon::{horizon, HorizonMode};
use coflow_core::model::{Coflow, CoflowInstance, Flow};
use coflow_core::resolver::TimeIndexedResolver;
use coflow_core::routing::Routing;
use coflow_core::schedule::{Schedule, SlotTransfer};
use coflow_core::validate::{validate, Tolerance};
use coflow_core::CoflowError;
use coflow_lp::{SolveStats, SolverOptions};
use coflow_netgraph::EdgeId;
use coflow_runtime::Runtime;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One shard's slice of an admitted coflow: the flows it hosts plus
/// their indices in the original flow list (for rate-plan relabeling).
type ShardSlice = (Vec<(usize, usize, f64)>, Vec<usize>);

/// How arrivals are grouped into re-solve epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EpochPolicy {
    /// One epoch per distinct release slot; the window closes at the
    /// next arrival (the `coflow_core::online` loop).
    #[default]
    Event,
    /// Doubling batch boundaries `0, 1, 2, 4, …`; a batch dispatches
    /// once an arrival passes its boundary (the `coflow_core::flowtime`
    /// loop).
    Doubling,
}

/// Configuration of one tenant's engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Epoch batching policy.
    pub policy: EpochPolicy,
    /// Warm-start the per-shard resolvers (the service's raison d'être);
    /// `false` is the `--cold` A/B escape hatch.
    pub warm: bool,
    /// Additionally cold-solve each epoch's exact model on the side and
    /// report its iteration count — the warm-vs-cold measurement.
    pub shadow_cold: bool,
    /// LP solver options for every epoch solve.
    pub lp: SolverOptions,
    /// Number of port-group shards (1 = unsharded).
    pub shards: usize,
    /// How input-port egress splits across shards.
    pub split: ShardSplit,
    /// Record the executed per-slot transfers of every epoch in its
    /// [`EpochReport`] (the daemon's `RATE` lines).
    pub emit_plans: bool,
    /// Initial resolver horizon override. `None` sizes the horizon
    /// greedily from the coflows admitted when the first epoch
    /// dispatches; the determinism tests pass the batch run's horizon to
    /// reproduce it exactly.
    pub horizon_hint: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: EpochPolicy::Event,
            warm: true,
            shadow_cold: false,
            lp: SolverOptions::default(),
            shards: 1,
            split: ShardSplit::Equal,
            emit_plans: false,
            horizon_hint: None,
        }
    }
}

/// One admitted coflow, in port coordinates (already rebased to
/// `0..num_ports` and demand-normalized — see
/// `coflow_workloads::trace::TraceCoflow::port_flows`).
#[derive(Clone, Debug)]
pub struct PortCoflow {
    /// Caller-side identifier, echoed in reports.
    pub id: String,
    /// Objective weight `w_j > 0`.
    pub weight: f64,
    /// Release slot.
    pub release: u32,
    /// Advisory completion deadline (slot by which the coflow should
    /// finish). The LP tier ignores it while scheduling but reports
    /// misses in [`ServiceOutcome`]; the ordering fallback tier's
    /// accounting does the same (see `crate::fallback`).
    pub deadline: Option<u32>,
    /// `(in_port, out_port, demand)` per flow.
    pub flows: Vec<(usize, usize, f64)>,
}

/// Validates a port coflow against a `num_ports`-port fabric: ports in
/// range, finite positive demands, at least one flow. Shared by
/// [`TenantEngine::admit`] and the daemon's LP-free ordering tier, so
/// both tiers reject exactly the same malformed inputs.
///
/// # Errors
///
/// [`CoflowError::BadInstance`] with a human-readable message.
pub fn validate_port_coflow(num_ports: usize, pc: &PortCoflow) -> Result<(), CoflowError> {
    for &(m, r, d) in &pc.flows {
        if m >= num_ports || r >= num_ports {
            return Err(CoflowError::BadInstance(format!(
                "coflow {}: port pair ({m},{r}) outside the {num_ports}-port fabric",
                pc.id
            )));
        }
        if !(d.is_finite() && d > 0.0) {
            return Err(CoflowError::BadInstance(format!(
                "coflow {}: demand {d} must be positive",
                pc.id
            )));
        }
    }
    if pc.flows.is_empty() {
        return Err(CoflowError::BadInstance(format!(
            "coflow {} has no flows",
            pc.id
        )));
    }
    Ok(())
}

/// What one epoch (or doubling batch) did.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// The epoch slot (event policy) or dispatch slot (doubling).
    pub epoch: u32,
    /// Sum of the shard LPs' objectives at this epoch.
    pub objective: f64,
    /// Simplex iterations this epoch across shards.
    pub iterations: usize,
    /// Whether every shard solve warm-started from a kept basis.
    pub warm: bool,
    /// Iterations the same models cost from the all-slack crash basis
    /// (with [`EngineConfig::shadow_cold`]).
    pub cold_iterations: Option<usize>,
    /// Wall-clock time of the epoch, milliseconds.
    pub wall_ms: f64,
    /// Executed transfers `(coflow id index, global slot, volume)` for
    /// the window just played (with [`EngineConfig::emit_plans`];
    /// volumes are summed per coflow × slot).
    pub transfers: Vec<(usize, u32, f64)>,
}

/// Final accounting returned by [`TenantEngine::finish`].
#[derive(Clone, Debug, Default)]
pub struct ServiceOutcome {
    /// Coflows admitted.
    pub admitted: usize,
    /// `Σ w_j C_j` of the merged, validated schedule.
    pub objective: f64,
    /// Per-coflow completion slots, in admission order.
    pub completions: Vec<u32>,
    /// Epochs (or batches) dispatched.
    pub epochs: usize,
    /// Total simplex iterations across all shard solves.
    pub lp_iterations: usize,
    /// Total shadow-cold iterations (with [`EngineConfig::shadow_cold`]).
    pub cold_iterations: Option<usize>,
    /// LP re-solves across shards.
    pub resolves: usize,
    /// Horizon growths across shards (in place once a shard's resolver
    /// has solved, rebuilt before that).
    pub rebuilds: usize,
    /// Infeasible answers the shard resolvers' load certificates gave
    /// without an LP solve.
    pub certified_infeasible: usize,
    /// Infeasible answers that took an LP solve.
    pub solved_infeasible: usize,
    /// Engine counters merged over every solve.
    pub lp_stats: SolveStats,
    /// Peak edge utilization of the merged schedule (≤ 1 + tolerance).
    pub peak_utilization: f64,
    /// Objective of each epoch's LP re-solve, in epoch order (summed
    /// over shards) — the series the determinism test compares.
    pub epoch_objectives: Vec<f64>,
    /// Admitted coflows that carried a deadline.
    pub deadline_total: usize,
    /// Of those, how many completed after their deadline.
    pub deadline_missed: usize,
}

/// One executed slot transfer in journal coordinates: shard-local
/// coflow/flow indices plus dense edge indices (graph ids don't
/// serialize; every shard shares the full fabric's edge numbering).
#[derive(Clone, Debug, PartialEq)]
pub struct TransferRecord {
    /// Shard-local coflow index.
    pub coflow: usize,
    /// Flow index within the coflow.
    pub flow: usize,
    /// Global schedule slot.
    pub slot: u32,
    /// Volume moved in the slot.
    pub volume: f64,
    /// `(edge index, volume)` routing of the transfer.
    pub edges: Vec<(usize, f64)>,
}

/// The append-only events one shard core produced since the last drain
/// — exactly the state [`TenantEngine::restore`] needs to replay it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoreDelta {
    /// New resolver activations `(coflow, flow, first_slot)`.
    pub activations: Vec<(usize, usize, u32)>,
    /// New executed-slot fixes `(coflow, flow, slot, fraction)`.
    pub fixes: Vec<(usize, usize, u32, f64)>,
    /// New per-epoch LP objectives.
    pub objectives: Vec<f64>,
    /// New executed transfers.
    pub transfers: Vec<TransferRecord>,
}

/// Engine-level mutable state, serialized on every journal `STATE`
/// line and reinstated verbatim by [`TenantEngine::restore`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineState {
    /// Event policy: highest processed epoch.
    pub frontier: Option<u32>,
    /// Event policy: admitted release slots not yet processed.
    pub pending_epochs: Vec<u32>,
    /// Doubling policy: boundary of the open batch.
    pub open_boundary: u32,
    /// Doubling policy: admitted indices buffered for the open batch.
    pub open_batch: Vec<usize>,
    /// Epochs dispatched so far.
    pub epochs_run: usize,
    /// LP re-solves dispatched so far.
    pub resolves: usize,
    /// Per-core resolver horizon (0 = resolver not built yet).
    pub horizons: Vec<u32>,
    /// Per-core committed end of the doubling schedule.
    pub committed: Vec<u32>,
}

/// Everything a journal reader accumulated for one tenant: the
/// arguments of [`TenantEngine::restore`].
#[derive(Clone, Debug, Default)]
pub struct RecoverySnapshot {
    /// Engine admissions in order: the coflow and its *effective*
    /// (frontier-clamped) release.
    pub admitted: Vec<(PortCoflow, u32)>,
    /// Per-shard egress shares, once the cores were created.
    pub shares: Option<Vec<Vec<f64>>>,
    /// Accumulated per-core event logs (parallel to `shares`).
    pub cores: Vec<CoreDelta>,
    /// Engine-level state at the last commit marker.
    pub state: EngineState,
}

/// Tracks how much of each core's append-only logs a journal has
/// already written, so [`TenantEngine::drain_recovery`] emits only the
/// suffix.
#[derive(Clone, Debug, Default)]
pub struct RecoveryCursor {
    cores: Vec<CoreCursor>,
}

impl RecoveryCursor {
    /// Whether nothing has been drained through this cursor yet (the
    /// journal holds no `CORES` line or core events).
    pub fn is_fresh(&self) -> bool {
        self.cores.is_empty()
    }
}

#[derive(Clone, Debug, Default)]
struct CoreCursor {
    acts: usize,
    fixes: usize,
    objs: usize,
    /// Per local coflow, per flow: schedule entries already drained.
    sched: Vec<Vec<usize>>,
}

/// One shard's persistent scheduling state: a gadgeted switch graph and
/// the coflows (or parts of coflows) landing in this shard.
struct EpochCore {
    graph: coflow_netgraph::Graph,
    /// Inner gadget node per port-side node id (`inner[v]`).
    inner: Vec<coflow_netgraph::NodeId>,
    num_ports: usize,
    state: CoreState,
}

/// A shard core before and after its first dispatch.
enum CoreState {
    /// Coflows admitted before the first dispatch sizes the horizon.
    Staged(Vec<Coflow>),
    /// The epoch driver over an owned resolver of everything admitted.
    Live(Box<EpochDriver<'static>>),
}

impl EpochCore {
    fn new(num_ports: usize, egress_share: &[f64]) -> EpochCore {
        let gg = shard_fabric(num_ports, egress_share);
        EpochCore {
            graph: gg.graph,
            inner: gg.inner,
            num_ports,
            state: CoreState::Staged(Vec::new()),
        }
    }

    /// Converts port-level flows into a node-level coflow on this
    /// shard's gadget graph (mapper `m` sends from `inner[m]`, reducer
    /// `r` receives at `inner[n + r]` — the same endpoints
    /// `Trace::switch_instance` uses).
    fn make_coflow(&self, weight: f64, release: u32, flows: &[(usize, usize, f64)]) -> Coflow {
        let n = self.num_ports;
        Coflow::weighted(
            weight,
            flows
                .iter()
                .map(|&(m, r, d)| Flow::released(self.inner[m], self.inner[n + r], d, release))
                .collect(),
        )
    }

    /// Admits one (sub-)coflow, returning its local index.
    fn admit(&mut self, cf: Coflow) -> Result<usize, CoflowError> {
        match &mut self.state {
            CoreState::Staged(staged) => {
                staged.push(cf);
                Ok(staged.len() - 1)
            }
            CoreState::Live(driver) => driver.admit(cf),
        }
    }

    fn driver(&self) -> Option<&EpochDriver<'static>> {
        match &self.state {
            CoreState::Live(driver) => Some(driver),
            CoreState::Staged(_) => None,
        }
    }

    fn driver_mut(&mut self) -> Option<&mut EpochDriver<'static>> {
        match &mut self.state {
            CoreState::Live(driver) => Some(driver),
            CoreState::Staged(_) => None,
        }
    }

    /// Builds the epoch driver over everything staged (a no-op once
    /// live), at horizon `t0` or, when `None`, the greedy estimate.
    fn go_live(&mut self, t0: Option<u32>, config: &EngineConfig) -> Result<(), CoflowError> {
        let CoreState::Staged(staged) = &mut self.state else {
            return Ok(());
        };
        let inst = CoflowInstance::new(self.graph.clone(), std::mem::take(staged))?;
        let t0 = match t0 {
            Some(t) => t,
            None => horizon(&inst, &Routing::FreePath, HorizonMode::default())?,
        };
        let resolver = TimeIndexedResolver::new_owned(inst, Routing::FreePath, t0, config.warm)?;
        self.state = CoreState::Live(Box::new(EpochDriver::new(
            resolver,
            config.lp.clone(),
            config.shadow_cold,
        )));
        Ok(())
    }

    /// Reinstates this core from journaled logs: go live at the
    /// journaled horizon, replay the activation/fix logs with ONE model
    /// rebuild (no solves — this is why recovery is an order of
    /// magnitude cheaper than re-running every epoch), then replay the
    /// executed transfers with the live epoch loop's arithmetic.
    ///
    /// Every journal-sourced index is validated here: the resolver
    /// replays its logs with plain indexing, so a corrupt journal must
    /// be rejected with a typed error, not a panic.
    fn restore(
        &mut self,
        delta: CoreDelta,
        horizon: u32,
        committed_end: u32,
        config: &EngineConfig,
    ) -> Result<(), CoflowError> {
        let bad = |what: String| Err(CoflowError::BadInstance(format!("journal: {what}")));
        let CoreState::Staged(staged) = &self.state else {
            return bad("shard restored twice".into());
        };
        if horizon == 0 {
            if !(delta.activations.is_empty()
                && delta.fixes.is_empty()
                && delta.objectives.is_empty()
                && delta.transfers.is_empty()
                && committed_end == 0)
            {
                return bad("shard events logged before its resolver existed".into());
            }
            return Ok(());
        }
        let mut starts: Vec<Vec<Option<u32>>> =
            staged.iter().map(|cf| vec![None; cf.flows.len()]).collect();
        for &(j, i, slot) in &delta.activations {
            match starts.get_mut(j).and_then(|row| row.get_mut(i)) {
                Some(s) if (1..=horizon).contains(&slot) => *s = Some(slot),
                _ => return bad(format!("activation ({j},{i},{slot}) out of range")),
            }
        }
        for &(j, i, slot, frac) in &delta.fixes {
            let active = starts
                .get(j)
                .and_then(|row| row.get(i))
                .copied()
                .flatten()
                .is_some_and(|start| start <= slot && slot <= horizon);
            if !active || !frac.is_finite() || frac < 0.0 {
                return bad(format!("fix ({j},{i},{slot},{frac}) out of range"));
            }
        }
        let edge_count = self.graph.edge_count();
        for tr in &delta.transfers {
            let in_range = starts.get(tr.coflow).is_some_and(|row| tr.flow < row.len())
                && tr.volume.is_finite()
                && tr.volume >= 0.0
                && tr
                    .edges
                    .iter()
                    .all(|&(e, v)| e < edge_count && v.is_finite());
            if !in_range {
                return bad(format!(
                    "transfer ({},{}) slot {} out of range",
                    tr.coflow, tr.flow, tr.slot
                ));
            }
        }
        if !delta.objectives.iter().all(|o| o.is_finite()) {
            return bad("non-finite epoch objective".into());
        }

        self.go_live(Some(horizon), config)?;
        let Some(driver) = self.driver_mut() else {
            return bad("shard did not go live".into());
        };
        driver.restore(
            delta.activations,
            delta.fixes,
            delta.objectives,
            committed_end,
        )?;
        for tr in delta.transfers {
            let edges = tr.edges.iter().map(|&(e, v)| (EdgeId::from_index(e), v));
            let st = SlotTransfer {
                slot: tr.slot,
                volume: tr.volume,
                edges: edges.collect(),
            };
            driver.replay_transfer(tr.coflow, tr.flow, st);
        }
        Ok(())
    }

    /// Appends this core's undrained log suffixes to `delta`, advancing
    /// `cursor`.
    fn drain_into(&self, cursor: &mut CoreCursor, delta: &mut CoreDelta) {
        let Some(driver) = self.driver() else {
            return; // nothing logged before going live
        };
        let r = driver.resolver();
        delta
            .activations
            .extend_from_slice(&r.activations()[cursor.acts..]);
        cursor.acts = r.activations().len();
        delta.fixes.extend_from_slice(&r.fixes()[cursor.fixes..]);
        cursor.fixes = r.fixes().len();
        let objectives = driver.epoch_objectives();
        delta
            .objectives
            .extend_from_slice(&objectives[cursor.objs..]);
        cursor.objs = objectives.len();
        for (j, row) in driver.schedule().flows.iter().enumerate() {
            if cursor.sched.len() == j {
                cursor.sched.push(vec![0; row.len()]);
            }
            for (i, fl) in row.iter().enumerate() {
                let seen = &mut cursor.sched[j][i];
                // `finish` merges shard schedules by *taking* these
                // rows; a post-finish drain (sealing the journal before
                // its DONE marker) must not re-log or panic on the
                // emptied rows.
                if *seen > fl.len() {
                    *seen = fl.len();
                    continue;
                }
                for st in &fl[*seen..] {
                    delta.transfers.push(TransferRecord {
                        coflow: j,
                        flow: i,
                        slot: st.slot,
                        volume: st.volume,
                        edges: st.edges.iter().map(|&(e, v)| (e.index(), v)).collect(),
                    });
                }
                *seen = fl.len();
            }
        }
    }
}

/// The long-lived scheduling engine of one tenant fabric. See module
/// docs for the lifecycle ([`admit`](Self::admit)* →
/// [`finish`](Self::finish)).
pub struct TenantEngine {
    config: EngineConfig,
    num_ports: usize,
    admitted: Vec<PortCoflow>,
    /// Effective release of each admitted coflow (clamped to the
    /// processed frontier).
    releases: Vec<u32>,
    /// `placement[a]` maps admitted coflow `a` to its shard-local
    /// sub-coflows: `(core, local_j, original flow indices)`.
    placement: Vec<Vec<(usize, usize, Vec<usize>)>>,
    partition: Partition,
    cores: Option<Vec<EpochCore>>,
    /// The per-shard egress shares the cores were created with (fixed
    /// at first dispatch); journaled so recovery can rebuild identical
    /// shard fabrics without re-deriving the proportional split.
    egress_shares: Option<Vec<Vec<f64>>>,
    /// Arrivals admitted before the cores exist (their demands feed the
    /// proportional egress split).
    waiting: Vec<usize>,
    /// Event policy: admitted release slots not yet processed.
    pending_epochs: BTreeSet<u32>,
    /// Event policy: highest processed epoch.
    frontier: Option<u32>,
    /// Doubling policy: boundary of the currently open batch and the
    /// admitted indices buffered for it.
    open_boundary: u32,
    open_batch: Vec<usize>,
    reports: Vec<EpochReport>,
    epochs_run: usize,
    resolves: usize,
}

impl TenantEngine {
    /// A fresh engine for a `num_ports`-port switch tenant.
    pub fn new(num_ports: usize, config: EngineConfig) -> TenantEngine {
        let shards = config.shards.clamp(1, num_ports.max(1));
        let partition = Partition::contiguous(num_ports, shards);
        TenantEngine {
            config,
            num_ports,
            admitted: Vec::new(),
            releases: Vec::new(),
            placement: Vec::new(),
            partition,
            cores: None,
            egress_shares: None,
            waiting: Vec::new(),
            pending_epochs: BTreeSet::new(),
            frontier: None,
            open_boundary: 0,
            open_batch: Vec::new(),
            reports: Vec::new(),
            epochs_run: 0,
            resolves: 0,
        }
    }

    /// Ports of this tenant's fabric.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Coflows admitted so far.
    pub fn admitted(&self) -> usize {
        self.admitted.len()
    }

    /// The admitted coflows themselves, in admission order. The
    /// daemon's degrade path replays these through the LP-free ordering
    /// tier when a tenant falls back.
    pub fn admitted_coflows(&self) -> &[PortCoflow] {
        &self.admitted
    }

    /// LP re-solves dispatched so far (across shards). The daemon's
    /// `max-resolves` overload knob compares against this counter — a
    /// deterministic proxy for "the LP tier is doing too much work".
    pub fn resolves(&self) -> usize {
        self.resolves
    }

    /// LP solves and simplex iterations this engine's resolvers ran,
    /// as `(solves, iterations)`, counted since the engine was built or
    /// restored. [`restore`](Self::restore) replays logs without
    /// solving, so a restored engine starts at `(0, 0)`. An infeasible
    /// answer from a resolver's load certificate runs no LP and counts
    /// in neither (see [`TimeIndexedResolver::solve`]).
    pub fn lp_work(&self) -> (usize, usize) {
        let cores = self.cores.as_deref().unwrap_or_default();
        cores
            .iter()
            .filter_map(EpochCore::driver)
            .fold((0, 0), |(solves, iters), d| {
                let r = d.resolver();
                (solves + r.resolves(), iters + r.total_iterations())
            })
    }

    /// Number of shards actually used.
    pub fn shards(&self) -> usize {
        self.partition.num_groups()
    }

    /// Drains the per-epoch reports produced since the last call.
    pub fn take_reports(&mut self) -> Vec<EpochReport> {
        std::mem::take(&mut self.reports)
    }

    /// Effective (frontier-clamped) release of each admitted coflow —
    /// what the journal's engine-admission records persist.
    pub fn releases(&self) -> &[u32] {
        &self.releases
    }

    /// The per-shard egress shares, once the cores exist.
    pub fn egress_shares(&self) -> Option<&[Vec<f64>]> {
        self.egress_shares.as_deref()
    }

    /// Snapshot of the engine-level mutable state for a journal `STATE`
    /// line.
    pub fn state(&self) -> EngineState {
        let drivers = || {
            let cores = self.cores.as_deref().unwrap_or_default();
            cores.iter().map(EpochCore::driver)
        };
        EngineState {
            frontier: self.frontier,
            pending_epochs: self.pending_epochs.iter().copied().collect(),
            open_boundary: self.open_boundary,
            open_batch: self.open_batch.clone(),
            epochs_run: self.epochs_run,
            resolves: self.resolves,
            horizons: drivers()
                .map(|d| d.map_or(0, |d| d.resolver().horizon()))
                .collect(),
            committed: drivers()
                .map(|d| d.map_or(0, EpochDriver::committed_end))
                .collect(),
        }
    }

    /// Appends every core's undrained append-only events to a fresh
    /// per-core delta list (empty deltas included, so indices line up
    /// with the shard layout), advancing `cursor`.
    pub fn drain_recovery(&self, cursor: &mut RecoveryCursor) -> Vec<CoreDelta> {
        let Some(cores) = &self.cores else {
            return Vec::new();
        };
        while cursor.cores.len() < cores.len() {
            cursor.cores.push(CoreCursor::default());
        }
        cores
            .iter()
            .zip(&mut cursor.cores)
            .map(|(core, cur)| {
                let mut delta = CoreDelta::default();
                core.drain_into(cur, &mut delta);
                delta
            })
            .collect()
    }

    /// A cursor already synced to the engine's current state — what a
    /// recovered session starts from, so only post-recovery events hit
    /// the journal.
    pub fn recovery_cursor(&self) -> RecoveryCursor {
        let mut cursor = RecoveryCursor::default();
        self.drain_recovery(&mut cursor);
        cursor
    }

    /// Reinstates an engine from journaled state: re-admit every coflow
    /// at its journaled effective release (no epochs run), rebuild the
    /// shard cores from the journaled egress shares, replay each core's
    /// activation/fix logs with one model rebuild apiece, and replay
    /// the executed transfers. The restored engine continues exactly
    /// where the crashed one stopped: same instance, same horizon, same
    /// frozen window — so its remaining epoch objectives match an
    /// uninterrupted run's to LP-optimum uniqueness.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadInstance`] on any malformed or out-of-range
    /// journal record (a truncated or corrupt journal must surface as
    /// an error, never a panic).
    pub fn restore(
        num_ports: usize,
        config: EngineConfig,
        snap: RecoverySnapshot,
    ) -> Result<TenantEngine, CoflowError> {
        let RecoverySnapshot {
            admitted,
            shares,
            cores: deltas,
            state,
        } = snap;
        let mut eng = TenantEngine::new(num_ports, config);
        for (pc, rel) in admitted {
            validate_port_coflow(num_ports, &pc)?;
            let a = eng.admitted.len();
            eng.releases.push(rel);
            eng.admitted.push(pc);
            eng.place_or_wait(a)?;
        }
        match shares {
            None => {
                if !deltas.is_empty() {
                    return Err(CoflowError::BadInstance(
                        "journal: shard events before the cores existed".into(),
                    ));
                }
            }
            Some(shares) => {
                let groups = eng.partition.num_groups();
                let shares_ok = shares.len() == groups
                    && shares.iter().all(|row| {
                        row.len() == num_ports && row.iter().all(|s| s.is_finite() && *s >= 0.0)
                    });
                if !shares_ok {
                    return Err(CoflowError::BadInstance(format!(
                        "journal: egress shares don't fit {groups} shards × {num_ports} ports"
                    )));
                }
                if deltas.len() > groups
                    || state.horizons.len() > groups
                    || state.committed.len() > groups
                {
                    return Err(CoflowError::BadInstance(
                        "journal: more shard records than shards".into(),
                    ));
                }
                eng.install_cores(shares)?;
                let cores = eng.cores.iter_mut().flatten();
                for (g, (core, delta)) in cores.zip(deltas).enumerate() {
                    let horizon = state.horizons.get(g).copied().unwrap_or(0);
                    let committed = state.committed.get(g).copied().unwrap_or(0);
                    core.restore(delta, horizon, committed, &eng.config)?;
                }
            }
        }
        if state.open_batch.iter().any(|&a| a >= eng.admitted.len()) {
            return Err(CoflowError::BadInstance(
                "journal: open-batch member out of range".into(),
            ));
        }
        eng.frontier = state.frontier;
        eng.pending_epochs = state.pending_epochs.iter().copied().collect();
        eng.open_boundary = state.open_boundary;
        eng.open_batch = state.open_batch;
        eng.epochs_run = state.epochs_run;
        eng.resolves = state.resolves;
        Ok(eng)
    }

    /// Admits one coflow and runs every epoch whose window the arrival
    /// closes. Returns the admitted index.
    ///
    /// # Errors
    ///
    /// [`CoflowError::BadInstance`] on malformed coflows (port out of
    /// range, non-positive demand/weight), and LP errors from any epoch
    /// the arrival triggers.
    pub fn admit(&mut self, rt: &Runtime, pc: PortCoflow) -> Result<usize, CoflowError> {
        validate_port_coflow(self.num_ports, &pc)?;
        // Time does not rewind: a release at or before the processed
        // frontier is admitted just after it.
        let release = match (self.config.policy, self.frontier) {
            (EpochPolicy::Event, Some(f)) if pc.release <= f => f + 1,
            _ => pc.release,
        };
        let a = self.admitted.len();
        self.releases.push(release);
        self.admitted.push(pc);
        match self.config.policy {
            EpochPolicy::Event => {
                self.place_or_wait(a)?;
                self.pending_epochs.insert(release);
                // Every pending epoch strictly before this arrival now
                // has a closed window; run them in order.
                let due: Vec<u32> = self
                    .pending_epochs
                    .iter()
                    .copied()
                    .filter(|&e| e < release)
                    .collect();
                for (k, &epoch) in due.iter().enumerate() {
                    let window_end = due.get(k + 1).copied().unwrap_or(release);
                    self.run_event_epoch(rt, epoch, Some(window_end))?;
                }
            }
            EpochPolicy::Doubling => {
                let b = doubling_boundary(release);
                if b > self.open_boundary {
                    self.dispatch_open_batch(rt)?;
                    self.open_boundary = b;
                }
                // Late (out-of-order) arrivals join the open batch.
                self.place_or_wait(a)?;
                self.open_batch.push(a);
            }
        }
        Ok(a)
    }

    /// Runs the remaining epochs to completion, merges the shard
    /// schedules, and validates the merged schedule against the full
    /// unsharded instance.
    ///
    /// # Errors
    ///
    /// LP errors from the final epochs;
    /// [`CoflowError::InvalidSchedule`] if work was left unmoved or the
    /// merged schedule fails validation (both indicate engine bugs —
    /// the validator is the referee).
    pub fn finish(&mut self, rt: &Runtime) -> Result<ServiceOutcome, CoflowError> {
        match self.config.policy {
            EpochPolicy::Event => {
                let due: Vec<u32> = std::mem::take(&mut self.pending_epochs)
                    .into_iter()
                    .collect();
                for (k, &epoch) in due.iter().enumerate() {
                    self.pending_epochs = due[k + 1..].iter().copied().collect();
                    let window_end = due.get(k + 1).copied();
                    self.run_event_epoch(rt, epoch, window_end)?;
                }
                self.pending_epochs.clear();
            }
            EpochPolicy::Doubling => {
                self.dispatch_open_batch(rt)?;
            }
        }

        // ---- Coordinator: merge, reconcile, validate. ----
        let Some(cores) = &mut self.cores else {
            // No work was ever dispatched (zero admissions).
            return Ok(ServiceOutcome {
                admitted: self.admitted.len(),
                cold_iterations: self.config.shadow_cold.then_some(0),
                ..ServiceOutcome::default()
            });
        };
        // A core still staged never ran; validation below catches it.
        for (g, core) in cores.iter().enumerate() {
            if let Some((j, i, r)) = core.driver().and_then(EpochDriver::unmoved) {
                return Err(CoflowError::InvalidSchedule(format!(
                    "shard {g} left flow ({j},{i}) with {r} unmoved"
                )));
            }
        }

        // Full unsharded instance: every shard shares the full fabric's
        // node/edge ids, so shard-local transfers merge verbatim.
        let full = shard_fabric(self.num_ports, &vec![1.0; self.num_ports]);
        let n = self.num_ports;
        let coflows: Vec<Coflow> = self
            .admitted
            .iter()
            .zip(&self.releases)
            .map(|(pc, &rel)| {
                Coflow::weighted(
                    pc.weight,
                    pc.flows
                        .iter()
                        .map(|&(m, r, d)| Flow::released(full.inner[m], full.inner[n + r], d, rel))
                        .collect(),
                )
            })
            .collect();
        let full_inst = CoflowInstance::new(full.graph, coflows)?;
        let mut merged = Schedule {
            flows: self
                .admitted
                .iter()
                .map(|pc| vec![Vec::new(); pc.flows.len()])
                .collect(),
        };
        for (a, parts) in self.placement.iter().enumerate() {
            for &(g, local_j, ref orig) in parts {
                let Some(driver) = cores[g].driver_mut() else {
                    continue;
                };
                for (local_i, &i) in orig.iter().enumerate() {
                    merged.flows[a][i] = driver.take_transfers(local_j, local_i);
                }
            }
        }
        let report = validate(
            &full_inst,
            &Routing::FreePath,
            &merged,
            Tolerance::default(),
        )?;

        // Cross-shard reconciliation of completion times is the
        // coordinator's `max` over each coflow's sub-coflows — which is
        // exactly what computing completions on the merged schedule does.
        let mut epoch_objectives = Vec::new();
        let mut lp_iterations = 0;
        let mut cold_iterations = 0;
        let mut rebuilds = 0;
        let (mut certified_infeasible, mut solved_infeasible) = (0, 0);
        let mut lp_stats = SolveStats::default();
        for driver in cores.iter().filter_map(EpochCore::driver) {
            lp_iterations += driver.resolver().total_iterations();
            cold_iterations += driver.cold_iterations();
            rebuilds += driver.rebuilds();
            certified_infeasible += driver.resolver().certified_infeasible();
            solved_infeasible += driver.resolver().solved_infeasible();
            lp_stats.merge(&driver.lp_stats());
            for (k, &o) in driver.epoch_objectives().iter().enumerate() {
                match epoch_objectives.get_mut(k) {
                    Some(sum) => *sum += o,
                    None => epoch_objectives.push(o),
                }
            }
        }
        // Deadline accounting against the caller's original requests
        // (the LP tier schedules deadline-blind; misses are reported,
        // not prevented — admission control lives in the ordering tier).
        let deadline_total = self
            .admitted
            .iter()
            .filter(|pc| pc.deadline.is_some())
            .count();
        let deadline_missed = self
            .admitted
            .iter()
            .zip(&report.completions.per_coflow)
            .filter(|(pc, &c)| pc.deadline.is_some_and(|d| c > d))
            .count();
        Ok(ServiceOutcome {
            admitted: self.admitted.len(),
            objective: report.completions.weighted_total,
            completions: report.completions.per_coflow.clone(),
            epochs: self.epochs_run,
            lp_iterations,
            cold_iterations: self.config.shadow_cold.then_some(cold_iterations),
            resolves: self.resolves,
            rebuilds,
            certified_infeasible,
            solved_infeasible,
            lp_stats,
            peak_utilization: report.peak_utilization,
            epoch_objectives,
            deadline_total,
            deadline_missed,
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Splits admitted coflow `a` into its shard-local sub-coflows, or
    /// parks it until the cores exist (they are created at the first
    /// dispatch so the proportional split can see real demands).
    fn place_or_wait(&mut self, a: usize) -> Result<(), CoflowError> {
        self.placement.push(Vec::new());
        if self.cores.is_none() {
            self.waiting.push(a);
            return Ok(());
        }
        self.place(a)
    }

    fn place(&mut self, a: usize) -> Result<(), CoflowError> {
        let groups = self.partition.num_groups();
        let pc = &self.admitted[a];
        let release = self.releases[a];
        // Group the coflow's flows by owning shard, preserving order.
        let mut per_shard: Vec<ShardSlice> = vec![(Vec::new(), Vec::new()); groups];
        for (i, &(m, r, d)) in pc.flows.iter().enumerate() {
            let g = self.partition.of_port[r];
            per_shard[g].0.push((m, r, d));
            per_shard[g].1.push(i);
        }
        let weight_share = {
            // Weighted completion time of a coflow is reconciled as the
            // max over its sub-coflows; splitting the weight evenly over
            // the shards that host it keeps the shard LPs' objectives
            // comparable to the unsharded one without double counting.
            let hosts = per_shard.iter().filter(|(f, _)| !f.is_empty()).count();
            self.admitted[a].weight / hosts.max(1) as f64
        };
        let cores = self.cores.as_mut().expect("cores exist");
        for (g, (flows, orig)) in per_shard.into_iter().enumerate() {
            if flows.is_empty() {
                continue;
            }
            let cf = cores[g].make_coflow(weight_share, release, &flows);
            let local_j = cores[g].admit(cf)?;
            self.placement[a].push((g, local_j, orig));
        }
        Ok(())
    }

    /// Creates the shard cores (first dispatch) and places everything
    /// that was waiting on them.
    fn ensure_cores(&mut self) -> Result<(), CoflowError> {
        if self.cores.is_some() {
            return Ok(());
        }
        let shares = mapper_shares(
            self.num_ports,
            &self.partition,
            self.config.split,
            self.admitted.iter().flat_map(|pc| pc.flows.iter().copied()),
        );
        self.install_cores(shares)
    }

    /// Creates the shard cores over the given per-shard egress shares
    /// and places everything that was waiting on them.
    fn install_cores(&mut self, shares: Vec<Vec<f64>>) -> Result<(), CoflowError> {
        let cores = shares.iter().map(|row| EpochCore::new(self.num_ports, row));
        self.cores = Some(cores.collect());
        self.egress_shares = Some(shares);
        for a in std::mem::take(&mut self.waiting) {
            self.place(a)?;
        }
        Ok(())
    }

    /// Runs one event-policy epoch across all shard cores.
    fn run_event_epoch(
        &mut self,
        rt: &Runtime,
        epoch: u32,
        window_end: Option<u32>,
    ) -> Result<(), CoflowError> {
        self.ensure_cores()?;
        self.pending_epochs.remove(&epoch);
        self.frontier = Some(self.frontier.map_or(epoch, |f| f.max(epoch)));
        self.dispatch(rt, epoch, |_, d| d.event_epoch(epoch, window_end))
    }

    /// Dispatches the open doubling batch (if any) across all cores.
    fn dispatch_open_batch(&mut self, rt: &Runtime) -> Result<(), CoflowError> {
        if self.open_batch.is_empty() {
            return Ok(());
        }
        self.ensure_cores()?;
        // Per-core member lists, in local coflow order.
        let mut local_members: Vec<Vec<usize>> = vec![Vec::new(); self.partition.num_groups()];
        for a in std::mem::take(&mut self.open_batch) {
            for &(g, local_j, _) in &self.placement[a] {
                local_members[g].push(local_j);
            }
        }
        let boundary = self.open_boundary;
        self.dispatch(rt, boundary, |g, d| d.batch(boundary, &local_members[g]))
    }

    /// Runs `step` on every shard core's driver (in parallel when
    /// sharded; cores go live at their first dispatch) and folds the
    /// results into one [`EpochReport`] for slot `at`. The cores must
    /// exist.
    fn dispatch<F>(&mut self, rt: &Runtime, at: u32, step: F) -> Result<(), CoflowError>
    where
        F: Fn(usize, &mut EpochDriver<'static>) -> Result<Option<EpochStep>, CoflowError> + Sync,
    {
        let config = &self.config;
        let started = Instant::now();
        let cores = self.cores.as_deref_mut().unwrap_or_default();
        let results = on_cores(rt, cores, |g, core| {
            core.go_live(config.horizon_hint, config)?;
            core.driver_mut().map_or(Ok(None), |d| step(g, d))
        })?;
        self.fold_report(at, started, results);
        Ok(())
    }

    /// Folds per-core epoch results into one report (skipped entirely
    /// when no core had pending work).
    fn fold_report(&mut self, epoch: u32, started: Instant, results: Vec<Option<EpochStep>>) {
        let steps: Vec<(usize, EpochStep)> = results
            .into_iter()
            .enumerate()
            .filter_map(|(g, step)| Some((g, step?)))
            .collect();
        if steps.is_empty() {
            return;
        }
        let mut transfers: BTreeMap<(usize, u32), f64> = BTreeMap::new();
        if self.config.emit_plans {
            // Shard-local coflow → admitted index.
            let admitted_of: BTreeMap<(usize, usize), usize> = self
                .placement
                .iter()
                .enumerate()
                .flat_map(|(a, parts)| parts.iter().map(move |&(g, j, _)| ((g, j), a)))
                .collect();
            for (g, step) in &steps {
                for &(local_j, slot, vol) in &step.executed {
                    if let Some(&a) = admitted_of.get(&(*g, local_j)) {
                        *transfers.entry((a, slot)).or_insert(0.0) += vol;
                    }
                }
            }
        }
        self.resolves += steps.len();
        self.epochs_run += 1;
        self.reports.push(EpochReport {
            epoch,
            objective: steps.iter().map(|(_, s)| s.objective).sum(),
            iterations: steps.iter().map(|(_, s)| s.iterations).sum(),
            warm: steps.iter().all(|(_, s)| s.warm),
            cold_iterations: steps
                .iter()
                .filter_map(|(_, s)| s.cold_iterations)
                .reduce(|a, b| a + b),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            transfers: transfers
                .into_iter()
                .map(|((a, slot), vol)| (a, slot, vol))
                .collect(),
        });
    }
}

/// Applies `f` to every core — inline when unsharded, fanned out on the
/// runtime when sharded (each shard's LP solve is independent). Each
/// task writes its own result slot; `Runtime::scope` re-raises a task
/// panic, so every slot is filled once the scope returns.
fn on_cores<F>(
    rt: &Runtime,
    cores: &mut [EpochCore],
    f: F,
) -> Result<Vec<Option<EpochStep>>, CoflowError>
where
    F: Fn(usize, &mut EpochCore) -> Result<Option<EpochStep>, CoflowError> + Sync,
{
    if cores.len() == 1 || rt.workers() == 1 {
        return cores
            .iter_mut()
            .enumerate()
            .map(|(g, core)| f(g, core))
            .collect();
    }
    let mut slots: Vec<Option<Result<Option<EpochStep>, CoflowError>>> =
        cores.iter().map(|_| None).collect();
    let f = &f;
    rt.scope(|scope| {
        for (g, (core, slot)) in cores.iter_mut().zip(&mut slots).enumerate() {
            scope.spawn(move || *slot = Some(f(g, core)));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(CoflowError::Lp("shard task did not run".into()))))
        .collect()
}

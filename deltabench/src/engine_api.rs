//! The one file of the benchmark that names the program's crates.
//!
//! Every call into `deltanet`, `netmodel`, `service`, `workloads` and
//! `veriflow-ri` goes through the thin functions below; the harness and the
//! workloads see only the types re-exported here. When the engine types are
//! renamed or merged (`ShardedDeltaNet`, `LoggedNet`, `PersistNet` are all
//! candidates), re-pointing the benchmark is an edit to this file alone.
//!
//! Nothing here measures anything: the callers take the clock readings, so
//! a per-layer number is always the time of a call into a public function
//! of the program, seen from outside.

use deltanet::{
    AtomMap, DeltaNet, DeltaNetConfig, Durability, FaultyBackend, LoggedNet, Parallelism,
    PersistNet, RecoveryPolicy, ShardedDeltaNet,
};
use netmodel::checker::{Checker, InvariantViolation};
use netmodel::interval::{normalize, Interval};
use netmodel::topology::NodeId;
use service::json as wire;
use service::proto;
use service::server::{Server, ServiceConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use veriflow_ri::{VeriflowConfig, VeriflowRi};
use workloads::bgp::{generate_prefixes, PrefixGenConfig};
use workloads::rulegen::{
    generate_multifield_rules, generate_rules, MultiFieldConfig, PriorityMode, RuleGenConfig,
};
use workloads::sdnip::{airtel_pair_failures, four_switch_rounds, SdnIpConfig};
use workloads::topologies::{airtel_default, berkeley, four_switch_with_borders};

pub use netmodel::checker::{UpdateReport, WhatIfReport};
use netmodel::rule::{Priority, Rule, RuleId};
pub use netmodel::topology::{LinkId, Topology};
pub use netmodel::trace::Op;
use netmodel::trace::Trace;
pub use service::json::Json as WireJson;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Inputs: the seeded generators, called directly (`datasets::build` pins
// its own seeds, so it cannot serve a benchmark that takes one).
// ---------------------------------------------------------------------------

/// One topology and the operations replayed on it.
pub struct Segment {
    pub name: &'static str,
    pub topology: Topology,
    trace: Trace,
}

impl Segment {
    pub fn ops(&self) -> &[Op] {
        self.trace.ops()
    }
}

/// Airtel-2-class SDN-IP churn: initial install, then `pairs` two-link
/// failures, each failed and recovered.
pub fn gen_airtel_pairs(seed: u64, prefixes_per_router: usize, pairs: usize) -> Segment {
    let config = SdnIpConfig {
        prefixes_per_router,
        seed,
    };
    let (topo, trace) = airtel_pair_failures(airtel_default(), config, Some(pairs));
    Segment {
        name: "airtel-pairs",
        topology: topo.topology,
        trace,
    }
}

/// 4Switch-class rounds: insert-only advertisement batches on a small ring.
pub fn gen_four_switch(seed: u64, prefixes_per_router: usize, rounds: usize) -> Segment {
    let (topo, trace) = four_switch_rounds(
        four_switch_with_borders(),
        prefixes_per_router,
        rounds,
        seed,
    );
    Segment {
        name: "four-switch",
        topology: topo.topology,
        trace,
    }
}

/// Berkeley-class campus plane: shortest-path rules for `prefixes`
/// prefixes, random priorities; with `removals`, every rule is removed
/// again in random order.
pub fn gen_campus(seed: u64, prefixes: usize, removals: bool) -> Segment {
    let topo = berkeley();
    let prefixes = generate_prefixes(PrefixGenConfig {
        count: prefixes,
        overlap_percent: 35,
        seed,
    });
    let rules = generate_rules(
        &topo,
        &prefixes,
        RuleGenConfig {
            priority_mode: PriorityMode::Random,
            seed,
            append_removals: removals,
        },
    );
    Segment {
        name: "campus",
        topology: topo.topology,
        trace: rules.trace,
    }
}

/// Flapping-prefix churn on the 8-switch ring; also returns how many
/// leading operations install the stable plane.
pub fn gen_flapping(seed: u64, stable: usize, flapping: usize, cycles: usize) -> (Segment, usize) {
    let topo = workloads::churn::churn_topology();
    let churn = workloads::churn::flapping_churn(
        &topo,
        workloads::ChurnConfig {
            stable_prefixes: stable,
            flapping_prefixes: flapping,
            cycles,
            seed,
        },
    );
    let segment = Segment {
        name: "flapping",
        topology: topo.topology,
        trace: churn.trace,
    };
    (segment, churn.baseline_ops)
}

/// Width of the one secondary field (source address bits) of the ACL
/// workload.
const ACL_SECONDARY_WIDTHS: [u8; 1] = [8];

/// dst × src ACL on an 8-switch ring: forwarding rules per prefix overlaid
/// with source-constrained denies, then every rule removed in random order.
pub fn gen_acl(seed: u64, prefixes: usize) -> Segment {
    let topo = workloads::topologies::ring_with_borders("acl", 8);
    let prefixes = generate_prefixes(PrefixGenConfig {
        count: prefixes,
        overlap_percent: 35,
        seed,
    });
    let generated = generate_multifield_rules(
        &topo,
        &prefixes,
        &MultiFieldConfig {
            sec_widths: ACL_SECONDARY_WIDTHS.to_vec(),
            seed,
            append_removals: true,
            ..MultiFieldConfig::default()
        },
    );
    Segment {
        name: "acl",
        topology: generated.topology,
        trace: generated.trace,
    }
}

// ---------------------------------------------------------------------------
// The plain engine: per-op apply, queries, scans.
// ---------------------------------------------------------------------------

pub type PlainNet = DeltaNet;

/// A stand-alone engine at the default configuration, with the per-update
/// loop check on or off.
pub fn build_plain(topology: &Topology, check_loops: bool) -> PlainNet {
    DeltaNet::new(
        topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: check_loops,
            ..DeltaNetConfig::default()
        },
    )
}

/// The multi-field engine of the ACL workload (dst primary, 8-bit src
/// secondary, auto-compaction at 256 reclaimable bounds).
pub fn build_acl(topology: &Topology, monitored: bool) -> PlainNet {
    DeltaNet::new(
        topology.clone(),
        DeltaNetConfig {
            compact_threshold: Some(256),
            monitor_violations: monitored,
            ..DeltaNetConfig::default()
        }
        .with_secondary(&ACL_SECONDARY_WIDTHS),
    )
}

/// Applies one operation; `None` when the engine refused it.
pub fn apply(net: &mut PlainNet, op: &Op) -> Option<UpdateReport> {
    net.try_apply(op).ok()
}

/// Monitor transitions (appeared + resolved) caused by the last operation.
pub fn last_transitions(net: &PlainNet) -> usize {
    net.monitor().map_or(0, |m| m.last_events().len())
}

/// Links whose label is non-empty: the links some packet currently uses.
pub fn loaded_links(net: &PlainNet) -> Vec<LinkId> {
    net.topology()
        .links()
        .iter()
        .map(|l| l.id)
        .filter(|&id| !net.label(id).is_empty())
        .collect()
}

/// The link-failure what-if query, with loop checks on the affected part.
pub fn whatif(net: &PlainNet, link: LinkId) -> WhatIfReport {
    net.link_failure_impact(link, true)
}

pub fn compact(net: &mut PlainNet) {
    net.compact();
}

/// Atom splitting alone: every inserted rule's interval through
/// `AtomMap::create_atoms_into` on a fresh 32-bit map. Returns the number
/// of inserts and the final atom count.
pub fn split_atoms(ops: &[Op]) -> (usize, usize) {
    let mut atoms = AtomMap::new(32);
    let mut delta = Vec::new();
    let mut inserts = 0;
    for op in ops {
        if let Op::Insert(rule) = op {
            delta.clear();
            atoms.create_atoms_into(rule.interval(), &mut delta);
            inserts += 1;
        }
    }
    (inserts, atoms.atom_count())
}

/// Size and state of a data plane, read after a section has been timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    pub rules: usize,
    pub atoms: usize,
    pub allocated_atoms: usize,
    pub live_bytes: usize,
    pub compactions: usize,
    /// Violations the live monitor holds; `None` when monitoring is off.
    pub active_violations: Option<usize>,
}

pub fn plane_stats(net: &PlainNet) -> PlaneStats {
    PlaneStats {
        rules: net.rule_count(),
        atoms: net.atom_count(),
        allocated_atoms: net.allocated_atoms(),
        live_bytes: net.live_bytes(),
        compactions: net.compactions(),
        active_violations: net.active_violations().map(|v| v.len()),
    }
}

/// Atoms on the secondary header fields (0 on a single-field engine).
pub fn secondary_atoms(net: &PlainNet) -> usize {
    net.secondary_atoms().iter().map(AtomMap::atom_count).sum()
}

/// The two full-plane scans the monitor is compared with. Each returns the
/// violations it found; the caller times each call.
pub fn scan_loops(net: &PlainNet) -> Vec<InvariantViolation> {
    net.check_all_loops()
}

pub fn scan_blackholes(net: &PlainNet) -> Vec<InvariantViolation> {
    net.check_all_blackholes()
}

/// Whether the monitor's live state equals what the full scans report.
pub fn monitor_matches_scans(net: &PlainNet) -> bool {
    monitor_agrees(
        net.active_violations(),
        net.check_all_loops(),
        net.check_all_blackholes(),
    )
}

fn monitor_agrees(
    active: Option<Vec<InvariantViolation>>,
    mut loops: Vec<InvariantViolation>,
    holes: Vec<InvariantViolation>,
) -> bool {
    loops.extend(holes);
    active.is_some_and(|active| canonical(&active) == canonical(&loops))
}

type Canonical = (
    BTreeMap<Vec<NodeId>, Vec<Interval>>,
    BTreeMap<NodeId, Vec<Interval>>,
);

/// Violations keyed by identity with packet sets normalised, so that two
/// reports of the same plane compare equal whatever order or slicing they
/// were produced in.
fn canonical(violations: &[InvariantViolation]) -> Canonical {
    let mut loops: BTreeMap<Vec<NodeId>, Vec<Interval>> = BTreeMap::new();
    let mut holes: BTreeMap<NodeId, Vec<Interval>> = BTreeMap::new();
    for v in violations {
        match v {
            InvariantViolation::ForwardingLoop { nodes, packets } => {
                loops.entry(nodes.clone()).or_default().extend(packets);
            }
            InvariantViolation::Blackhole { node, packets } => {
                holes.entry(*node).or_default().extend(packets);
            }
        }
    }
    for packets in loops.values_mut().chain(holes.values_mut()) {
        *packets = normalize(std::mem::take(packets));
    }
    (loops, holes)
}

// ---------------------------------------------------------------------------
// The windowed write path: sharded, optionally monitored, optionally logged.
// ---------------------------------------------------------------------------

/// Which of the write path's layers a windowed engine mounts. The main
/// `flap-window` run mounts all of them; the probe passes of a traced run
/// peel them off one at a time.
#[derive(Clone, Copy, Debug)]
pub struct WindowedShape {
    pub shards: usize,
    pub monitor: bool,
    /// Log every applied op through `LoggedNet` at `FsyncPerBatch` onto the
    /// in-memory `FaultyBackend`.
    pub logged: bool,
}

pub struct WindowedNet {
    inner: WindowedInner,
    backend: FaultyBackend,
    transitions: Arc<AtomicU64>,
}

enum WindowedInner {
    Bare(Box<ShardedDeltaNet>),
    Logged(Box<LoggedNet>),
}

const LOG_PATH: &str = "deltabench.dnlog";

/// One worker thread per shard, which is what `Parallelism::auto()` gives
/// a 2-shard engine on the 2-vCPU sizing box. A run is pinned to one CPU
/// (see the README), where `auto()` would read the affinity mask, find one
/// CPU, and apply the shards inline: the hand-off to worker threads that
/// every window pays in deployment would drop out of the measurement.
fn worker_per_shard(shards: usize) -> Parallelism {
    Parallelism::fixed(shards)
}

pub fn build_windowed(topology: &Topology, shape: WindowedShape) -> WindowedNet {
    let config = DeltaNetConfig {
        monitor_violations: shape.monitor,
        ..DeltaNetConfig::default()
    };
    let mut net = ShardedDeltaNet::with_parallelism(
        topology.clone(),
        config,
        shape.shards,
        worker_per_shard(shape.shards),
    );
    let transitions = Arc::new(AtomicU64::new(0));
    if shape.monitor {
        let counter = Arc::clone(&transitions);
        net.set_monitor_observer(move |t| {
            counter.fetch_add(t.len() as u64, Ordering::Relaxed);
        });
    }
    let backend = FaultyBackend::new();
    let inner = if shape.logged {
        let logged = LoggedNet::with_backend(
            PersistNet::Sharded(Box::new(net)),
            Box::new(backend.clone()),
            Path::new(LOG_PATH),
            0,
            Durability::FsyncPerBatch,
        )
        .expect("the in-memory backend accepts a fresh log");
        WindowedInner::Logged(Box::new(logged))
    } else {
        WindowedInner::Bare(Box::new(net))
    };
    WindowedNet {
        inner,
        backend,
        transitions,
    }
}

/// Applies one window; `None` when the engine refused an op of it.
pub fn apply_window(net: &mut WindowedNet, ops: &[Op]) -> Option<Vec<UpdateReport>> {
    match &mut net.inner {
        WindowedInner::Bare(n) => n.apply_batch(ops).ok(),
        WindowedInner::Logged(n) => n.apply_batch(ops).ok(),
    }
}

/// What the log cost: fsyncs issued and bytes appended, exact counts from
/// the in-memory backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    pub syncs: u64,
    pub bytes: u64,
}

impl WindowedNet {
    fn sharded(&self) -> &ShardedDeltaNet {
        match &self.inner {
            WindowedInner::Bare(n) => n,
            WindowedInner::Logged(n) => n
                .net()
                .as_sharded()
                .expect("build_windowed mounts a sharded engine"),
        }
    }

    pub fn plane_stats(&self) -> PlaneStats {
        let net = self.sharded();
        PlaneStats {
            rules: net.rule_count(),
            atoms: net.atom_count(),
            allocated_atoms: net.allocated_atoms(),
            live_bytes: net.live_bytes(),
            compactions: net.compactions(),
            active_violations: net.active_violations().map(|v| v.len()),
        }
    }

    /// Monitor transitions (appeared + resolved) observed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    pub fn monitor_matches_scans(&self) -> bool {
        let net = self.sharded();
        monitor_agrees(
            net.active_violations(),
            net.check_all_loops(),
            net.check_all_blackholes(),
        )
    }

    /// How unevenly rules spread over the shards: (largest shard − mean) ÷
    /// mean, in percent. 0 for one shard or an empty plane.
    pub fn rule_skew_pct(&self) -> f64 {
        let per_shard: Vec<usize> = self
            .sharded()
            .shards()
            .iter()
            .map(Checker::rule_count)
            .collect();
        let total: usize = per_shard.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / per_shard.len() as f64;
        let largest = per_shard.iter().copied().max().unwrap_or(0) as f64;
        (largest - mean) / mean * 100.0
    }

    /// `None` for an engine without a log.
    pub fn log_stats(&self) -> Option<LogStats> {
        matches!(self.inner, WindowedInner::Logged(_)).then(|| LogStats {
            syncs: self.backend.sync_count(),
            bytes: self.backend.bytes_appended(),
        })
    }

    /// Reads the log back under strict recovery and counts its records;
    /// `None` if there is no log or it does not parse.
    pub fn log_records(&self) -> Option<usize> {
        deltanet::persist::read_log_with(
            &mut self.backend.clone(),
            Path::new(LOG_PATH),
            RecoveryPolicy::Strict,
        )
        .ok()
        .map(|report| report.ops.len())
    }
}

// ---------------------------------------------------------------------------
// The daemon and its wire protocol.
// ---------------------------------------------------------------------------

pub struct Daemon {
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// The daemon's default configuration (2 shards, 32-op windows; the service
/// forces the violation monitor on), with one worker per shard.
fn daemon_config() -> ServiceConfig {
    let defaults = ServiceConfig::default();
    ServiceConfig {
        parallelism: worker_per_shard(defaults.shards),
        ..defaults
    }
}

/// Ops per `batch` request: the daemon's default window, so one request in
/// flight is exactly one `apply_batch` window.
pub fn daemon_window() -> usize {
    daemon_config().window
}

/// Boots the daemon on an ephemeral loopback port.
pub fn boot_daemon(topology: &Topology) -> std::io::Result<Daemon> {
    let server = Server::bind("127.0.0.1:0", topology.clone(), daemon_config())?;
    let addr = server.local_addr()?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Daemon { addr, thread })
}

impl Daemon {
    /// Waits for the daemon to stop (after a `shutdown` request) and
    /// reports whether it stopped cleanly.
    pub fn join(self) -> bool {
        matches!(self.thread.join(), Ok(Ok(())))
    }
}

/// The in-process engine of the same shape the daemon runs: the daemon
/// pre-creates every node's drop link, so the comparison plane does too.
pub fn build_like_daemon(topology: &Topology, monitor: bool) -> WindowedNet {
    let mut prepared = topology.clone();
    let nodes: Vec<NodeId> = prepared.nodes().collect();
    for node in nodes {
        prepared.drop_link(node);
    }
    build_windowed(
        &prepared,
        WindowedShape {
            shards: daemon_config().shards,
            monitor,
            logged: false,
        },
    )
}

pub fn encode_batch_request(id: u64, ops: &[Op], topology: &Topology) -> String {
    proto::batch_request(id, ops, topology).render()
}

pub fn encode_plain_request(id: u64, op: &str) -> String {
    wire::obj(vec![("id", WireJson::int(id)), ("op", WireJson::str(op))]).render()
}

pub fn encode_subscribe_request(id: u64, buffer: usize) -> String {
    wire::obj(vec![
        ("id", WireJson::int(id)),
        ("op", WireJson::str("subscribe")),
        ("buffer", WireJson::int(buffer)),
    ])
    .render()
}

/// Protocol decode of one request line (JSON parse + resolution against the
/// topology); true when the line is a well-formed request.
pub fn decode_request(line: &str, topology: &Topology) -> bool {
    proto::parse_request(line, topology).is_ok()
}

/// JSON parse alone.
pub fn parse_json(line: &str) -> Option<WireJson> {
    wire::parse(line).ok()
}

/// The reply the daemon renders for a fully applied batch whose first op
/// landed at global position `first_at`.
pub fn encode_batch_reply(id: u64, first_at: u64, reports: &[UpdateReport]) -> String {
    let acks = reports
        .iter()
        .zip(first_at..)
        .map(|(report, at)| proto::batch_op_ack(at, report))
        .collect();
    proto::batch_reply(id, true, reports.len(), acks).render()
}

pub fn json_u64(value: &WireJson, key: &str) -> Option<u64> {
    value.get(key).and_then(WireJson::as_u64)
}

pub fn json_bool(value: &WireJson, key: &str) -> Option<bool> {
    value.get(key).and_then(WireJson::as_bool)
}

pub fn json_arr<'a>(value: &'a WireJson, key: &str) -> Option<&'a [WireJson]> {
    value.get(key).and_then(WireJson::as_arr)
}

// ---------------------------------------------------------------------------
// The reference checker the oracles compare with.
// ---------------------------------------------------------------------------

pub type Reference = VeriflowRi;

pub fn build_reference(topology: &Topology, check_loops: bool) -> Reference {
    VeriflowRi::new(
        topology.clone(),
        VeriflowConfig {
            check_loops_per_update: check_loops,
            ..VeriflowConfig::default()
        },
    )
}

pub fn reference_apply(reference: &mut Reference, op: &Op) -> Option<UpdateReport> {
    reference.try_apply(op).ok()
}

/// Spots the first insert that overlaps a live rule of equal priority on
/// the same switch. The paper assumes overlapping rules have distinct
/// priorities; where a generated trace breaks that (4Switch rounds
/// re-advertise a prefix), the engine and the reference checker break the
/// tie differently, so their planes — and loop verdicts — may part ways
/// from that op on without either being wrong.
#[derive(Default)]
pub struct TieWatch {
    live: HashMap<(NodeId, Priority), Vec<Rule>>,
    keys: HashMap<RuleId, (NodeId, Priority)>,
}

impl TieWatch {
    /// Tracks `op`; true when it is an insert that ties with a live rule.
    pub fn ties(&mut self, op: &Op) -> bool {
        match op {
            Op::Insert(rule) => {
                let key = (rule.source, rule.priority);
                let peers = self.live.entry(key).or_default();
                let tie = peers.iter().any(|r| r.conflicts_with(rule));
                peers.push(*rule);
                self.keys.insert(rule.id, key);
                tie
            }
            Op::Remove(id) => {
                if let Some(key) = self.keys.remove(id) {
                    if let Some(peers) = self.live.get_mut(&key) {
                        peers.retain(|r| r.id != *id);
                    }
                }
                false
            }
        }
    }
}

pub fn reference_rule_count(reference: &Reference) -> usize {
    reference.rule_count()
}

pub fn reference_whatif(reference: &Reference, link: LinkId) -> WhatIfReport {
    reference.link_failure_impact(link, false)
}

/// The relation the repo's differential suite pins between the two
/// checkers' what-if answers: they agree on whether any packet uses the
/// link, and every packet interval the engine reports is covered by one the
/// reference reports (the reference over-approximates with rule prefixes).
pub fn whatif_agrees(engine: &WhatIfReport, reference: &WhatIfReport) -> bool {
    (engine.affected_classes > 0) == (reference.affected_classes > 0)
        && engine.affected_packets.iter().all(|iv| {
            reference
                .affected_packets
                .iter()
                .any(|big| big.contains_interval(iv))
        })
}

//! One differential driver for the randomized suites: a seeded op
//! [`Stream`] is applied, per op or in windows, to an engine [`Shape`] and
//! checked at a cadence by [`Oracle`]s — one generate → apply → check loop
//! ([`run`]) for every suite. Every shape is a [`PersistNet`] (one engine or
//! `n` shards), so every oracle checks every shape, and a failed assertion
//! names the case (its seed), the op, the shape and the oracle:
//!
//! ```text
//! seed 0x5aad, op 17 (draw 19), Shape { shards: 7, .. }: Single: labels diverge on LinkId(4)
//! ```
//!
//! The suites' address space is 8 bits wide ([`config`]), so the FIB
//! oracles trace every address exhaustively. A journaled shape writes to an
//! in-memory [`FaultyBackend`], which [`Oracle::Crash`] cuts at a byte and
//! recovers.

// Each suite compiles this module on its own and uses a slice of it.
#![allow(dead_code)]

use deltanet::fault::StorageBackend;
use deltanet::loops::successor;
use deltanet::persist::{self, encode_record, read_log_with, TornTail};
use deltanet::{
    CheckpointConfig, CompactReport, DeltaNet, DeltaNetConfig, Durability, FaultPlan,
    FaultyBackend, Journal, MonitorTransitions, Parallelism, PersistError, PersistNet,
    RecoveryPolicy, Session, ShardedDeltaNet, Snapshot, ViolationKey,
};
use netmodel::checker::{Checker, InvariantViolation, ReplayError, UpdateReport};
use netmodel::fib::{NetworkFib, TraceOutcome};
use netmodel::interval::{normalize, Interval};
use netmodel::ip::IpPrefix;
use netmodel::packet::Packet;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use testutil::{blackholes_by_node, loops_by_cycle, OpGen};
use veriflow_ri::{scan_multifield, VeriflowConfig, VeriflowRi};

/// A cadence that fires only at the end of the stream.
pub const END: usize = usize::MAX;

/// The ops a run applies, each at a draw index the cadences count.
pub enum Stream<'a> {
    /// `draws` draws of an [`OpGen`]; a draw it rejects (a same-priority
    /// conflict) applies nothing but still counts, as in a
    /// `for step in 0..draws` loop.
    Churn(&'a mut StdRng, OpGen, usize),
    /// Ops as data: op `i` is draw `i`.
    Ops(Vec<Op>),
}

/// What applies the stream, and how.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// `0`: one [`DeltaNet`]; `n`: a [`ShardedDeltaNet`] of `n` shards.
    pub shards: usize,
    /// Monitoring, the compaction threshold and the header space live here.
    pub config: DeltaNetConfig,
    /// `0`: ops apply one by one (`try_apply`); `n`: in windows of `n`
    /// (`apply_window`).
    pub window: usize,
    /// An explicit compaction pass on every engine of the run after every
    /// `k`-th draw and after the last ([`END`]: after the last only).
    pub compact_every: Option<usize>,
    /// `(k, tail)`: a twin restored from the engine's snapshot bytes after
    /// every `k`-th draw before the stream's last `tail` draws and once more
    /// just before them, then fed the same ops — so the last twin takes the
    /// whole tail.
    pub restore: Option<(usize, usize)>,
    /// Ops apply through a [`Session`] whose journal writes to an in-memory
    /// [`FaultyBackend`] at [`Durability::FsyncPerBatch`] and is synced after
    /// every window; the run ends by recovering it ([`persist::recover_with`]
    /// or [`persist::recover_dir`]) to the live engine's state.
    pub journal: Option<Log>,
    /// The journal's disk dies once this many bytes are appended
    /// ([`FaultPlan::crash_at_byte`]): the stream stops after the window
    /// whose sync fails, and [`Oracle::Crash`] recovers what survived.
    pub crash_at_byte: Option<u64>,
}

/// How a journaled [`Shape`] lays out its history.
#[derive(Clone, Copy, Debug)]
pub enum Log {
    /// One flat log, with a snapshot at op 0 and, if op `snapshot` ends a
    /// window, another there.
    Flat { snapshot: usize },
    /// A checkpoint directory ([`Journal::checkpointed`]): a new segment
    /// and a snapshot every `every` ops, the newest `retain` snapshots kept.
    Checkpointed { every: u64, retain: usize },
}

impl Shape {
    pub fn new(shards: usize, config: DeltaNetConfig) -> Shape {
        Shape {
            shards,
            config,
            window: 0,
            compact_every: None,
            restore: None,
            journal: None,
            crash_at_byte: None,
        }
    }

    /// A fresh engine of this shape (sharded windows run on three workers).
    pub fn build(&self, topo: &Topology) -> PersistNet {
        let (topo, config, workers) = (topo.clone(), self.config, Parallelism::fixed(3));
        match self.shards {
            0 => PersistNet::Single(Box::new(DeltaNet::new(topo, config))),
            n => PersistNet::Sharded(Box::new(ShardedDeltaNet::with_parallelism(
                topo, config, n, workers,
            ))),
        }
    }
}

/// [`config`] flag: loops are checked on every update.
pub const LOOPS: u8 = 1;
/// [`config`] flag: the engine maintains a violation monitor.
pub const MONITOR: u8 = 2;

/// The suites' configuration: an 8-bit primary field, `sec` secondary
/// field widths, and the [`LOOPS`] and [`MONITOR`] flags in `checks`.
pub fn config(checks: u8, compact_threshold: Option<usize>, sec: &[u8]) -> DeltaNetConfig {
    DeltaNetConfig {
        field_width: 8,
        check_loops_per_update: checks & LOOPS != 0,
        compact_threshold,
        monitor_violations: checks & MONITOR != 0,
        ..DeltaNetConfig::default()
    }
    .with_secondary(sec)
}

/// What a run checks. Each is listed with a cadence `k`: it runs after every
/// draw `s` with `(s + 1) % k == 0` (in window mode, after a window holding
/// one), after every explicit compaction, and at the end. Per-update parts
/// run on every op's report whatever the cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Every address at every switch forwards over the link the
    /// brute-force FIB picks.
    Fib,
    /// The full loop scan finds a loop iff tracing every address through
    /// the FIB does.
    FibLoops,
    /// The blackhole scan, and the monitor if there is one, name exactly the
    /// switches where tracing the FIB sees an arriving address match no rule.
    Blackholes,
    /// Per update, against a Veriflow-RI twin: a loop either checker reports
    /// is in the plane (and the monitor); a loop Delta-net reports,
    /// Veriflow-RI reports too; on an insert Veriflow-RI reports a loop iff
    /// tracing the inserted prefix through the FIB finds one. At the
    /// cadence: equal rule counts.
    Veriflow,
    /// Every link's what-if packets are covered by a Veriflow-RI twin's
    /// (which reports the prefixes of the rules on the link), and its loops
    /// are those tracing every address through the FIB finds, cut to those
    /// packets. The full scan's loops are the traced ones uncut.
    WhatIf,
    /// The full scans equal `scan_multifield` over the live rules; checked
    /// after every op, a loop an insert creates must be in its report.
    MultiField,
    /// The monitor's state equals a fresh full scan; checked after every op
    /// or window, on one engine or shards and of either header shape, its
    /// events are the diff of successive scans — across every compaction
    /// pass, inside the window or explicit after it.
    Monitor,
    /// Observational equality with a plain engine fed the same ops, which
    /// never compacts on its own: per-update reports, then labels, what-if,
    /// scans and rule counts; atom counts exact up to shard boundaries unless
    /// the shape may have compacted on its own since the last explicit pass;
    /// under a threshold, an id table within it of the live atoms.
    Single,
    /// The restore twin tracks the engine's rule count, monitor, events and
    /// [`persist::state_digest`]. Each twin is born bit-identical to an
    /// engine built fresh from the engine's rules ([`assert_rebuilt`]) from
    /// a snapshot that re-encodes byte for byte, and meets the semantic
    /// contract ([`assert_state_eq`]) when it forks, when it is replaced
    /// after taking ops, and at the end (after the final compaction), as
    /// does the journal's recovery.
    Restore,
    /// The journal's final segment, cut at a byte, recovers to exactly the
    /// ops its whole records hold (or, below a newer checkpoint, to that
    /// checkpoint). At the cadence the cut is a seed-chosen byte inside the
    /// last window's records; at the end, a torn header, every record
    /// boundary and sampled mid-record bytes. Each cut recovers under
    /// [`RecoveryPolicy::Strict`], which must fail naming the tear, and
    /// [`RecoveryPolicy::RepairTail`], which must truncate the file to it
    /// and land on the semantic contract ([`assert_state_eq`]) with an
    /// engine of the shape fed the salvaged ops one by one. A checkpoint directory
    /// must also fall back past a corrupt newest snapshot to exactly the
    /// newest intact one, and refuse a torn non-final segment. On a shape
    /// with [`Shape::crash_at_byte`], what the dead disk kept recovers to at
    /// least the acknowledged ops.
    Crash,
}

/// Applies `stream` to a fresh `shape` over `topo`, checking it with
/// `oracles` at their cadences, and returns the engine (for a journaled
/// shape, the one recovered). `case` names the seed in failures.
pub fn run(
    case: &str,
    topo: &Topology,
    stream: Stream,
    shape: &Shape,
    oracles: &[(Oracle, usize)],
) -> PersistNet {
    let (draws, ops): (usize, Vec<(usize, Op)>) = match stream {
        Stream::Churn(rng, mut gen, draws) => (
            draws,
            (0..draws)
                .filter_map(|step| gen.next_op(rng, topo).map(|op| (step, op)))
                .collect(),
        ),
        Stream::Ops(ops) => (ops.len(), ops.into_iter().enumerate().collect()),
    };
    let mut run = Run::new(case, topo, *shape, oracles);
    // The last fork follows the last op before the restore tail.
    run.forks = shape.restore.and_then(|(k, tail)| {
        let before = ops.iter().rev().find(|&&(s, _)| s + tail < draws);
        before.map(|&(last, _)| (k, last))
    });
    for window in ops.chunks(shape.window.max(1)) {
        run.step(window);
        if run.disk.as_ref().is_some_and(|disk| disk.backend.crashed()) {
            break;
        }
    }
    run.finish()
}

/// The state of one [`run`].
struct Run<'a> {
    case: &'a str,
    topo: &'a Topology,
    shape: Shape,
    oracles: &'a [(Oracle, usize)],
    /// The engine, unless the journal's [`Session`] holds it.
    net: Option<PersistNet>,
    disk: Option<Disk<'a>>,
    /// The restore twin, and whether it has applied an op since its fork.
    twin: Option<(PersistNet, bool)>,
    /// The restore cadence `k` and the draw of the last fork.
    forks: Option<(usize, usize)>,
    plain: Option<DeltaNet>,
    fib: Option<NetworkFib>,
    vf: Option<VeriflowRi>,
    live: Vec<Rule>,
    applied: usize,
    step: usize,
    /// The last op and its report.
    last: Option<(Op, UpdateReport)>,
    /// For [`Oracle::Monitor`] after every op or window: the last scan's
    /// keys, and whether an op has applied since.
    events: Option<(BTreeSet<ViolationKey>, bool)>,
    /// Ops applied at the last [`Oracle::MultiField`] check, and its loops.
    loops_seen: (usize, BTreeMap<Vec<NodeId>, Vec<Interval>>),
    /// Whether atom counts compare exactly: the shape cannot have compacted
    /// on its own since the last explicit pass.
    aligned: bool,
    /// The oracles (by bit) that have checked the state since the last op.
    fresh: u64,
}

impl<'a> Run<'a> {
    fn new(
        case: &'a str,
        topo: &'a Topology,
        shape: Shape,
        oracles: &'a [(Oracle, usize)],
    ) -> Self {
        let wants = |o: Oracle| oracles.iter().any(|&(x, _)| x == o);
        let config = shape.config;
        assert!(
            config.monitor_violations || !wants(Oracle::Monitor),
            "Monitor needs a monitor"
        );
        assert!(
            shape.window == 0 || !wants(Oracle::Veriflow),
            "Veriflow checks op by op"
        );
        let twinned = shape.restore.is_some() || shape.journal.is_some();
        assert_eq!(
            twinned,
            wants(Oracle::Restore),
            "Restore checks a twin or a journal"
        );
        let (net, disk) = match shape.journal {
            Some(log) => (None, Some(Disk::new(topo, shape, log))),
            None => (Some(shape.build(topo)), None),
        };
        let mut plain = config;
        plain.compact_threshold = None;
        let vf = VeriflowConfig {
            field_width: config.field_width,
            check_loops_per_update: true,
        };
        let fib = [
            Oracle::Fib,
            Oracle::FibLoops,
            Oracle::Blackholes,
            Oracle::Veriflow,
            Oracle::WhatIf,
        ];
        let events = oracles.contains(&(Oracle::Monitor, 1));
        Run {
            case,
            topo,
            shape,
            oracles,
            net,
            disk,
            twin: None,
            forks: None,
            plain: wants(Oracle::Single).then(|| DeltaNet::new(topo.clone(), plain)),
            fib: fib
                .into_iter()
                .any(wants)
                .then(|| NetworkFib::new(topo.clone())),
            vf: (wants(Oracle::Veriflow) || wants(Oracle::WhatIf))
                .then(|| VeriflowRi::new(topo.clone(), vf)),
            live: Vec::new(),
            applied: 0,
            step: 0,
            last: None,
            events: events.then(|| (BTreeSet::new(), false)),
            loops_seen: (0, BTreeMap::new()),
            aligned: true,
            fresh: 0,
        }
    }

    /// Where the run is, for failure messages.
    fn at(&self) -> String {
        let (case, op, step) = (self.case, self.applied.saturating_sub(1), self.step);
        format!("{case}, op {op} (draw {step}), {:?}", self.shape)
    }

    fn net(&self) -> &PersistNet {
        match &self.disk {
            Some(disk) => disk.session.net(),
            None => self.net.as_ref().expect("the run holds its engine"),
        }
    }

    fn step(&mut self, window: &[(usize, Op)]) {
        let ops: Vec<Op> = window.iter().map(|&(_, op)| op).collect();
        let per_op = self.shape.window == 0;
        let (reports, failure) = match (&mut self.disk, &mut self.net) {
            (Some(disk), _) => disk.apply(&ops),
            (None, net) => apply(net.as_mut().unwrap(), &ops, per_op),
        };
        assert_eq!(failure, None, "{}: the stream is well-formed", self.at());
        if let Some((twin, fed)) = &mut self.twin {
            let failure = apply(twin, &ops, per_op).1;
            *fed = true;
            assert_eq!(
                failure,
                None,
                "{}: Restore: the twin takes the stream",
                self.at()
            );
        }
        for (&(step, op), report) in window.iter().zip(reports) {
            (self.applied, self.step) = (self.applied + 1, step);
            self.update(op, report);
        }
        let hit = |every: usize| window.iter().any(|&(s, _)| (s + 1) % every == 0);
        let compact = self.shape.compact_every.is_some_and(hit);
        if compact {
            self.compact();
        }
        self.fresh = 0;
        for (i, &(oracle, every)) in self.oracles.iter().enumerate() {
            if compact || hit(every) {
                self.check(oracle);
                self.fresh |= 1 << i;
            }
        }
        let forks = self.forks.is_some_and(|(k, last)| {
            let due = |s: usize| s == last || (s < last && (s + 1) % k == 0);
            window.iter().any(|&(s, _)| due(s))
        });
        if forks {
            self.fork();
        }
        if let Some(disk) = &mut self.disk {
            disk.snapshot_if_due();
        }
    }

    /// The per-update part: the twins take `op`, and its report is checked.
    fn update(&mut self, op: Op, report: UpdateReport) {
        let rule = match op {
            Op::Insert(rule) => {
                self.live.push(rule);
                rule
            }
            Op::Remove(id) => {
                let at = self.live.iter().position(|r| r.id == id);
                self.live.swap_remove(at.expect("a live rule"))
            }
        };
        if let Some(fib) = &mut self.fib {
            match op {
                Op::Insert(rule) => fib.insert(rule),
                Op::Remove(id) => {
                    fib.remove(id);
                }
            }
        }
        self.aligned &= self.shape.config.compact_threshold.is_none();
        if let Some(events) = &mut self.events {
            events.1 = true;
        }
        if let Some(plain) = &mut self.plain {
            let expected = plain
                .try_apply(&op)
                .expect("the plain engine takes the stream");
            self.compare_reports(&format!("{}: Single", self.at()), &expected, &report, rule);
        }
        if let Some(vf) = &mut self.vf {
            let theirs = vf.try_apply(&op).expect("Veriflow-RI takes the stream");
            if self.oracles.iter().any(|&(o, _)| o == Oracle::Veriflow) {
                self.compare_veriflow(&format!("{}: Veriflow", self.at()), op, &report, &theirs);
            }
        }
        self.last = Some((op, report));
    }

    fn compare_reports(&self, at: &str, a: &UpdateReport, b: &UpdateReport, rule: Rule) {
        assert_eq!(
            (a.rule_id, a.was_insert),
            (b.rule_id, b.was_insert),
            "{at}: op"
        );
        assert_eq!(a.changed_links, b.changed_links, "{at}: changed links");
        let verdicts = (loops_by_cycle(&a.violations), loops_by_cycle(&b.violations));
        assert_eq!(verdicts.0, verdicts.1, "{at}: per-update loop verdicts");
        let engines = engines(self.net());
        // Class counts drift with the timing of automatic passes, but each id
        // table stays within the threshold of its atoms: every dead bound
        // merges away one atom.
        if let Some(t) = self.shape.config.compact_threshold {
            for e in engines {
                let (allocated, atoms) = (e.allocated_atoms(), e.atom_count());
                assert!(
                    allocated <= atoms + t + 2,
                    "{at}: allocated {allocated} vs atoms {atoms}"
                );
            }
            return;
        }
        // A rule straddling a shard boundary counts each split piece: never
        // fewer classes, at most one more per interior boundary crossed.
        let (a, b, iv) = (a.affected_classes, b.affected_classes, rule.interval());
        let mut cuts = engines.iter().skip(1).filter_map(DeltaNet::clip);
        if cuts.any(|c| iv.lo() < c.lo() && c.lo() < iv.hi()) {
            let counted = b >= a && b < a + self.shape.shards;
            assert!(counted, "{at}: straddling op counted {b} classes vs {a}");
        } else {
            assert_eq!(a, b, "{at}: non-straddling class counts");
        }
    }

    fn compare_veriflow(&self, at: &str, op: Op, ours: &UpdateReport, theirs: &UpdateReport) {
        let net = self.net();
        // Neither checker may raise a false alarm.
        if ours.has_loop() || theirs.has_loop() {
            let found = !net.check_all_loops().is_empty();
            assert!(found, "{at}: a reported loop must exist in the data plane");
            if let Some(active) = net.checker().active_violations() {
                let found = active.iter().any(InvariantViolation::is_loop);
                assert!(found, "{at}: a reported loop is missing from the monitor");
            }
        }
        // Delta-net re-examines only atoms whose ownership changed, so a loop
        // it reports is one Veriflow-RI sees too: that rebuilds the whole
        // affected range (and may re-report a loop that was already there).
        let missed = ours.has_loop() && !theirs.has_loop();
        assert!(
            !missed,
            "{at}: Delta-net found a loop that Veriflow-RI missed for {op:?}"
        );
        if let Op::Insert(rule) = op {
            let (fib, iv) = (self.fib.as_ref().expect("a FIB"), rule.interval());
            let loops = |s, a| matches!(fib.trace(s, Packet::to(a)).outcome, TraceOutcome::Loop(_));
            let traced = self
                .topo
                .switch_nodes()
                .any(|s| (iv.lo()..iv.hi()).any(|a| loops(s, a)));
            let at = format!("{at}: verdict mismatch after inserting {rule}");
            assert_eq!(theirs.has_loop(), traced, "{at}");
        }
    }

    /// An explicit compaction pass on every engine; the monitor's state
    /// must not change.
    fn compact(&mut self) {
        let before = self.net().checker().active_violations();
        compact(
            self.net
                .as_mut()
                .expect("no explicit compaction in a session"),
        );
        if let Some((twin, _)) = &mut self.twin {
            compact(twin);
        }
        if let Some(plain) = &mut self.plain {
            plain.compact();
        }
        self.aligned = true;
        let after = self.net().checker().active_violations();
        assert_eq!(
            after,
            before,
            "{}: Monitor: compaction changed the violations",
            self.at()
        );
    }

    /// Replaces the twin with one restored from the engine's snapshot; a
    /// twin that has taken ops since its own fork meets the semantic
    /// contract first.
    fn fork(&mut self) {
        if let Some((twin, true)) = &self.twin {
            assert_state_eq(self.net(), twin, &format!("{}: Restore: fed", self.at()));
        }
        let (at, ops) = (format!("{}: Restore: fork", self.at()), self.applied as u64);
        let bytes = Snapshot::of_net(self.net(), ops).to_bytes();
        let snapshot = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(snapshot.to_bytes(), bytes, "{at}: re-encoding");
        assert_eq!(snapshot.ops_applied(), ops, "{at}");
        let fields = (
            snapshot.config().secondary_count(),
            self.shape.config.secondary_count(),
        );
        assert_eq!(fields.0, fields.1, "{at}: secondary fields");
        let twin = snapshot.restore(self.topo).expect("snapshot restores");
        assert_rebuilt(self.net(), &twin, &self.shape, self.topo, &at);
        assert_state_eq(self.net(), &twin, &at);
        self.twin = Some((twin, false));
    }

    fn check(&mut self, oracle: Oracle) {
        let at = format!("{}: {oracle:?}", self.at());
        let (net, topo, config) = (self.net(), self.topo, self.shape.config);
        let addrs = 0..1u128 << config.field_width;
        let fib = self.fib.as_ref();
        let hop = |node, addr| fib.expect("a FIB").table(node).lookup(addr).map(|r| r.link);
        match oracle {
            Oracle::Fib => {
                for node in topo.switch_nodes() {
                    for addr in addrs.clone() {
                        let (expected, actual) = (hop(node, addr), forwards(net, node, addr));
                        assert_eq!(expected, actual, "{at}: {node} forwards {addr} differently");
                    }
                }
            }
            Oracle::FibLoops => {
                let traced = fib
                    .expect("a FIB")
                    .any_loop_among(&addrs.collect::<Vec<_>>());
                let rules = self.live.len();
                let scanned = !net.check_all_loops().is_empty();
                assert_eq!(
                    scanned, traced,
                    "{at}: loop disagreement with {rules} rules installed"
                );
            }
            Oracle::Blackholes => {
                // An address arrives over an in-link and matches no rule.
                let dies = |node, addr| {
                    let mut arrivals = topo.in_links(node).iter();
                    let from = |&l: &LinkId| hop(topo.link(l).src, addr) == Some(l);
                    hop(node, addr).is_none() && arrivals.any(from)
                };
                let holes = |node: &NodeId| addrs.clone().any(|addr| dies(*node, addr));
                let expected: BTreeSet<NodeId> = topo.switch_nodes().filter(holes).collect();
                let nodes = |v: &[_]| blackholes_by_node(v).into_keys().collect::<BTreeSet<_>>();
                assert_eq!(
                    nodes(&net.check_all_blackholes()),
                    expected,
                    "{at}: scanned"
                );
                if let Some(active) = net.checker().active_violations() {
                    assert_eq!(nodes(&active), expected, "{at}: monitored");
                }
            }
            Oracle::Veriflow => {
                let vf = self.vf.as_ref().expect("a Veriflow-RI twin");
                let counts = (net.checker().rule_count(), vf.rule_count());
                assert_eq!(counts.0, counts.1, "{at}: rule count");
            }
            Oracle::WhatIf => {
                let vf = self.vf.as_ref().expect("a Veriflow-RI twin");
                let traced = traced_loops(fib.expect("a FIB"), addrs);
                // Veriflow-RI reports the prefixes of the rules on a link, an
                // over-approximation that must cover Delta-net's packets.
                for link in topo.links().iter().map(|l| l.id) {
                    let ours = net.checker().what_if_link_failure(link, true);
                    let theirs = vf.what_if_link_failure(link, false);
                    let (a, b) = (ours.affected_classes, theirs.affected_classes);
                    assert_eq!(
                        a > 0,
                        b > 0,
                        "{at}: {link:?}: we see {a} classes, Veriflow-RI {b}"
                    );
                    for iv in &ours.affected_packets {
                        let mut covers = theirs.affected_packets.iter();
                        let covered = covers.any(|big| big.contains_interval(iv));
                        assert!(covered, "{at}: {link:?}: {iv} not covered by Veriflow-RI");
                    }
                    // The traced loops with each cycle's packets cut to the
                    // link's: every atom the failure touches is walked, and
                    // no other.
                    let affected = &ours.affected_packets;
                    let cut = |packets: &Vec<Interval>| {
                        let pieces = packets
                            .iter()
                            .flat_map(|p| affected.iter().map(|a| p.intersection(a)));
                        normalize(pieces.filter(|iv| !iv.is_empty()).collect())
                    };
                    let expected: BTreeMap<_, _> = traced
                        .iter()
                        .map(|(cycle, packets)| (cycle.clone(), cut(packets)))
                        .filter(|(_, packets)| !packets.is_empty())
                        .collect();
                    let reported = loops_by_cycle(&ours.violations);
                    assert_eq!(reported, expected, "{at}: {link:?}: what-if loops");
                }
                // So the what-if loops are also the full scan's, cut.
                let scanned = loops_by_cycle(&net.check_all_loops());
                assert_eq!(scanned, traced, "{at}: full-scan loops vs FIB tracing");
            }
            Oracle::MultiField => {
                let sec = &config.sec_widths[..config.secondary_count()];
                let expected = scan_multifield(topo, &self.live, config.field_width, sec);
                assert_equivalent(&at, &full_scan(net), &expected);
                let loops = loops_by_cycle(&expected);
                let (seen_at, seen) = &self.loops_seen;
                if let (true, Some((Op::Insert(_), report))) =
                    (seen_at + 1 == self.applied, &self.last)
                {
                    for cycle in loops.keys().filter(|&c| !seen.contains_key(c)) {
                        let found = report.has_loop();
                        assert!(
                            found,
                            "{at}: oracle sees new loop {cycle:?}, report is clean"
                        );
                    }
                }
                self.loops_seen = (self.applied, loops);
            }
            Oracle::Monitor => {
                let scan = full_scan(net);
                let active = net.checker().active_violations().expect("monitored");
                assert_eq!(active, scan, "{at}: monitor diverged from full scans");
                let events = net.last_events().expect("monitored").clone();
                let Some((scanned, due)) = &mut self.events else {
                    return;
                };
                let now: BTreeSet<ViolationKey> = scan.iter().map(key).collect();
                if *due {
                    let expected = diff(scanned, &now);
                    assert_eq!(events, expected, "{at}: events diverged from scans");
                }
                (*scanned, *due) = (now, false);
            }
            Oracle::Single => {
                let plain = self.plain.as_ref().expect("a plain twin");
                assert_observationally_equal(plain, net, self.aligned, &at);
            }
            // The whole restore contract holds at each fork and at the end;
            // in between, the twin's rules, monitor, digest and events track.
            Oracle::Restore => {
                let Some((twin, fed)) = &self.twin else {
                    return;
                };
                let state = |n: &PersistNet| {
                    let c = n.checker();
                    let digest = persist::state_digest(n);
                    (c.rule_count(), c.active_violations(), digest)
                };
                assert_eq!(state(net), state(twin), "{at}: restored-vs-uninterrupted");
                if *fed {
                    let events = (net.last_events(), twin.last_events());
                    assert_eq!(events.0, events.1, "{at}: restored-vs-uninterrupted events");
                }
            }
            Oracle::Crash => {
                self.disk.as_mut().expect("a journal").cut(&at, false);
            }
        }
    }

    /// The end of the stream: every oracle, then the final compaction and
    /// every oracle again, then the journal's recovery.
    fn finish(mut self) -> PersistNet {
        let oracles = self.oracles;
        for (i, &(oracle, _)) in oracles.iter().enumerate() {
            // The journal's end holds the crash sweep instead.
            if self.fresh & 1 << i == 0 && oracle != Oracle::Crash {
                self.check(oracle);
            }
        }
        if self.shape.compact_every.is_some() {
            self.compact();
            oracles.iter().for_each(|&(oracle, _)| self.check(oracle));
        }
        let at = self.at();
        if let Some((twin, fed)) = &self.twin {
            assert!(*fed, "{at}: Restore: the last twin took no ops");
            assert_state_eq(self.net(), twin, &format!("{at}: Restore"));
        }
        let Some(disk) = self.disk.take() else {
            return self.net.take().expect("the run holds its engine");
        };
        let crash = oracles.iter().any(|&(o, _)| o == Oracle::Crash);
        disk.finish(&at, crash)
    }
}

/// Where a journal's files live on its in-memory disk: a checkpoint
/// directory, or a flat journal's log and snapshot.
const DIR: &str = "/journal";
const LOG: &str = "/journal/run.dnlog";
const SNAPSHOT: &str = "/journal/run.dnsnap";

/// A journaled run's disk: the [`Session`] writing to it, and what
/// [`Oracle::Crash`] needs to cut it and recover.
struct Disk<'a> {
    topo: &'a Topology,
    shape: Shape,
    session: Session,
    /// The in-memory disk; every cut recovers from a copy of its files.
    backend: FaultyBackend,
    /// The ops the session applied, in order; how many the last window
    /// added; and how many the last successful sync acknowledged.
    history: Vec<Op>,
    window: usize,
    acked: usize,
    /// The log header's length: a new log's length, before any record.
    header: u64,
    /// A flat log's snapshots so far, by op position.
    snapshots: Vec<(usize, Vec<u8>)>,
    /// An engine of the shape fed the first `.1` ops of `history` one by one.
    prefix: (PersistNet, usize),
}

impl<'a> Disk<'a> {
    fn new(topo: &'a Topology, shape: Shape, log: Log) -> Self {
        let plan = FaultPlan {
            crash_at_byte: shape.crash_at_byte,
            ..FaultPlan::default()
        };
        let backend = FaultyBackend::with_plan(plan);
        let (net, to) = (shape.build(topo), Box::new(backend.clone()));
        let journal = match log {
            Log::Flat { .. } => Journal::flat(to, Path::new(LOG), 0, Durability::FsyncPerBatch),
            Log::Checkpointed { every, retain } => {
                let initial = Snapshot::of_net(&net, 0);
                Journal::checkpointed(to, Path::new(DIR), &initial, checkpoints(every, retain))
            }
        };
        let mut disk = Disk {
            topo,
            shape,
            session: Session::new(net, Some(journal.expect("the journal opens"))),
            backend,
            history: Vec::new(),
            window: 0,
            acked: 0,
            header: 0,
            snapshots: Vec::new(),
            prefix: (shape.build(topo), 0),
        };
        disk.snapshot_if_due();
        let empty = disk.backend.surviving(&disk.segment_path()).expect("a log");
        assert!(empty.starts_with(b"DNLG"), "a log starts with its magic");
        disk.header = empty.len() as u64;
        disk
    }

    /// The final segment's first op and the newest checkpoint's (0 and 0 for
    /// a flat log, and once the journal is closed).
    fn tail(&self) -> (usize, usize) {
        let at = |j: &Journal| (j.segment_start() as usize, j.last_checkpoint() as usize);
        self.session.journal().map_or((0, 0), at)
    }

    /// The final log segment: the flat log, or the directory's newest.
    fn segment_path(&self) -> PathBuf {
        match self.shape.journal {
            Some(Log::Checkpointed { .. }) => {
                Path::new(DIR).join(format!("log-{:012}.dnlog", self.tail().0))
            }
            _ => PathBuf::from(LOG),
        }
    }

    /// Applies a window through the session and syncs the journal: a sync
    /// that succeeds acknowledges the window, and one that fails must be
    /// the planned crash.
    fn apply(&mut self, ops: &[Op]) -> (Vec<UpdateReport>, Option<ReplayError>) {
        let (reports, failure) = self.session.apply(ops);
        self.window = reports.len();
        self.history.extend_from_slice(&ops[..self.window]);
        match self.session.journal_mut().expect("a journal").sync() {
            Ok(()) => self.acked = self.history.len(),
            Err(PersistError::Io(_)) if self.backend.crashed() => {}
            Err(e) => panic!("the journal syncs: {e}"),
        }
        (reports, failure)
    }

    /// Snapshots a flat log's engine at op 0, and at its `snapshot` op once
    /// that is acknowledged (never ahead of the durable log). Planted, not
    /// written: a snapshot takes none of a crash's budget.
    fn snapshot_if_due(&mut self) {
        let n = self.history.len();
        let Some(Log::Flat { snapshot }) = self.shape.journal else {
            return;
        };
        if (n == 0 || n == snapshot) && n == self.acked {
            let bytes = Snapshot::of_net(self.session.net(), n as u64).to_bytes();
            self.backend.plant(Path::new(SNAPSHOT), bytes.clone());
            self.snapshots.push((n, bytes));
        }
    }

    /// Where the final segment's records end: its header's end, then each
    /// record's.
    fn ends(&self) -> Vec<u64> {
        let mut ends = vec![self.header];
        for op in &self.history[self.tail().0..] {
            ends.push(ends[ends.len() - 1] + encode_record(op).len() as u64);
        }
        ends
    }

    /// Cuts the final segment and recovers. Mid-run the cut is a byte
    /// inside the last window's records (in a freshly rotated segment
    /// holding none of them: inside its header), drawn by a generator seeded
    /// with the op count; at the `end`, a torn header, every record
    /// boundary, and the first and middle bytes of every 7th record.
    fn cut(&mut self, at: &str, end: bool) {
        // A dead disk is recovered as it died, at the end.
        if self.backend.crashed() {
            return;
        }
        let (ends, path, n) = (self.ends(), self.segment_path(), self.history.len());
        let len = self.backend.surviving(&path).expect("a log").len() as u64;
        assert_eq!(len, ends[ends.len() - 1], "{at}: {} length", path.display());
        let mut cuts = Vec::new();
        if end {
            cuts.push(self.header - 2);
            for (i, w) in ends.windows(2).enumerate() {
                if i % 7 == 0 && w[1] - w[0] > 2 {
                    cuts.extend([w[0] + 1, w[0] + (w[1] - w[0]) / 2]);
                }
            }
            cuts.extend(&ends);
            cuts.sort_unstable();
        } else {
            let lo = ends[(n - self.window).saturating_sub(self.tail().0)];
            let mut rng = StdRng::seed_from_u64(n as u64);
            cuts.push(rng.gen_range(if lo < len { lo } else { 0 }..len));
        }
        for cut in cuts {
            self.recover_cut(cut, at);
        }
    }

    /// A copy of the disk whose final segment keeps its first `cut` bytes;
    /// a flat log's snapshot is the newest at or before op `salvaged`.
    fn stage(&self, cut: u64, salvaged: usize) -> FaultyBackend {
        let staged = FaultyBackend::new();
        for path in self.backend.clone().list_dir(Path::new(DIR)).unwrap() {
            staged.plant(&path, self.backend.surviving(&path).unwrap());
        }
        let path = self.segment_path();
        let mut bytes = self.backend.surviving(&path).expect("a log");
        bytes.truncate(cut as usize);
        staged.plant(&path, bytes);
        let mut older = self.snapshots.iter().rev();
        if let Some((_, bytes)) = older.find(|&&(n, _)| n <= salvaged) {
            staged.plant(Path::new(SNAPSHOT), bytes.clone());
        }
        staged
    }

    /// Recovers `disk` under `policy`: the engine, its op position, and the
    /// torn tail repaired.
    fn recover(
        &self,
        disk: &FaultyBackend,
        policy: RecoveryPolicy,
    ) -> Result<(PersistNet, usize, Option<TornTail>), PersistError> {
        let (snapshot, log, topo) = (Path::new(SNAPSHOT), Path::new(LOG), self.topo);
        let Some(Log::Checkpointed { every, retain }) = self.shape.journal else {
            let recovered = persist::recover_with(topo, &mut disk.clone(), snapshot, log, policy);
            return recovered.map(|(net, n, tail)| (net, n as usize, tail));
        };
        let (to, config) = (Box::new(disk.clone()), checkpoints(every, retain));
        let (net, _, report) = persist::recover_dir(to, Path::new(DIR), topo, policy, config)?;
        Ok((net, report.ops_incorporated as usize, report.torn))
    }

    /// Recovers copies of the disk whose final segment keeps only its first
    /// `cut` bytes: under `Strict`, which must fail naming the tear if the
    /// cut tore a record or the header; under `RepairTail`, which must
    /// truncate the segment to its whole records and land on the restore
    /// contract with the prefix engine. Returns the engine repaired and its
    /// op position.
    fn recover_cut(&mut self, cut: u64, at: &str) -> (PersistNet, usize) {
        let (ends, path, header) = (self.ends(), self.segment_path(), self.header);
        let at = format!("{at}: cut at byte {cut} of {}", path.display());
        // The whole records kept, and where the last of them ends.
        let (salvaged, tear) = match ends.partition_point(|&end| end <= cut) {
            0 => (0, 0),
            n => (n - 1, ends[n - 1]),
        };
        let torn = cut < header || cut != tear;
        // Below a newer checkpoint, the checkpoint's state wins.
        let (segment, checkpoint) = self.tail();
        let position = (segment + salvaged).max(checkpoint);
        let strict = match self.recover(&self.stage(cut, salvaged), RecoveryPolicy::Strict) {
            Err(e @ PersistError::Corrupt(_)) if torn => {
                let byte = if cut < header { cut } else { tear };
                let names = e.to_string().contains(&format!("at byte {byte} of"));
                assert!(names, "{at}: Strict must name the tear at byte {byte}: {e}");
                None
            }
            Ok((net, n, None)) if !torn => Some((net, n)),
            Err(e) => panic!("{at}: Strict: {e}"),
            Ok(_) => panic!("{at}: Strict recovered a torn segment, or reported a tear"),
        };
        let disk = self.stage(cut, salvaged);
        let (net, n, tail) = self
            .recover(&disk, RecoveryPolicy::RepairTail)
            .unwrap_or_else(|e| panic!("{at}: RepairTail: {e}"));
        assert_eq!(n, position, "{at}: ops recovered");
        assert_eq!(tail.map(|t| t.offset), torn.then_some(tear), "{at}: tear");
        let kept = disk.surviving(&path).expect("a log").len() as u64;
        assert_eq!(kept, tear.max(header), "{at}: file length after repair");
        let reread = read_log_with(&mut disk.clone(), &path, RecoveryPolicy::Strict);
        let reread = reread.unwrap_or_else(|e| panic!("{at}: the repaired log reads: {e}"));
        let whole = &self.history[segment..][..salvaged];
        assert_eq!(reread.ops, whole, "{at}: the repaired log's records");
        self.advance(position);
        assert_state_eq(&self.prefix.0, &net, &at);
        if let Some((strict, n)) = strict {
            let digests = (persist::state_digest(&strict), persist::state_digest(&net));
            assert_eq!((n, digests.0), (position, digests.1), "{at}: Strict");
        }
        (net, n)
    }

    /// Feeds the prefix engine up to op `n`, from a fresh one if it is past.
    fn advance(&mut self, n: usize) {
        if self.prefix.1 > n {
            self.prefix = (self.shape.build(self.topo), 0);
        }
        let (net, at) = &mut self.prefix;
        for op in &self.history[*at..n] {
            let applied = net.checker_mut().try_apply(op);
            applied.expect("the prefix engine takes the journaled ops");
        }
        *at = n;
    }

    /// With the newest snapshot corrupt, a checkpoint directory recovers
    /// from exactly the newest intact one; with the segment before the
    /// final one torn as well, recovery must refuse it.
    fn fall_back(&mut self, at: &str, (every, retain): (u64, usize)) {
        let at = format!("{at}: snapshot fallback");
        let files = self.backend.clone().list_dir(Path::new(DIR)).unwrap();
        let is_snapshot = |p: &&PathBuf| p.extension().is_some_and(|e| e == "dnsnap");
        let (snapshots, segments): (Vec<_>, Vec<_>) = files.iter().partition(is_snapshot);
        let counts = format!("{} snapshots, {} segments", snapshots.len(), segments.len());
        assert!(snapshots.len() > 1 && segments.len() > 1, "{at}: {counts}");
        let [.., intact, newest] = snapshots[..] else {
            unreachable!("two snapshots or more")
        };
        let intact = Snapshot::read_from_backend(&mut self.backend.clone(), intact);
        let intact = intact.expect("an intact snapshot").ops_applied();
        let corrupt = || {
            let disk = self.stage(u64::MAX, 0);
            let mut bytes = disk.surviving(newest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            disk.plant(newest, bytes);
            disk
        };
        let (fallen, torn) = (corrupt(), corrupt());
        let (topo, dir, n) = (self.topo, Path::new(DIR), self.history.len());
        let (policy, config) = (RecoveryPolicy::RepairTail, checkpoints(every, retain));
        let recovered = persist::recover_dir(Box::new(fallen), dir, topo, policy, config);
        let (net, _, report) = recovered.unwrap_or_else(|e| panic!("{at}: {e}"));
        let fell = (report.snapshots_skipped, report.baseline_ops);
        assert_eq!(fell, (1, intact), "{at}: (snapshots skipped, baseline)");
        assert_eq!(report.ops_incorporated, n as u64, "{at}: ops recovered");
        self.advance(n);
        assert_state_eq(&self.prefix.0, &net, &at);
        let segment = segments[segments.len() - 2];
        let bytes = torn.surviving(segment).unwrap();
        torn.plant(segment, bytes[..bytes.len() - 3].to_vec());
        let name = segment.file_name().unwrap().to_str().unwrap();
        match persist::recover_dir(Box::new(torn), dir, topo, policy, config) {
            Err(PersistError::Corrupt(msg)) if msg.contains(name) => {}
            Err(e) => panic!("{at}: a torn {name} must be corruption naming it: {e}"),
            Ok(_) => panic!("{at}: a torn {name} recovered"),
        }
    }

    /// The end of the stream: with `crash`, the end-of-stream cuts (and a
    /// checkpoint directory's fallback); then the journal closes and the
    /// disk recovers. After a planned crash that is what the dead disk
    /// kept, which must hold the acknowledged ops; otherwise the whole
    /// disk, which must equal the live engine.
    fn finish(mut self, at: &str, crash: bool) -> PersistNet {
        let (crashed, crash_at) = (self.backend.crashed(), format!("{at}: Crash"));
        if crash && !crashed {
            self.cut(&crash_at, true);
            if let Some(Log::Checkpointed { every, retain }) = self.shape.journal {
                self.fall_back(&crash_at, (every, retain));
            }
        }
        let closed = self.session.close();
        let planned = self.shape.crash_at_byte.is_some();
        assert_eq!(crashed, planned, "{crash_at}: the disk died");
        if crashed {
            assert!(closed.is_err(), "{crash_at}: a dead disk cannot close");
            self.backend.reboot();
            let kept = self.backend.surviving(&self.segment_path()).expect("a log");
            let (net, n) = self.recover_cut(kept.len() as u64, &crash_at);
            let acked = self.acked;
            assert!(
                n >= acked,
                "{crash_at}: {n} ops recovered, {acked} acknowledged"
            );
            return net;
        }
        closed.expect("the journal closes");
        let recovered = self.recover(&self.backend, RecoveryPolicy::Strict);
        let (recovered, n, _) = recovered.unwrap_or_else(|e| panic!("{at}: Restore: {e}"));
        assert_eq!(n, self.history.len(), "{at}: Restore: ops recovered");
        let at = format!("{at}: Restore: recovered");
        assert_state_eq(self.session.net(), &recovered, &at);
        recovered
    }
}

/// A checkpoint directory's cadence and retention, synced per window.
pub fn checkpoints(every: u64, retain: usize) -> CheckpointConfig {
    CheckpointConfig {
        every_ops: every,
        retain,
        durability: Durability::FsyncPerBatch,
    }
}

/// Applies `ops` — one op through `try_apply`, or a window — with
/// applied-prefix semantics.
fn apply(
    net: &mut PersistNet,
    ops: &[Op],
    per_op: bool,
) -> (Vec<UpdateReport>, Option<ReplayError>) {
    let net = net.checker_mut();
    if !per_op {
        return net.apply_window(ops);
    }
    match net.try_apply(&ops[0]) {
        Ok(report) => (vec![report], None),
        Err(error) => (Vec::new(), Some(ReplayError { index: 0, error })),
    }
}

fn compact(net: &mut PersistNet) -> CompactReport {
    match net {
        PersistNet::Single(n) => n.compact(),
        PersistNet::Sharded(n) => n.compact(),
    }
}

/// The engines behind `net`: itself, or its shards in address order.
pub fn engines(net: &PersistNet) -> &[DeltaNet] {
    match net {
        PersistNet::Single(n) => std::slice::from_ref(n.as_ref()),
        PersistNet::Sharded(n) => n.shards(),
    }
}

/// Every forwarding cycle tracing `addrs` from every switch through `fib`
/// finds, in canonical rotation (smallest node first), with the addresses
/// looping through it.
fn traced_loops(fib: &NetworkFib, addrs: Range<u128>) -> BTreeMap<Vec<NodeId>, Vec<Interval>> {
    let mut traced: BTreeMap<Vec<NodeId>, Vec<Interval>> = BTreeMap::new();
    for node in fib.topology().switch_nodes() {
        for addr in addrs.clone() {
            if let TraceOutcome::Loop(mut cycle) = fib.trace(node, Packet::to(addr)).outcome {
                let first = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
                cycle.rotate_left(first);
                let packets = traced.entry(cycle).or_default();
                packets.push(Interval::new(addr, addr + 1));
            }
        }
    }
    for packets in traced.values_mut() {
        *packets = normalize(std::mem::take(packets));
    }
    traced
}

/// The link `node` forwards `addr` over, read off the edge labels of the
/// engine (or shard) owning `addr`.
fn forwards(net: &PersistNet, node: NodeId, addr: u128) -> Option<LinkId> {
    let owns = |e: &&DeltaNet| e.clip().map_or(true, |c| c.contains(addr));
    let e = engines(net)
        .iter()
        .find(owns)
        .expect("a shard owns every address");
    successor(
        e.topology(),
        e.labels(),
        node,
        e.atoms().atom_of_value(addr),
    )
}

/// The forwarding behaviour of every address at every switch.
pub fn forwarding(net: &PersistNet) -> Vec<Option<LinkId>> {
    let addrs = 0..1u128 << net.config().field_width;
    let of = |node| addrs.clone().map(move |addr| forwards(net, node, addr));
    engines(net)[0]
        .topology()
        .switch_nodes()
        .flat_map(of)
        .collect()
}

/// `link`'s label as normalized intervals, merged across `engines`.
pub fn label_intervals(engines: &[DeltaNet], link: LinkId) -> Vec<Interval> {
    let of = |e: &DeltaNet| {
        e.label(link)
            .iter()
            .map(|a| e.atoms().atom_interval(a))
            .collect()
    };
    normalize(engines.iter().flat_map(|e| -> Vec<_> { of(e) }).collect())
}

/// The full-scan oracle in the monitor's rendering order.
pub fn full_scan(net: &PersistNet) -> Vec<InvariantViolation> {
    let mut out = net.check_all_loops();
    out.extend(net.check_all_blackholes());
    out
}

/// The transitions from the identities `before` to those `after`: what a
/// monitored window's events must be, between the full scans around it.
fn diff(before: &BTreeSet<ViolationKey>, after: &BTreeSet<ViolationKey>) -> MonitorTransitions {
    MonitorTransitions {
        appeared: after.difference(before).cloned().collect(),
        resolved: before.difference(after).cloned().collect(),
    }
}

fn key(violation: &InvariantViolation) -> ViolationKey {
    match violation {
        InvariantViolation::ForwardingLoop { nodes, .. } => ViolationKey::Loop(nodes.clone()),
        InvariantViolation::Blackhole { node, .. } => ViolationKey::Blackhole(*node),
    }
}

/// Two violation sets agree on loops and blackholes in the order-, atom-
/// numbering- and shard-invariant form.
pub fn assert_equivalent(at: &str, actual: &[InvariantViolation], expected: &[InvariantViolation]) {
    let loops = (loops_by_cycle(actual), loops_by_cycle(expected));
    assert_eq!(loops.0, loops.1, "{at}: loops diverge");
    let holes = (blackholes_by_node(actual), blackholes_by_node(expected));
    assert_eq!(holes.0, holes.1, "{at}: blackholes diverge");
}

/// The plain engine and `net` answer every query the same.
fn assert_observationally_equal(plain: &DeltaNet, net: &PersistNet, exact_atoms: bool, at: &str) {
    assert_eq!(
        plain.rule_count(),
        net.checker().rule_count(),
        "{at}: rule count"
    );
    let (ours, theirs) = (std::slice::from_ref(plain), engines(net));
    for link in plain.topology().links().iter().map(|l| l.id) {
        let labels = (label_intervals(ours, link), label_intervals(theirs, link));
        assert_eq!(labels.0, labels.1, "{at}: labels diverge on {link:?}");
        let a = plain.link_failure_impact(link, true);
        let b = net.checker().what_if_link_failure(link, true);
        let packets = (a.affected_packets, b.affected_packets);
        assert_eq!(
            packets.0, packets.1,
            "{at}: what-if packets diverge on {link:?}"
        );
        let links = (a.affected_links, b.affected_links);
        assert_eq!(links.0, links.1, "{at}: what-if links diverge on {link:?}");
        let verdicts = (loops_by_cycle(&a.violations), loops_by_cycle(&b.violations));
        assert_eq!(
            verdicts.0, verdicts.1,
            "{at}: what-if loop verdicts diverge on {link:?}"
        );
        // Every engine reports in the one `Ord` order of violations.
        assert_eq!(
            a.violations, b.violations,
            "{at}: what-if violations diverge on {link:?}"
        );
    }
    let mut scan = plain.check_all_loops();
    scan.extend(plain.check_all_blackholes());
    assert_equivalent(&format!("{at}: full scans"), &full_scan(net), &scan);
    assert_eq!(full_scan(net), scan, "{at}: full scans diverge");
    if let Some(active) = plain.active_violations() {
        assert_eq!(active, scan, "{at}: plain monitor diverges from scans");
    }
    // A shard boundary that is no bound of the plain engine's atom map
    // splits an atom the plain engine keeps whole.
    if exact_atoms {
        let cuts = theirs.iter().skip(1).filter_map(DeltaNet::clip);
        let extra = cuts
            .filter(|c| !plain.atoms().contains_bound(c.lo()))
            .count();
        let sums = (net.checker().class_count(), plain.atom_count() + extra);
        assert_eq!(
            sums.0, sums.1,
            "{at}: atom-count sums diverge (boundary extra {extra})"
        );
    }
}

/// The restore contract's semantic half: the rules, the monitor's
/// violations, from-scratch rescans and [`persist::state_digest`] (rules,
/// every link's packets, violations) all agree. Atom ids and granularity
/// may differ: a restore holds no bound of a removed rule the live engine
/// had not compacted away yet.
pub fn assert_state_eq(live: &PersistNet, restored: &PersistNet, at: &str) {
    let (a, b) = (live.checker(), restored.checker());
    assert_eq!(a.rule_count(), b.rule_count(), "{at}: rule_count");
    let active = (a.active_violations(), b.active_violations());
    assert_eq!(active.0, active.1, "{at}: monitor violation set");
    assert_equivalent(
        &format!("{at}: rescans"),
        &full_scan(restored),
        &full_scan(live),
    );
    let digests = (persist::state_digest(live), persist::state_digest(restored));
    assert_eq!(digests.0, digests.1, "{at}: state digests diverge");
}

/// The restore contract's exact half: `restored` is bit-identical — every
/// atom with its id and interval, every owner cell, every label's atom
/// ids, atom counts, `live_bytes`, reclaimable bounds, violations — to an
/// engine of `shape` built fresh from `live`'s rules, inserted one by one
/// in id order.
pub fn assert_rebuilt(
    live: &PersistNet,
    restored: &PersistNet,
    shape: &Shape,
    topo: &Topology,
    at: &str,
) {
    let mut rules: Vec<Rule> = match live {
        PersistNet::Single(n) => n.rules().copied().collect(),
        PersistNet::Sharded(n) => n.rules().copied().collect(),
    };
    rules.sort_unstable_by_key(|rule| rule.id);
    let mut fresh = shape.build(topo);
    for rule in rules {
        let applied = fresh.checker_mut().try_apply(&Op::Insert(rule));
        applied.unwrap_or_else(|e| panic!("{at}: the rebuild takes {:?}: {e}", rule.id));
    }
    if live.last_events().is_some() && fresh.last_events().is_none() {
        fresh.enable_monitor();
    }
    let (want, got) = (image(&fresh), image(restored));
    assert_eq!(want.len(), got.len(), "{at}: Restore: image shapes");
    for (want, got) in want.iter().zip(&got) {
        assert_eq!(
            got, want,
            "{at}: Restore: not the engine rebuilt from the rules"
        );
    }
}

/// Every arena of `net`, engine by engine, in a comparable form.
fn image(net: &PersistNet) -> Vec<String> {
    let mut out = vec![
        format!("{:?}", net.config()),
        format!("{:?}", net.checker().active_violations()),
    ];
    for e in engines(net) {
        out.push(format!(
            "{:?}: {} atoms, {} allocated, {} live bytes, {} reclaimable, {} compactions",
            e.clip(),
            e.atom_count(),
            e.allocated_atoms(),
            e.live_bytes(),
            e.reclaimable_bounds(),
            e.compactions()
        ));
        let lattices = std::iter::once(e.atoms()).chain(e.secondary_atoms());
        out.extend(lattices.map(|m| format!("{:?}", m.iter().collect::<Vec<_>>())));
        for (link, label) in e.labels().iter() {
            out.push(format!("{link:?}: {:?}", label.iter().collect::<Vec<_>>()));
        }
        for (atom, _) in e.atoms().iter() {
            let cells = e.owner().sources(atom);
            let cells: Vec<_> = cells.map(|(at, rules)| (at, rules.as_slice())).collect();
            out.push(format!("{atom:?}: {cells:?}"));
        }
    }
    out
}

/// The first `n` of `rules` that conflict with no rule kept before them (a
/// same-priority overlap at one switch has no defined winner), as inserts;
/// `rules` is drawn from lazily, no further than that.
pub fn conflict_free(rules: impl IntoIterator<Item = Rule>, n: usize) -> Vec<Op> {
    let (mut rules, mut kept) = (rules.into_iter(), Vec::<Rule>::new());
    while kept.len() < n {
        let Some(rule) = rules.next() else { break };
        if !kept.iter().any(|k| k.conflicts_with(&rule)) {
            kept.push(rule);
        }
    }
    kept.into_iter().map(Op::Insert).collect()
}

/// A rule spec: prefix, priority, switch index, out-link index.
pub type Spec = (IpPrefix, u32, usize, usize);

/// `specs` as inserts: rule `i` from spec `i`, at switch `nodes[s]` over
/// out-link `l % n` of the `n` that `keep` keeps, less those conflicting
/// with an earlier rule ([`conflict_free`]).
pub fn spec_rules(
    topo: &Topology,
    nodes: &[NodeId],
    specs: impl IntoIterator<Item = Spec>,
    keep: impl Fn(&LinkId) -> bool,
) -> Vec<Op> {
    let rule = |(i, (prefix, priority, s, l)): (usize, Spec)| {
        let out: Vec<LinkId> = topo
            .out_links(nodes[s])
            .iter()
            .copied()
            .filter(&keep)
            .collect();
        Rule::forward(
            RuleId(i as u64),
            prefix,
            priority,
            nodes[s],
            out[l % out.len()],
        )
    };
    conflict_free(specs.into_iter().enumerate().map(rule), usize::MAX)
}

/// A vector of draws of `item`, its length drawn from `len`.
pub fn random_vec<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let mut item = item;
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A bidirectional ring of `n` switches.
pub fn ring(n: usize) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let nodes = topo.add_nodes("s", n);
    for i in 0..n {
        topo.add_bidi_link(nodes[i], nodes[(i + 1) % n]);
    }
    (topo, nodes)
}

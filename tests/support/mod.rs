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
//! oracles trace every address exhaustively.

// Each suite compiles this module on its own and uses a slice of it.
#![allow(dead_code)]

use deltanet::loops::successor;
use deltanet::persist;
use deltanet::{
    CompactReport, DeltaNet, DeltaNetConfig, Durability, FsBackend, Journal, MonitorTransitions,
    Parallelism, PersistNet, Session, ShardedDeltaNet, Snapshot, TransitionTracker, ViolationKey,
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
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// The windows are §3.3 aggregation windows of one engine: each op
    /// applies and is checked on its own between `begin_aggregate` and
    /// `take_aggregate`.
    pub aggregate: bool,
    /// An explicit compaction pass on every engine of the run after every
    /// `k`-th draw and after the last ([`END`]: after the last only).
    pub compact_every: Option<usize>,
    /// `(k, tail)`: a twin restored from the engine's snapshot bytes after
    /// every `k`-th draw before the stream's last `tail` draws and once more
    /// just before them, then fed the same ops — so the last twin takes the
    /// whole tail.
    pub restore: Option<(usize, usize)>,
    /// Ops apply through a [`Session`] journaling into a log file, with a
    /// snapshot file written after op `k`; the run ends by recovering both.
    pub journal: Option<usize>,
}

impl Shape {
    pub fn new(shards: usize, config: DeltaNetConfig) -> Shape {
        Shape {
            shards,
            config,
            window: 0,
            aggregate: false,
            compact_every: None,
            restore: None,
            journal: None,
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
    /// (which reports the prefixes of the rules on the link).
    WhatIf,
    /// The full scans equal `scan_multifield` over the live rules; checked
    /// after every op, a loop an insert creates must be in its report.
    MultiField,
    /// The monitor's state equals a fresh full scan; on one engine checked
    /// after every op, its events are the diff of successive scans.
    Monitor,
    /// Observational equality with a plain engine fed the same ops, which
    /// never compacts on its own: per-update reports, then labels, what-if,
    /// scans and rule counts; atom counts exact up to shard boundaries unless
    /// the shape may have compacted on its own since the last explicit pass;
    /// under a threshold, an id table within it of the live atoms.
    Single,
    /// The restore twin tracks the engine's counts, monitor and events; each
    /// twin meets the whole restore contract ([`assert_state_eq`]) when it
    /// forks, when it is replaced after taking ops, and at the end (after
    /// the final compaction), as does the journal's recovery.
    Restore,
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
    let per_op = shape.window == 0 || shape.aggregate;
    for window in ops.chunks(if per_op { 1 } else { shape.window }) {
        run.step(window);
    }
    run.finish()
}

/// The state of one [`run`].
struct Run<'a> {
    case: &'a str,
    topo: &'a Topology,
    shape: Shape,
    oracles: &'a [(Oracle, usize)],
    /// The engine, unless the journal's [`Session`] holds it (beside the
    /// journal's directory).
    net: Option<PersistNet>,
    session: Option<(Session, PathBuf)>,
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
    /// For [`Oracle::Monitor`] after every op of one engine: the scans' keys
    /// so far, the engine's compaction count then, and whether an op has
    /// applied since.
    events: Option<(TransitionTracker, usize, bool)>,
    /// Ops applied at the last [`Oracle::MultiField`] check, and its loops.
    loops_seen: (usize, BTreeMap<Vec<NodeId>, Vec<Interval>>),
    /// Whether atom counts compare exactly: the shape cannot have compacted
    /// on its own since the last explicit pass.
    aligned: bool,
    /// Aggregation windows with secondary splits and with removals, and
    /// whether the open one has removed a rule.
    tame: [usize; 2],
    removing: bool,
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
        let (mut net, mut session) = (Some(shape.build(topo)), None);
        if shape.journal.is_some() {
            let dir = temp_dir("journal");
            let journal = flat_journal(&dir.join("run.dnlog"));
            session = Some((Session::new(net.take().unwrap(), Some(journal)), dir));
        }
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
        ];
        let one_by_one = shape.shards == 0 && (shape.window == 0 || shape.aggregate);
        let events = one_by_one && oracles.contains(&(Oracle::Monitor, 1));
        Run {
            case,
            topo,
            shape,
            oracles,
            net,
            session,
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
            events: events.then(|| (TransitionTracker::new(), 0, false)),
            loops_seen: (0, BTreeMap::new()),
            aligned: true,
            tame: [0; 2],
            removing: false,
            fresh: 0,
        }
    }

    /// Where the run is, for failure messages.
    fn at(&self) -> String {
        let (case, op, step) = (self.case, self.applied.saturating_sub(1), self.step);
        format!("{case}, op {op} (draw {step}), {:?}", self.shape)
    }

    fn net(&self) -> &PersistNet {
        match &self.session {
            Some((session, _)) => session.net(),
            None => self.net.as_ref().expect("the run holds its engine"),
        }
    }

    fn single_mut(&mut self) -> &mut DeltaNet {
        match self.net.as_mut() {
            Some(PersistNet::Single(net)) => net,
            _ => panic!("aggregation windows run on one engine, outside a session"),
        }
    }

    fn step(&mut self, window: &[(usize, Op)]) {
        let ops: Vec<Op> = window.iter().map(|&(_, op)| op).collect();
        let (n, aggregate) = (self.shape.window, self.shape.aggregate);
        if aggregate && self.applied % n == 0 {
            self.single_mut().begin_aggregate();
        }
        let per_op = n == 0 || aggregate;
        let (reports, failure) = match (&mut self.session, &mut self.net) {
            (Some((session, _)), _) => session.apply(&ops),
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
        if aggregate && self.applied % n == 0 {
            self.take_aggregate();
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
        let snapshot_due = self.shape.journal == Some(self.applied);
        if let (Some((session, dir)), true) = (&mut self.session, snapshot_due) {
            session.journal_mut().expect("mounted").sync().unwrap();
            let snapshot = Snapshot::of_net(session.net(), self.applied as u64);
            snapshot.write_to(&dir.join("run.dnsnap")).unwrap();
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
                self.removing = true;
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
            events.2 = true;
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

    fn take_aggregate(&mut self) {
        let splits = !self.single_mut().take_aggregate().sec_splits.is_empty();
        self.tame[0] += usize::from(splits);
        self.tame[1] += usize::from(std::mem::take(&mut self.removing));
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
    /// twin that has taken ops since its own fork meets the whole contract
    /// first.
    fn fork(&mut self) {
        if let Some((twin, true)) = &self.twin {
            assert_state_eq(self.net(), twin, &format!("{}: Restore: fed", self.at()));
        }
        let (at, ops) = (format!("{}: Restore: fork", self.at()), self.applied as u64);
        let bytes = Snapshot::of_net(self.net(), ops).to_bytes();
        let snapshot = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(snapshot.ops_applied(), ops, "{at}");
        let fields = (
            snapshot.config().secondary_count(),
            self.shape.config.secondary_count(),
        );
        assert_eq!(fields.0, fields.1, "{at}: secondary fields");
        let twin = snapshot.restore(self.topo).expect("snapshot restores");
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
                // Veriflow-RI reports the prefixes of the rules on a link, an
                // over-approximation that must cover Delta-net's packets.
                for link in topo.links().iter().map(|l| l.id) {
                    let ours = net.checker().what_if_link_failure(link, false);
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
                }
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
                let PersistNet::Single(single) = net else {
                    return;
                };
                let compactions = single.compactions();
                let events = single.monitor().expect("monitored").last_events().to_vec();
                let Some((tracker, seen, due @ true)) = &mut self.events else {
                    return;
                };
                let expected = tracker.observe(scan.iter().map(key).collect());
                // A compaction pass at the end of the op remaps the monitor,
                // which forgets the op's events; the tracker has moved on.
                if compactions == *seen {
                    let side = |appeared| {
                        let of_side = events.iter().filter(|e| e.appeared == appeared);
                        of_side.map(|e| e.key.clone()).collect()
                    };
                    let (appeared, resolved) = (side(true), side(false));
                    let reported = MonitorTransitions { appeared, resolved };
                    assert_eq!(reported, expected, "{at}: events diverged from scans");
                }
                (*seen, *due) = (compactions, false);
            }
            Oracle::Single => {
                let plain = self.plain.as_ref().expect("a plain twin");
                assert_observationally_equal(plain, net, self.aligned, &at);
            }
            // The whole restore contract holds at each fork and at the end;
            // in between, the twin's counts, monitor and events track.
            Oracle::Restore => {
                let Some((twin, fed)) = &self.twin else {
                    return;
                };
                let state = |n: &PersistNet| {
                    let c = n.checker();
                    (c.rule_count(), c.class_count(), c.active_violations())
                };
                assert_eq!(state(net), state(twin), "{at}: restored-vs-uninterrupted");
                if let (true, PersistNet::Single(a), PersistNet::Single(b)) = (fed, net, twin) {
                    let events = |n: &DeltaNet| n.monitor().map(|m| m.last_events().to_vec());
                    let events = (events(a), events(b));
                    assert_eq!(events.0, events.1, "{at}: restored-vs-uninterrupted events");
                }
            }
        }
    }

    /// The end of the stream: every oracle, then the final compaction and
    /// every oracle again, then the journal's recovery.
    fn finish(mut self) -> PersistNet {
        if self.shape.aggregate && self.single_mut().is_aggregating() {
            self.take_aggregate();
            self.fresh = 0;
        }
        let oracles = self.oracles;
        for (i, &(oracle, _)) in oracles.iter().enumerate() {
            if self.fresh & 1 << i == 0 {
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
        if self.shape.aggregate && self.shape.config.secondary_count() > 0 {
            let [splits, removes] = self.tame;
            let tame = format!("sec-splitting windows: {splits}, windows with removes: {removes}");
            assert!(splits > 0 && removes > 0, "{at}: trace too tame ({tame})");
        }
        let Some((mut session, dir)) = self.session.take() else {
            return self.net.take().expect("the run holds its engine");
        };
        session.close().expect("the journal closes");
        let (snapshot, log) = (dir.join("run.dnsnap"), dir.join("run.dnlog"));
        let (recovered, total) = persist::recover(self.topo, &snapshot, &log).expect("recovers");
        assert_eq!(total, self.applied as u64, "{at}: Restore: ops recovered");
        assert_state_eq(
            session.net(),
            &recovered,
            &format!("{at}: Restore: recovered"),
        );
        fs::remove_dir_all(dir).ok();
        recovered
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
    }
    let mut scan = plain.check_all_loops();
    scan.extend(plain.check_all_blackholes());
    assert_equivalent(&format!("{at}: full scans"), &full_scan(net), &scan);
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

/// The restore contract: logical state, memory accounting, the monitor's
/// violations, from-scratch rescans and the serialized state all agree.
pub fn assert_state_eq(live: &PersistNet, restored: &PersistNet, at: &str) {
    let (a, b) = (live.checker(), restored.checker());
    assert_eq!(a.rule_count(), b.rule_count(), "{at}: rule_count");
    assert_eq!(a.class_count(), b.class_count(), "{at}: atom count");
    let bytes = |net| engines(net).iter().map(DeltaNet::live_bytes).sum::<usize>();
    assert_eq!(bytes(live), bytes(restored), "{at}: live_bytes");
    let active = (a.active_violations(), b.active_violations());
    assert_eq!(active.0, active.1, "{at}: monitor violation set");
    assert_equivalent(
        &format!("{at}: rescans"),
        &full_scan(restored),
        &full_scan(live),
    );
    let digests = (persist::state_digest(live), persist::state_digest(restored));
    assert_eq!(digests.0, digests.1, "{at}: serialized states diverge");
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

/// A fresh directory under the system temp dir, unique per process and call.
pub fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("deltanet-{}-{tag}-{n}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A flat journal over a real log file at the default durability.
pub fn flat_journal(path: &Path) -> Journal {
    Journal::flat(Box::new(FsBackend), path, 0, Durability::default()).unwrap()
}

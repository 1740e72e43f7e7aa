//! Incremental violation monitoring: forwarding loops and blackholes
//! maintained as *live state*, updated from each update's delta-graph.
//!
//! The per-update checks of §4.3.1 answer "did this update create a loop?"
//! but forget the answer immediately: a long-lived deployment that wants to
//! know "which violations exist right now?" has to rescan the whole data
//! plane (`check_all_loops` + `check_all_blackholes`), paying O(plane) per
//! query under churn. [`ViolationMonitor`] turns the per-update increment
//! into the unit of work instead: it holds the current violation set and
//! repairs it from each [`DeltaGraph`], so reading the active set is O(1)
//! in the size of the network and maintenance is proportional to the
//! update's footprint, not the plane.
//!
//! ## How the repair works
//!
//! Both invariants are *per-atom* properties of the edge labels:
//!
//! * atom α loops on cycle C iff every link of C carries α — so α's loop
//!   membership can only change when some `(link, α)` label changed, i.e.
//!   when α appears in the delta-graph;
//! * atom α is blackholed at switch n iff some in-link of n carries α and
//!   no out-link does — so `(n, α)` can only change when a changed
//!   `(link, α)` pair has n as an endpoint.
//!
//! So the atoms of a delta — those with a changed `(link, α)` pair plus
//! every atom created by a *split* — are the only ones whose membership
//! can differ from the tracked state, and [`ViolationMonitor::apply_update`]
//! handles exactly them, as a short sorted list (never a bitset over the
//! atom range):
//!
//! 1. **Retire**: remove each listed atom from every tracked cycle, one
//!    bit probe per `(cycle, atom)`. A cycle whose set drains stays in the
//!    map, empty, until step 4.
//! 2. **Re-walk**: for each listed atom, one `contains` probe per link
//!    finds the switches that emit it, and the successor walk from each
//!    ([`crate::loops::cycles_for_atom_list`] — the same walk routine and
//!    the same generation-stamped scratch as the per-update check and the
//!    full scans) re-admits the atom to whatever cycle it now closes.
//! 3. **Blackholes**: re-check the predicate at the `(endpoint, atom)`
//!    pairs the delta touched — split atoms at every switch, since their
//!    labels are inherited rather than enumerated — kept as a sorted list.
//! 4. **Transitions**: violation identity is the canonical cycle for loops
//!    and the switch for blackholes. Because drained entries stayed in the
//!    map, "was tracked before this update" needs no snapshot of the key
//!    sets: an identity admitted into a vacant slot *appeared*
//!    ([`MonitorEvent::appeared`]), an entry still empty at the end
//!    *resolved* ([`MonitorEvent::resolved`]) and is dropped, and a cycle
//!    that drains and refills within one (aggregated) delta fires nothing.
//!
//! Cost per update: O(|Δ| · (tracked cycles + links + walk length)) bit
//! probes, where |Δ| is the number of distinct atoms in the delta — for a
//! rule update one or two — plus O(switches) blackhole probes per split.
//! Nothing depends on the number of atoms in the plane, and with the
//! scratch warm an update that transitions no identity allocates nothing
//! (`tests/footprint.rs` pins both by counting allocated bytes).
//!
//! Because the repair goes through the walk of [`crate::loops`] and
//! [`crate::blackholes::is_blackholed_at`] — the same primitives as the
//! full scans — [`ViolationMonitor::active_violations`] is bit-identical to
//! `check_all_loops() ++ check_all_blackholes()` after every operation; the
//! randomized differential suite (`tests/monitor_differential.rs`) pins
//! this, including across [`crate::DeltaNet::compact`] renumbering (via
//! [`ViolationMonitor::remap`]) and under sharding, and a unit-test
//! differential pins state *and* event sequence against the dense
//! reference repair this one replaced.
//!
//! ## Multi-field engines
//!
//! With secondary header fields declared, a violation is a property of a
//! `(primary atom, secondary class)` pair that no label describes, so the
//! engine does not hand this monitor a delta-graph. It names the atoms an
//! update touched and a per-atom scan over every class
//! ([`ViolationMonitor::rescan_atoms`], fed by
//! [`crate::multifield::ClassWalk::scan_atom`]); steps 1 and 4 above run
//! unchanged around it, so the tracked state stays keyed by primary atom
//! alone — `loops[C] ∋ α` iff α rides C in *some* class — and events keep
//! their identity-level meaning. A full scan is that same per-atom scan
//! over every atom into an empty monitor ([`ViolationMonitor::seeded`]), so
//! `tests/multifield_differential.rs` pins state and events, after every
//! operation, against the kernel run from scratch — and that scan against
//! the stateless Veriflow-RI cross product.

use crate::atoms::{AtomId, AtomMap, REMAP_DEAD};
use crate::atomset::AtomSet;
use crate::blackholes;
use crate::delta_graph::DeltaGraph;
use crate::labels::Labels;
use crate::loops::{self, CycleMap, WalkScratch};
use crate::multifield::Found;
use netmodel::checker::InvariantViolation;
use netmodel::topology::{NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The identity of a tracked violation: what stays stable while the set of
/// affected packets fluctuates under churn.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKey {
    /// A forwarding loop, identified by its canonical node cycle.
    Loop(Vec<NodeId>),
    /// A blackhole, identified by the switch where traffic dies.
    Blackhole(NodeId),
}

impl fmt::Display for ViolationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKey::Loop(nodes) => {
                write!(f, "forwarding loop through ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            ViolationKey::Blackhole(node) => write!(f, "blackhole at {node}"),
        }
    }
}

/// A violation-set transition produced by one update: a violation identity
/// that appeared (was raised) or resolved (was retired).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorEvent {
    /// The violation that changed state.
    pub key: ViolationKey,
    /// `true` if the violation appeared with this update, `false` if it
    /// resolved.
    pub appeared: bool,
}

impl MonitorEvent {
    fn appeared(key: ViolationKey) -> Self {
        MonitorEvent {
            key,
            appeared: true,
        }
    }

    fn resolved(key: ViolationKey) -> Self {
        MonitorEvent {
            key,
            appeared: false,
        }
    }
}

impl fmt::Display for MonitorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", if self.appeared { '+' } else { '-' }, self.key)
    }
}

/// The violation-identity transitions of one update or batch window:
/// everything that appeared and everything that resolved, each in ascending
/// [`ViolationKey`] order. This is the payload pushed to observers
/// registered with [`crate::ShardedDeltaNet::set_monitor_observer`] — the
/// same diff `deltanet replay --monitor` prints, so a subscriber stream and
/// an offline replay of the same ops are comparable event for event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorTransitions {
    /// Violations newly present after the update, sorted.
    pub appeared: Vec<ViolationKey>,
    /// Violations no longer present after the update, sorted.
    pub resolved: Vec<ViolationKey>,
}

impl MonitorTransitions {
    /// Whether the update changed no violation identity.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.resolved.is_empty()
    }

    /// Total transitions (appeared + resolved).
    pub fn len(&self) -> usize {
        self.appeared.len() + self.resolved.len()
    }
}

/// Diffs successive active-violation identity sets into
/// [`MonitorTransitions`]. This is the push-side twin of polling
/// [`ViolationMonitor::last_events`]: feed it the merged key set after each
/// update (or batch window) and it yields exactly the identities that
/// appeared and resolved since the previous observation — deterministic
/// regardless of how many shards produced the keys or in which order the
/// shards applied their groups.
#[derive(Clone, Debug, Default)]
pub struct TransitionTracker {
    prev: BTreeSet<ViolationKey>,
}

impl TransitionTracker {
    /// A tracker whose baseline is the empty violation set.
    pub fn new() -> Self {
        TransitionTracker::default()
    }

    /// A tracker whose baseline is `current` — use when attaching to an
    /// engine that already has active violations, so the attach itself does
    /// not masquerade as a wave of `appeared` events.
    pub fn starting_from(current: BTreeSet<ViolationKey>) -> Self {
        TransitionTracker { prev: current }
    }

    /// Diffs `now` against the previous observation and advances to it.
    pub fn observe(&mut self, now: BTreeSet<ViolationKey>) -> MonitorTransitions {
        let transitions = MonitorTransitions {
            appeared: now.difference(&self.prev).cloned().collect(),
            resolved: self.prev.difference(&now).cloned().collect(),
        };
        self.prev = now;
        transitions
    }
}

/// The live violation state: every forwarding loop and blackhole currently
/// present in the data plane, maintained incrementally (see the module
/// docs). Created empty alongside an empty engine
/// ([`crate::DeltaNetConfig::monitor_violations`]) or seeded from an
/// existing data plane ([`crate::DeltaNet::enable_monitor`]).
#[derive(Clone, Debug, Default)]
pub struct ViolationMonitor {
    /// Active loops: canonical cycle → atoms currently looping through it.
    loops: CycleMap,
    /// Active blackholes: switch → atoms currently dying there.
    holes: BTreeMap<NodeId, AtomSet>,
    /// The appeared/resolved transitions of the most recent update.
    events: Vec<MonitorEvent>,
    /// Repair scratch, empty between updates and reused across them: the
    /// walk state, the delta's distinct atoms, and the blackhole
    /// `(switch, atom)` candidates, the latter two sorted.
    walk: WalkScratch,
    atoms: Vec<AtomId>,
    candidates: Vec<(NodeId, AtomId)>,
}

impl ViolationMonitor {
    /// An empty monitor (correct for an engine with no rules installed).
    pub fn new() -> Self {
        ViolationMonitor::default()
    }

    /// Seeds a monitor from an existing data plane with one full scan —
    /// the only O(plane) step; everything afterwards is incremental.
    pub fn from_state(topology: &Topology, labels: &Labels, atoms: &AtomMap) -> Self {
        let all: AtomSet = atoms.iter().map(|(a, _)| a).collect();
        let loops = loops::cycles_for_atoms(topology, labels, &all);
        let holes = topology
            .switch_nodes()
            .map(|node| {
                (
                    node,
                    blackholes::blackholed_atoms_at(topology, labels, node),
                )
            })
            .filter(|(_, set)| !set.is_empty())
            .collect();
        ViolationMonitor {
            loops,
            holes,
            ..ViolationMonitor::default()
        }
    }

    /// A monitor seeded by one [`ViolationMonitor::rescan_atoms`] pass over
    /// `atoms` — the multi-field full scan
    /// ([`crate::multifield::MultiField::scan`]). The seeding itself is not
    /// an update: no events are left behind.
    pub(crate) fn seeded(
        atoms: impl Iterator<Item = AtomId>,
        scan: impl FnMut(AtomId, &mut dyn FnMut(Found<'_>)),
    ) -> Self {
        let mut monitor = ViolationMonitor::new();
        monitor.rescan_atoms(atoms, scan);
        monitor.events.clear();
        monitor
    }

    /// The multi-field repair: the same retire → re-admit → settle
    /// sequence as [`ViolationMonitor::apply_update`], with the atoms and
    /// the per-atom scan supplied by the engine. A multi-field violation
    /// depends on cross-field intersections no label walk sees, so the
    /// engine names the `touched` atoms (the update's interval plus its
    /// split atoms) and `scan` reports everything one atom currently
    /// violates ([`crate::multifield::ClassWalk::scan_atom`]); transitions
    /// are recorded at the identity level exactly as for a delta-graph.
    pub(crate) fn rescan_atoms(
        &mut self,
        touched: impl Iterator<Item = AtomId>,
        mut scan: impl FnMut(AtomId, &mut dyn FnMut(Found<'_>)),
    ) {
        self.events.clear();
        self.atoms.clear();
        self.atoms.extend(touched);
        self.atoms.sort_unstable();
        self.atoms.dedup();

        let (mut loops_drained, mut holes_drained) = (false, false);
        for &atom in &self.atoms {
            for set in self.loops.values_mut() {
                loops_drained |= set.remove(atom) && set.is_empty();
            }
            for set in self.holes.values_mut() {
                holes_drained |= set.remove(atom) && set.is_empty();
            }
        }
        let (loops, holes, events) = (&mut self.loops, &mut self.holes, &mut self.events);
        let mut holes_appeared = 0;
        for &atom in &self.atoms {
            scan(atom, &mut |found| {
                let appeared = match found {
                    Found::Cycle(cycle) => {
                        loops::admit(loops, cycle, atom).then(|| ViolationKey::Loop(cycle.to_vec()))
                    }
                    Found::Hole(node) => loops::admit(holes, &node, atom).then(|| {
                        holes_appeared += 1;
                        ViolationKey::Blackhole(node)
                    }),
                };
                events.extend(appeared.map(MonitorEvent::appeared));
            });
        }
        // One scan admits loops and blackholes interleaved. Loop keys sort
        // before blackhole keys, so settling the loops over *all* admitted
        // events leaves the blackholes' as the tail the second phase owns.
        settle(loops, events, 0, loops_drained, |cycle| {
            ViolationKey::Loop(cycle.clone())
        });
        let first = events.len() - holes_appeared;
        settle(holes, events, first, holes_drained, |&node| {
            ViolationKey::Blackhole(node)
        });
    }

    /// Repairs the violation state from one update's delta-graph, recording
    /// the appeared/resolved transitions (readable via
    /// [`ViolationMonitor::last_events`] until the next update).
    ///
    /// `labels` must be the *post-update* edge labels of the engine that
    /// produced `delta` — exactly what [`crate::DeltaNet`] passes when
    /// feeding its monitor.
    pub fn apply_update(&mut self, topology: &Topology, labels: &Labels, delta: &DeltaGraph) {
        self.events.clear();
        // The atoms whose violation membership may differ from the tracked
        // state: atoms with changed labels, plus every atom created by a
        // split. Split atoms are *recomputed* from the current labels, never
        // inferred from their old atom's tracked membership — on an
        // aggregated delta-graph (§3.3) the split may have happened after
        // label changes earlier in the same window, so the tracked (pre-
        // window) membership of the old atom says nothing about the new one.
        self.atoms.clear();
        let changed = delta.added.iter().chain(&delta.removed);
        self.atoms.extend(changed.clone().map(|&(_, atom)| atom));
        self.atoms.extend(delta.splits.iter().map(|pair| pair.new));
        if self.atoms.is_empty() {
            return;
        }
        self.atoms.sort_unstable();
        self.atoms.dedup();

        // 1. Loops: retire every listed atom from every tracked cycle, then
        // re-admit whatever a fresh walk (the full scan's own routine)
        // finds for exactly those atoms.
        let mut drained = false;
        for set in self.loops.values_mut() {
            for &atom in &self.atoms {
                drained |= set.remove(atom) && set.is_empty();
            }
        }
        let (tracked, events) = (&mut self.loops, &mut self.events);
        loops::cycles_for_atom_list(
            &mut self.walk,
            topology,
            labels,
            &self.atoms,
            |cycle, atom| {
                if loops::admit(tracked, cycle, atom) {
                    events.push(MonitorEvent::appeared(ViolationKey::Loop(cycle.to_vec())));
                }
            },
        );
        settle(tracked, events, 0, drained, |cycle| {
            ViolationKey::Loop(cycle.clone())
        });

        // 2. Blackholes: the predicate at (n, α) reads only the labels of
        // n's in- and out-links for α, so for changed pairs the candidates
        // are exactly their endpoints; a split atom (which has labels
        // wherever its old atom did, possibly edited later in the window)
        // is re-checked at every switch. Drop-node sinks are never switches
        // (see `blackholes` module docs) and are skipped.
        self.candidates.clear();
        for &(link, atom) in changed {
            let link = topology.link(link);
            for node in [link.src, link.dst] {
                if !topology.is_drop_node(node) {
                    self.candidates.push((node, atom));
                }
            }
        }
        for pair in &delta.splits {
            self.candidates
                .extend(topology.switch_nodes().map(|node| (node, pair.new)));
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();
        let first = self.events.len();
        let mut drained = false;
        for &(node, atom) in &self.candidates {
            if blackholes::is_blackholed_at(topology, labels, node, atom) {
                if loops::admit(&mut self.holes, &node, atom) {
                    self.events
                        .push(MonitorEvent::appeared(ViolationKey::Blackhole(node)));
                }
            } else if let Some(set) = self.holes.get_mut(&node) {
                drained |= set.remove(atom) && set.is_empty();
            }
        }
        settle(&mut self.holes, &mut self.events, first, drained, |&node| {
            ViolationKey::Blackhole(node)
        });
    }

    /// Rewrites every tracked atom through the remap table of a compaction
    /// pass ([`crate::atoms::AtomMap::renumber`]), dropping reclaimed ids.
    /// A reclaimed atom always merged into a live, label-identical
    /// neighbour, so no violation identity can appear or resolve here — the
    /// active set is invariant across compaction (pinned by the
    /// differential suite).
    pub fn remap(&mut self, remap: &[u32]) {
        let remap_set = |set: &AtomSet| -> AtomSet {
            set.iter()
                .filter_map(|a| {
                    let new = remap[a.index()];
                    (new != REMAP_DEAD).then_some(AtomId(new))
                })
                .collect()
        };
        for set in self.loops.values_mut() {
            *set = remap_set(set);
        }
        self.loops.retain(|_, set| !set.is_empty());
        for set in self.holes.values_mut() {
            *set = remap_set(set);
        }
        self.holes.retain(|_, set| !set.is_empty());
        self.events.clear();
    }

    /// The violations currently active, rendered exactly like
    /// `check_all_loops()` followed by `check_all_blackholes()` (same
    /// grouping, normalization, and order), so differential comparison is
    /// plain `Vec` equality. The state itself is maintained — no scan runs
    /// here; cost is proportional to the active violations only.
    pub fn active_violations(&self, atoms: &AtomMap) -> Vec<InvariantViolation> {
        let mut out = self.loop_violations(atoms);
        out.extend(self.blackhole_violations(atoms));
        out
    }

    /// The loop half of [`ViolationMonitor::active_violations`] — all of
    /// `check_all_loops()` on a multi-field engine.
    pub(crate) fn loop_violations(&self, atoms: &AtomMap) -> Vec<InvariantViolation> {
        loops::into_violations(
            self.loops.iter().map(|(c, s)| (c.clone(), s.clone())),
            atoms,
        )
    }

    /// The blackhole half of [`ViolationMonitor::active_violations`].
    pub(crate) fn blackhole_violations(&self, atoms: &AtomMap) -> Vec<InvariantViolation> {
        blackholes::render_blackholes(self.holes.iter().map(|(n, s)| (*n, s)), atoms)
    }

    /// The identities of the currently active violations, in sorted order
    /// (loops by cycle, then blackholes by node). Cheap: no packet-interval
    /// rendering.
    pub fn active_keys(&self) -> Vec<ViolationKey> {
        self.loops
            .keys()
            .map(|c| ViolationKey::Loop(c.clone()))
            .chain(self.holes.keys().map(|&n| ViolationKey::Blackhole(n)))
            .collect()
    }

    /// Number of active forwarding loops (distinct cycles). O(1).
    pub fn loop_count(&self) -> usize {
        self.loops.len()
    }

    /// Number of active blackholes (distinct switches). O(1).
    pub fn blackhole_count(&self) -> usize {
        self.holes.len()
    }

    /// Whether no violation is currently active.
    pub fn is_clean(&self) -> bool {
        self.loops.is_empty() && self.holes.is_empty()
    }

    /// The appeared/resolved transitions of the most recent update (empty
    /// after a remap, which never transitions an identity).
    pub fn last_events(&self) -> &[MonitorEvent] {
        &self.events
    }

    /// Exports the tracked violation state for a snapshot: the active loops
    /// as `(canonical cycle, raw atom-set words)` and the active blackholes
    /// as `(switch, raw atom-set words)`. Events are transient per-update
    /// state and are not exported.
    #[allow(clippy::type_complexity)]
    pub fn export_parts(&self) -> (Vec<(Vec<NodeId>, Vec<u64>)>, Vec<(NodeId, Vec<u64>)>) {
        let loops = self
            .loops
            .iter()
            .map(|(c, s)| (c.clone(), s.words().to_vec()))
            .collect();
        let holes = self
            .holes
            .iter()
            .map(|(&n, s)| (n, s.words().to_vec()))
            .collect();
        (loops, holes)
    }

    /// Rebuilds a monitor from the export of
    /// [`ViolationMonitor::export_parts`], with an empty event list.
    pub fn from_parts(
        loops: Vec<(Vec<NodeId>, Vec<u64>)>,
        holes: Vec<(NodeId, Vec<u64>)>,
    ) -> ViolationMonitor {
        ViolationMonitor {
            loops: loops
                .into_iter()
                .map(|(c, w)| (c, AtomSet::from_raw_words(w)))
                .collect(),
            holes: holes
                .into_iter()
                .map(|(n, w)| (n, AtomSet::from_raw_words(w)))
                .collect(),
            ..ViolationMonitor::default()
        }
    }

    /// Whether two monitors track the same violation state — same loop
    /// cycles, same blackhole switches, logically equal atom sets (events
    /// are ignored). The restore path uses this to verify a deserialized
    /// monitor bit-for-bit against a fresh full-scan seed of the restored
    /// data plane.
    pub fn state_eq(&self, other: &ViolationMonitor) -> bool {
        self.loops == other.loops && self.holes == other.holes
    }
}

/// Closes one phase (loops, then blackholes) of
/// [`ViolationMonitor::apply_update`]. `events[first..]` holds the
/// identities the phase admitted into vacant slots, in discovery order;
/// entries that `drained` and were not refilled are still in `tracked`,
/// empty. Drops those, and leaves the phase's events in the reporting
/// order: resolved identities, then appeared ones, each ascending.
fn settle<K: Ord>(
    tracked: &mut BTreeMap<K, AtomSet>,
    events: &mut Vec<MonitorEvent>,
    first: usize,
    drained: bool,
    key: impl Fn(&K) -> ViolationKey,
) {
    events[first..].sort_unstable_by(|a, b| a.key.cmp(&b.key));
    if !drained {
        return;
    }
    let appeared = events.len() - first;
    // `retain` visits in ascending key order.
    tracked.retain(|k, set| {
        if set.is_empty() {
            events.push(MonitorEvent::resolved(key(k)));
        }
        !set.is_empty()
    });
    events[first..].rotate_left(appeared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DeltaNet, DeltaNetConfig};
    use netmodel::checker::Checker;
    use netmodel::interval::Bound;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::trace::Op;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use testutil::{random_topology, OpGen};

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn monitored() -> DeltaNetConfig {
        DeltaNetConfig {
            monitor_violations: true,
            ..DeltaNetConfig::default()
        }
    }

    fn two_node_net() -> (
        DeltaNet,
        netmodel::topology::NodeId,
        netmodel::topology::NodeId,
    ) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.add_link(a, b);
        topo.add_link(b, a);
        (DeltaNet::new(topo, monitored()), a, b)
    }

    #[test]
    fn loop_appears_and_resolves_with_events() {
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        assert!(net.monitor().unwrap().is_clean() || net.monitor().unwrap().loop_count() == 0);
        // Closing the cycle raises the loop and resolves the blackhole the
        // first (dangling) rule had created at b.
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        assert_eq!(monitor.blackhole_count(), 0);
        let events = monitor.last_events();
        assert!(events
            .iter()
            .any(|e| e.appeared && matches!(e.key, ViolationKey::Loop(_))));
        assert!(events
            .iter()
            .any(|e| !e.appeared && e.key == ViolationKey::Blackhole(b)));
        // The live state equals the full scans, in their concatenation order.
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
        // Removing one side retires the loop (and strands rule 2's traffic
        // at a, which becomes the new blackhole).
        net.remove_rule(RuleId(1));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 0);
        assert!(monitor
            .last_events()
            .iter()
            .any(|e| !e.appeared && matches!(e.key, ViolationKey::Loop(_))));
        assert_eq!(monitor.active_keys(), vec![ViolationKey::Blackhole(a)]);
    }

    #[test]
    fn blackhole_appears_on_gap_and_resolves_on_drop_rule() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let db = topo.drop_link(b);
        let mut net = DeltaNet::new(topo, monitored());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.blackhole_count(), 1);
        assert_eq!(monitor.active_keys(), vec![ViolationKey::Blackhole(b)]);
        // An explicit drop rule is intended loss: the blackhole resolves.
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/8"), 1, b, db));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.blackhole_count(), 0);
        assert_eq!(
            monitor.last_events(),
            &[MonitorEvent::resolved(ViolationKey::Blackhole(b))]
        );
        // Withdrawing the drop rule re-raises it.
        net.remove_rule(RuleId(2));
        assert_eq!(net.monitor().unwrap().blackhole_count(), 1);
    }

    #[test]
    fn splits_inherit_membership_and_narrow_fix_splits_the_violation() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let db = topo.drop_link(b);
        let mut net = DeltaNet::new(topo, monitored());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        assert_eq!(net.monitor().unwrap().blackhole_count(), 1);
        // Dropping only half the range splits the blackholed atom; the
        // remaining half must stay blackholed (the split clone at work).
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/9"), 1, b, db));
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
        assert_eq!(net.monitor().unwrap().blackhole_count(), 1);
    }

    #[test]
    fn remap_survives_compaction_without_transitions() {
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        net.insert_rule(Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("0.0.0.0/0"), 1, b, ba));
        // Churn a narrow rule to create reclaimable bounds.
        net.insert_rule(Rule::forward(RuleId(3), prefix("10.0.0.0/8"), 9, a, ab));
        net.remove_rule(RuleId(3));
        assert!(net.reclaimable_bounds() > 0);
        assert_eq!(net.monitor().unwrap().loop_count(), 1);
        net.compact();
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        assert!(monitor.last_events().is_empty());
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
    }

    #[test]
    fn enable_monitor_seeds_from_existing_state() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        assert!(net.monitor().is_none());
        assert!(net.active_violations().is_none());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        net.enable_monitor();
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        // Incremental from here on.
        net.remove_rule(RuleId(2));
        assert_eq!(net.monitor().unwrap().loop_count(), 0);
    }

    #[test]
    fn aggregated_window_feeds_monitor_like_per_update() {
        // The §3.3 aggregation path: a monitor may consume one aggregated
        // delta-graph for a whole update window instead of per-update
        // deltas. This is only sound because `DeltaGraph::merge` cancels
        // same-window insert+remove pairs to their net effect — without
        // cancellation the flapped pair below would feed the monitor a
        // phantom addition and removal in unknown relative order.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        let mut external = ViolationMonitor::new();

        net.begin_aggregate();
        // A loop raised and fully retracted inside the window (nets out) …
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        net.remove_rule(RuleId(2));
        net.remove_rule(RuleId(1));
        // … and a loop still live when the window closes.
        net.insert_rule(Rule::forward(RuleId(3), prefix("192.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(4), prefix("192.0.0.0/8"), 1, b, ba));
        let agg = net.take_aggregate();

        external.apply_update(net.topology(), net.labels(), &agg);
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(external.active_violations(net.atoms()), expect);
        assert_eq!(external.loop_count(), 1);

        // Second window — the split-after-membership-change regression: a
        // loop forms on the 10/8 atom *inside* the window, then a later
        // same-link, higher-priority /9 insert splits that atom without
        // touching any label. The split atom's loop membership exists only
        // in the current labels, not in the monitor's pre-window state, so
        // the repair must recompute it (inheriting from the tracked state
        // would silently drop the upper half of the looping packets).
        net.begin_aggregate();
        net.insert_rule(Rule::forward(RuleId(5), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(6), prefix("10.0.0.0/8"), 1, b, ba));
        net.insert_rule(Rule::forward(RuleId(7), prefix("10.0.0.0/9"), 5, a, ab));
        let agg = net.take_aggregate();
        assert!(!agg.splits.is_empty(), "the /9 insert must split the atom");
        external.apply_update(net.topology(), net.labels(), &agg);
        // Bit-exact equality is the regression check: with inheritance the
        // split atom would be missing and the loop's packets would cover
        // only 10.0.0.0/9 instead of all of 10.0.0.0/8.
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(external.active_violations(net.atoms()), expect);
        // One loop identity: every looping prefix rides the same a->b cycle.
        assert_eq!(external.loop_count(), 1);
    }

    #[test]
    fn key_and_event_display() {
        let key = ViolationKey::Loop(vec![NodeId(0), NodeId(1)]);
        assert_eq!(key.to_string(), "forwarding loop through n0 -> n1");
        let key = ViolationKey::Blackhole(NodeId(3));
        assert_eq!(key.to_string(), "blackhole at n3");
        assert_eq!(
            MonitorEvent::appeared(key.clone()).to_string(),
            "+ blackhole at n3"
        );
        assert_eq!(MonitorEvent::resolved(key).to_string(), "- blackhole at n3");
    }

    /// The dense repair that [`ViolationMonitor::apply_update`] replaced,
    /// verbatim, as the reference for the differentials below: it snapshots
    /// both key sets, turns the delta into a bitset over the atom range,
    /// subtracts it from every tracked cycle, recomputes through the
    /// candidate-set scan, and diffs the key sets for the events.
    impl ViolationMonitor {
        fn reference_repair(&mut self, topology: &Topology, labels: &Labels, delta: &DeltaGraph) {
            self.events.clear();
            if delta.splits.is_empty() && delta.added.is_empty() && delta.removed.is_empty() {
                return;
            }
            let loops_before: BTreeSet<Vec<NodeId>> = self.loops.keys().cloned().collect();
            let holes_before: BTreeSet<NodeId> = self.holes.keys().copied().collect();

            // The atoms whose violation membership may differ from the tracked
            // state: atoms with changed labels, plus every atom created by a
            // split. Split atoms are *recomputed* from the current labels, never
            // inferred from their old atom's tracked membership — on an
            // aggregated delta-graph (§3.3) the split may have happened after
            // label changes earlier in the same window, so the tracked (pre-
            // window) membership of the old atom says nothing about the new one.
            let mut affected = delta.affected_atoms();
            for pair in &delta.splits {
                affected.insert(pair.new);
            }

            // 1. Loops: retire every candidate atom from every tracked cycle,
            // then re-admit whatever a fresh walk (the full scan's own
            // primitive) finds for exactly those atoms.
            for set in self.loops.values_mut() {
                set.difference_with(&affected);
            }
            let recomputed = loops::cycles_for_atoms(topology, labels, &affected);
            for (cycle, set) in recomputed {
                self.loops.entry(cycle).or_default().union_with(&set);
            }
            self.loops.retain(|_, set| !set.is_empty());

            // 2. Blackholes: the predicate at (n, α) reads only the labels of
            // n's in- and out-links for α, so for changed pairs the candidates
            // are exactly their endpoints; a split atom (which has labels
            // wherever its old atom did, possibly edited later in the window)
            // is re-checked at every switch. Drop-node sinks are never switches
            // (see `blackholes` module docs) and are skipped.
            let mut candidates: BTreeSet<(NodeId, AtomId)> = BTreeSet::new();
            for &(link, atom) in delta.added.iter().chain(delta.removed.iter()) {
                let l = topology.link(link);
                if !topology.is_drop_node(l.src) {
                    candidates.insert((l.src, atom));
                }
                if !topology.is_drop_node(l.dst) {
                    candidates.insert((l.dst, atom));
                }
            }
            for pair in &delta.splits {
                for node in topology.switch_nodes() {
                    candidates.insert((node, pair.new));
                }
            }
            for (node, atom) in candidates {
                if blackholes::is_blackholed_at(topology, labels, node, atom) {
                    self.holes.entry(node).or_default().insert(atom);
                } else if let Some(set) = self.holes.get_mut(&node) {
                    set.remove(atom);
                }
            }
            self.holes.retain(|_, set| !set.is_empty());

            // 3. Transitions at the violation-identity level.
            for cycle in &loops_before {
                if !self.loops.contains_key(cycle) {
                    self.events
                        .push(MonitorEvent::resolved(ViolationKey::Loop(cycle.clone())));
                }
            }
            for cycle in self.loops.keys() {
                if !loops_before.contains(cycle) {
                    self.events
                        .push(MonitorEvent::appeared(ViolationKey::Loop(cycle.clone())));
                }
            }
            for &node in &holes_before {
                if !self.holes.contains_key(&node) {
                    self.events
                        .push(MonitorEvent::resolved(ViolationKey::Blackhole(node)));
                }
            }
            for &node in self.holes.keys() {
                if !holes_before.contains(&node) {
                    self.events
                        .push(MonitorEvent::appeared(ViolationKey::Blackhole(node)));
                }
            }
        }
    }

    #[test]
    fn drain_and_refill_inside_one_aggregated_delta_fires_no_event() {
        // 10/8 loops a -> b -> a and also enters the cycle from c. A window
        // that withdraws c's rule nets to one removed pair for the cycle's
        // only atom: the repair takes the atom off the cycle (draining the
        // entry) and the re-walk puts it straight back. The identity never
        // went away, so no event may fire.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let ca = topo.add_link(c, a);
        let mut net = DeltaNet::with_topology(topo);
        let mut external = ViolationMonitor::new();
        net.begin_aggregate();
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        net.insert_rule(Rule::forward(RuleId(3), prefix("10.0.0.0/8"), 1, c, ca));
        let agg = net.take_aggregate();
        external.apply_update(net.topology(), net.labels(), &agg);
        let cycle = ViolationKey::Loop(vec![a, b]);
        assert_eq!(
            external.last_events(),
            &[MonitorEvent::appeared(cycle.clone())]
        );

        net.begin_aggregate();
        net.remove_rule(RuleId(3));
        // A flap that cancels out of the aggregate.
        net.insert_rule(Rule::forward(RuleId(4), prefix("10.0.0.0/8"), 9, c, ca));
        net.remove_rule(RuleId(4));
        let agg = net.take_aggregate();
        assert_eq!((agg.added.len(), agg.removed.len()), (0, 1));
        external.apply_update(net.topology(), net.labels(), &agg);
        assert!(external.last_events().is_empty());
        assert_eq!(external.active_keys(), vec![cycle]);
    }

    #[test]
    fn atom_retiring_from_a_shared_cycle_fires_no_loop_event() {
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        for (id, p) in [(1, "10.0.0.0/8"), (3, "192.0.0.0/8")] {
            net.insert_rule(Rule::forward(RuleId(id), prefix(p), 1, a, ab));
            net.insert_rule(Rule::forward(RuleId(id + 1), prefix(p), 1, b, ba));
        }
        assert_eq!(net.monitor().unwrap().loop_count(), 1);
        // 192/8 leaves the cycle (and strands at b); 10/8 keeps it alive.
        net.remove_rule(RuleId(4));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        assert_eq!(
            monitor.last_events(),
            &[MonitorEvent::appeared(ViolationKey::Blackhole(b))]
        );
    }

    /// One engine per shard range, routed by hand so the test knows which
    /// engines an op touched (and can reach each engine's delta-graphs).
    fn shard_engines(topo: &Topology, config: DeltaNetConfig, shards: usize) -> Vec<DeltaNet> {
        crate::ShardedDeltaNet::new(topo.clone(), config, shards)
            .shards()
            .to_vec()
    }

    /// The engines `op` concerns: those whose range a rule overlaps, or
    /// that hold (a slice of) the rule being removed.
    fn routed(engines: &[DeltaNet], op: &Op) -> Vec<usize> {
        (0..engines.len())
            .filter(|&i| match op {
                Op::Insert(rule) => rule
                    .interval()
                    .overlaps(&engines[i].clip().expect("shard engines are clipped")),
                Op::Remove(id) => engines[i].rule(*id).is_some(),
            })
            .collect()
    }

    fn full_scan(net: &DeltaNet) -> Vec<InvariantViolation> {
        let mut out = net.check_all_loops();
        out.extend(net.check_all_blackholes());
        out
    }

    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

    #[test]
    fn per_op_repair_matches_dense_reference_in_state_and_events() {
        // The engine's own monitor is the repair under test, fed one
        // delta-graph per op (splits included) and remapped by explicit and
        // threshold-triggered compaction. The reference starts every op as
        // a clone of it, so it needs no remap of its own.
        for shards in SHARD_COUNTS {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(0x15_0001 ^ (shards as u64) << 8 ^ seed);
                let topo = random_topology(&mut rng, 5, true);
                let config = DeltaNetConfig {
                    field_width: 8,
                    compact_threshold: (seed % 2 == 1).then_some(3),
                    ..monitored()
                };
                let mut engines = shard_engines(&topo, config, shards);
                let mut gen = OpGen::new(8, 40, 0.35);
                let mut compared = 0;
                for step in 0..200 {
                    let Some(op) = gen.next_op(&mut rng, &topo) else {
                        continue;
                    };
                    for i in routed(&engines, &op) {
                        let net = &mut engines[i];
                        let mut reference = net.monitor().unwrap().clone();
                        let passes = net.compactions();
                        net.try_apply(&op).expect("a routed op applies");
                        let monitor = net.monitor().unwrap();
                        let at = format!("{shards} shards, seed {seed}, step {step}, shard {i}");
                        assert_eq!(
                            monitor.active_violations(net.atoms()),
                            full_scan(net),
                            "{at}"
                        );
                        if net.compactions() != passes {
                            // The pass reset `last_delta` and renumbered
                            // the atoms under the clone.
                            continue;
                        }
                        reference.reference_repair(net.topology(), net.labels(), net.last_delta());
                        assert!(monitor.state_eq(&reference), "{at}");
                        assert_eq!(monitor.last_events(), reference.last_events(), "{at}");
                        compared += 1;
                    }
                    if step == 100 {
                        for net in &mut engines {
                            net.compact();
                            assert_eq!(net.active_violations().unwrap(), full_scan(net));
                        }
                    }
                }
                assert!(compared > 100, "only {compared} ops compared");
            }
        }
    }

    /// The renumbering table of the compaction pass that turned `before`
    /// (every atom with its low bound) into `after` — what
    /// [`DeltaNet::compact`] hands its own monitor but does not export.
    fn remap_table(before: &[(AtomId, Bound)], after: &AtomMap) -> Vec<u32> {
        let mut remap = vec![REMAP_DEAD; before.len()];
        for &(old, lo) in before {
            let new = after.atom_of_value(lo);
            if after.atom_interval(new).lo() == lo {
                remap[old.index()] = new.0;
            }
        }
        remap
    }

    #[test]
    fn aggregated_window_repair_matches_dense_reference_across_compaction() {
        // External monitors fed one aggregated delta-graph per window —
        // several ops, splits after label changes, flaps that cancel — with
        // an explicit `compact()` in the middle of some windows: the engine
        // remaps the open aggregate, the test remaps both monitors.
        for shards in SHARD_COUNTS {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(0x15_0002 ^ (shards as u64) << 8 ^ seed);
                let topo = random_topology(&mut rng, 5, true);
                let config = DeltaNetConfig {
                    field_width: 8,
                    ..DeltaNetConfig::default()
                };
                let mut engines = shard_engines(&topo, config, shards);
                let mut fast = vec![ViolationMonitor::new(); shards];
                let mut reference = vec![ViolationMonitor::new(); shards];
                let mut gen = OpGen::new(8, 40, 0.35);
                let mut transitions = 0;
                for window in 0..60 {
                    let len = [1, 2, 5, 9][rng.gen_range(0..4)];
                    engines.iter_mut().for_each(DeltaNet::begin_aggregate);
                    for slot in 0..len {
                        let Some(op) = gen.next_op(&mut rng, &topo) else {
                            continue;
                        };
                        for i in routed(&engines, &op) {
                            engines[i].try_apply(&op).expect("a routed op applies");
                        }
                        if window % 7 == 3 && slot == len / 2 {
                            for (i, net) in engines.iter_mut().enumerate() {
                                let before: Vec<(AtomId, Bound)> =
                                    net.atoms().iter().map(|(a, iv)| (a, iv.lo())).collect();
                                net.compact();
                                let remap = remap_table(&before, net.atoms());
                                fast[i].remap(&remap);
                                reference[i].remap(&remap);
                            }
                        }
                    }
                    for (i, net) in engines.iter_mut().enumerate() {
                        let agg = net.take_aggregate();
                        fast[i].apply_update(net.topology(), net.labels(), &agg);
                        reference[i].reference_repair(net.topology(), net.labels(), &agg);
                        let at =
                            format!("{shards} shards, seed {seed}, window {window}, shard {i}");
                        assert!(fast[i].state_eq(&reference[i]), "{at}");
                        assert_eq!(fast[i].last_events(), reference[i].last_events(), "{at}");
                        assert_eq!(
                            fast[i].active_violations(net.atoms()),
                            full_scan(net),
                            "{at}"
                        );
                        transitions += fast[i].last_events().len();
                    }
                }
                assert!(transitions > 0, "the trace never transitioned an identity");
            }
        }
    }
}

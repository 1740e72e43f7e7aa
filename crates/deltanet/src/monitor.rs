//! Incremental violation monitoring: forwarding loops and blackholes
//! maintained as *live state*, repaired by each update.
//!
//! The per-update checks of §4.3.1 answer "did this update create a loop?"
//! but forget the answer immediately: a long-lived deployment that wants to
//! know "which violations exist right now?" has to rescan the whole data
//! plane (`check_all_loops` + `check_all_blackholes`), paying O(plane) per
//! query under churn. [`ViolationMonitor`] turns the per-update increment
//! into the unit of work instead: it holds the current violation set and
//! repairs it from each update, so reading the active set is O(1) in the
//! size of the network and maintenance is proportional to the update's
//! footprint, not the plane.
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
//! A rule update changes labels only on the out-links of its source
//! `s = source(r)` (§3, Algorithms 1–2): every pair of its delta-graph
//! leaves `s`, and a cycle it closes or breaks runs through `s`. A window of
//! updates ([`netmodel::checker::Checker::apply_window`]; one update is a
//! one-op window) therefore changes labels only on the out-links of its
//! sources `S`, the switches its updates changed a label at. The engine
//! records, per update, the atoms of its changed pairs, its source and its
//! splits, and repairs once when the window closes
//! (`ViolationMonitor::repair_labels` over `ViolationMonitor::repair_at`),
//! over the window's distinct atoms (a short sorted list — never a bitset
//! over the atom range) and `near(S)`: the sources and the far ends of their
//! non-drop out-links. Under churn a window touches each atom many times,
//! and the repair handles it once. Each step is exact per window:
//!
//! 1. **Inherit**: each split's new atom takes its old atom's tracked
//!    cycles and holes, pair by pair in creation order (a chained split
//!    copies A→B→C). The new atom is repaired too if its old atom is —
//!    checked in creation order, so a chain follows — and is done
//!    otherwise. *Sound:* labels change only on out-links of `S`, so a new
//!    atom's labels differ from its old atom's pre-window labels only
//!    there, and not at all if the old atom changed nowhere in the window.
//! 2. **Retire**: remove each repaired atom from the tracked cycles through
//!    any source and from the holes at `near(S)`; each tracked cycle is
//!    tested against `S` once, whatever the number of atoms. A cycle or
//!    hole whose set drains stays in the map, empty, until step 4. *Sound:*
//!    a cycle avoiding `S` uses only links whose labels did not change, and
//!    the predicate at a switch outside `near(S)` reads none of them.
//! 3. **Re-admit**: per atom, successor walks from each source with shared
//!    visited marks (`crate::loops::walks_from` — the same walk routine
//!    and generation-stamped scratch as the per-update check and the full
//!    scans, at most one pass over the nodes) re-admit the atom to the
//!    cycles it now closes: the first walk that reaches a cycle through a
//!    source goes round it, since the atom's graph is functional. The
//!    blackhole predicate (`crate::blackholes::is_blackholed_at`) is
//!    re-judged at each `near(S)` switch. Each update's own per-update
//!    check is the one an unmonitored engine runs
//!    (`crate::loops::find_loops_from_seeds_in`), so reports do not depend
//!    on monitoring.
//! 4. **Transitions**: violation identity is the canonical cycle for loops
//!    and the switch for blackholes. Because drained entries stayed in the
//!    map, "was tracked before this repair" needs no snapshot of the key
//!    sets: an identity admitted into a vacant slot *appeared*, an entry
//!    still empty at the end *resolved* and is dropped, and a cycle that
//!    drains and refills within one repair fires nothing — nor does a flap
//!    that nets to nothing inside the window. The window's transitions are
//!    recorded as one [`MonitorTransitions`]
//!    ([`ViolationMonitor::last_events`]), each list ascending. A
//!    compaction inside a window repairs the window so far first, so the
//!    recorded ids never cross a renumbering; the window's repair after
//!    the pass folds its events into those before it
//!    ([`MonitorTransitions::absorb`]): keys are cycles and switches, not
//!    atom ids, so they survive the pass. A window's events are the diff of
//!    the full scans around it, however many passes ran inside it, and
//!    stand until the next window that applies an op.
//!
//! Cost per window: O(tracked identities) bit probes per split, plus
//! O(tracked cycles · cycle length) to test them against `S`, plus, per
//! distinct repaired atom, O(cycles through `S` + nodes + links of the
//! `near(S)` switches). Nothing depends on the number of atoms in the
//! plane, and with the scratch and the window record warm a window that
//! transitions no identity allocates nothing beyond what its per-update
//! checks report (`tests/footprint.rs` pins both by counting allocated
//! bytes, against an unmonitored twin).
//!
//! Because the repair goes through the walk of [`crate::loops`] and the
//! blackhole predicate — the same primitives as the full scans —
//! [`ViolationMonitor::active_violations`] is bit-identical to
//! `check_all_loops() ++ check_all_blackholes()` after every window; the
//! randomized differential suite (`tests/monitor_differential.rs`) pins
//! this, with the window's events against the diff of the scans around it,
//! including across [`crate::DeltaNet::compact`] renumbering (via
//! [`ViolationMonitor::remap`]) and under sharding. Unit-test
//! differentials pin state *and* event sequence against a dense reference
//! repair, one-op windows and seeded windows of up to 16 ops alike, and
//! every op's report against an unmonitored twin's; one fixture per rule
//! above fails if that rule is broken.
//!
//! ## Multi-field engines
//!
//! With secondary header fields declared, a violation is a property of a
//! `(primary atom, secondary class)` pair that no label describes. The
//! repair is the same pass at `s`, with two differences: its atoms are
//! those of the rule's interval that the update can move, and the scan is
//! the set-at-a-time kernel's, told whether the atom was tracked at each
//! `near` switch so a blackhole is judged only where what `s` changed
//! leaves it open (the repair contract in [`crate::multifield`] has the
//! argument, and the shadowed atoms the engine skips outright). The tracked
//! state stays keyed by primary atom alone — `loops[C] ∋ α` iff α rides C
//! in *some* class — and events keep their identity-level meaning. The
//! repair runs per update, since the per-update check rides its walk, and
//! a window's repairs fold into one event list as above. A full scan walks
//! every atom from every emitter into an empty monitor
//! (`ViolationMonitor::seeded`), so `tests/multifield_differential.rs`
//! pins state and events, after every operation and every window, against
//! the kernel run from scratch — and that scan against the stateless
//! Veriflow-RI cross product.

use crate::atoms::{AddressOrder, AtomId, AtomMap, DeltaPair, REMAP_DEAD};
use crate::atomset::AtomSet;
use crate::blackholes;
use crate::labels::Labels;
use crate::loops::{self, CycleMap, WalkScratch};
use netmodel::checker::InvariantViolation;
use netmodel::topology::{NodeId, Topology};
use std::collections::BTreeMap;
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

/// The violation-identity transitions of one update or batch window:
/// everything that appeared and everything that resolved, each in ascending
/// [`ViolationKey`] order: what a repair records
/// ([`ViolationMonitor::last_events`], folded across shards by
/// [`crate::ShardedDeltaNet::last_events`]). The daemon pushes them and
/// `deltanet replay --monitor` prints them, so a subscriber stream and an
/// offline replay of the same ops are comparable event for event.
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

    /// Empties both lists, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.appeared.clear();
        self.resolved.clear();
    }

    /// Folds in the transitions that followed these: a key `later` makes
    /// appear cancels that key in `resolved` and otherwise joins `appeared`,
    /// and a key `later` resolves cancels that key in `appeared` and
    /// otherwise joins `resolved`. Both lists stay ascending, and the result
    /// is the diff from before `self` to after `later`.
    pub fn absorb(&mut self, later: MonitorTransitions) {
        fold_keys(&mut self.appeared, &mut self.resolved, later.appeared);
        fold_keys(&mut self.resolved, &mut self.appeared, later.resolved);
    }
}

/// Moves each of `keys` into `into`, ascending, unless `undo` holds it: then
/// the key cancels out of `undo` instead.
fn fold_keys(into: &mut Vec<ViolationKey>, undo: &mut Vec<ViolationKey>, keys: Vec<ViolationKey>) {
    for key in keys {
        if let Ok(at) = undo.binary_search(&key) {
            undo.remove(at);
        } else if let Err(at) = into.binary_search(&key) {
            into.insert(at, key);
        }
    }
}

/// What one per-atom repair scan found: the atom loops on a canonical
/// cycle, or dies at a switch (on a multi-field engine: in at least one
/// secondary class).
pub(crate) enum Found<'a> {
    Cycle(&'a [NodeId]),
    Hole(NodeId),
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
    /// The appeared/resolved transitions of the last window that repaired.
    events: MonitorTransitions,
    /// Whether a repair of the open window wrote `events`, so the window's
    /// next repair folds into them rather than replacing them.
    open: bool,
    /// Repair scratch, reused across repairs: the walk state, and each
    /// `near` switch with whether the atom at hand was tracked there.
    walk: WalkScratch,
    tracked: Vec<(NodeId, bool)>,
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

    /// A monitor holding what `scan` finds for each of `atoms` — the
    /// multi-field full scan ([`crate::multifield::MultiField::scan`]),
    /// whose `scan` walks an atom from every emitter. The seeding itself is
    /// not an update: no events are left behind.
    pub(crate) fn seeded(
        atoms: impl Iterator<Item = AtomId>,
        mut scan: impl FnMut(AtomId, &mut dyn FnMut(Found<'_>)),
    ) -> Self {
        let mut monitor = ViolationMonitor::new();
        let (loops, holes) = (&mut monitor.loops, &mut monitor.holes);
        for atom in atoms {
            scan(atom, &mut |found| {
                match found {
                    Found::Cycle(cycle) => loops::admit(loops, cycle, atom),
                    Found::Hole(node) => loops::admit(holes, &node, atom),
                };
            });
        }
        monitor
    }

    /// The repair over a set of updated switches, for both header shapes
    /// (see the module docs): inherit → retire → re-admit → settle, with the
    /// scan supplied by the caller. First each split's new atom takes its
    /// old atom's tracked cycles and holes, pair by pair in creation order.
    /// Then each of `atoms` is retired from the tracked cycles through any
    /// of `sources` (sorted and distinct) and from the holes at their `near`
    /// switches ([`near`]), and `scan` reports what it violates there now,
    /// given each `near` switch with whether the atom was tracked there.
    /// Transitions are recorded at the identity level: a window's first
    /// repair replaces the last window's events, and its later ones fold
    /// into them ([`MonitorTransitions::absorb`]) until
    /// [`ViolationMonitor::seal`].
    pub(crate) fn repair_at(
        &mut self,
        topology: &Topology,
        splits: &[DeltaPair],
        atoms: &[AtomId],
        sources: &[NodeId],
        mut scan: impl FnMut(AtomId, &[(NodeId, bool)], &mut dyn FnMut(Found<'_>)),
    ) {
        let earlier = std::mem::replace(&mut self.open, true);
        let earlier = earlier.then(|| std::mem::take(&mut self.events));
        self.events.clear();
        for pair in splits {
            for set in self.loops.values_mut().chain(self.holes.values_mut()) {
                if set.contains(pair.old) {
                    set.insert(pair.new);
                }
            }
        }
        if atoms.is_empty() {
            return self.fold_into(earlier);
        }
        near(topology, sources, &mut self.tracked);
        let (mut loops_drained, mut holes_drained) = (false, false);
        // One test per tracked cycle, whatever the number of atoms.
        let through = |cycle: &Vec<NodeId>| cycle.iter().any(|n| sources.binary_search(n).is_ok());
        for (_, set) in self.loops.iter_mut().filter(|(cycle, _)| through(cycle)) {
            for &atom in atoms {
                if set.remove(atom) {
                    loops_drained |= set.is_empty();
                }
            }
        }
        for &atom in atoms {
            for (node, was) in &mut self.tracked {
                let set = self.holes.get_mut(node);
                *was = set.is_some_and(|set| {
                    let was = set.remove(atom);
                    holes_drained |= was && set.is_empty();
                    was
                });
            }
            let (loops, holes) = (&mut self.loops, &mut self.holes);
            let appeared = &mut self.events.appeared;
            scan(atom, &self.tracked, &mut |found| match found {
                Found::Cycle(cycle) => {
                    if loops::admit(loops, cycle, atom) {
                        appeared.push(ViolationKey::Loop(cycle.to_vec()));
                    }
                }
                Found::Hole(node) => {
                    if loops::admit(holes, &node, atom) {
                        appeared.push(ViolationKey::Blackhole(node));
                    }
                }
            });
        }
        let resolved = &mut self.events.resolved;
        settle(&mut self.loops, resolved, loops_drained, |cycle| {
            ViolationKey::Loop(cycle.clone())
        });
        settle(&mut self.holes, resolved, holes_drained, |&node| {
            ViolationKey::Blackhole(node)
        });
        self.events.appeared.sort_unstable();
        self.fold_into(earlier);
    }

    /// Folds the repair's events into its window's `earlier` ones, if any.
    fn fold_into(&mut self, earlier: Option<MonitorTransitions>) {
        if let Some(mut earlier) = earlier {
            earlier.absorb(std::mem::take(&mut self.events));
            self.events = earlier;
        }
    }

    /// Ends a window: its events stand until the next window's first
    /// repair replaces them.
    pub(crate) fn seal(&mut self) {
        self.open = false;
    }

    /// The single-field repair of a window: [`ViolationMonitor::repair_at`]
    /// from the labels, over `atoms` (those whose labels changed) and
    /// `sources` (the switches whose out-links' labels changed), both sorted
    /// and deduplicated in place. A split's new atom is repaired too if its
    /// old atom is — checked in creation order, so a chain A→B→C follows —
    /// and otherwise only inherits. Each atom is walked from every source
    /// with shared marks ([`loops::walks_from`]) and judged by the blackhole
    /// predicate at each `near` switch.
    ///
    /// `labels` are the edge labels after the window. The repair is exact
    /// when each atom's labels differ from those it had before the window
    /// (a split's new atom: its old atom's) only on out-links of `sources`,
    /// and not at all unless the atom is in `atoms` or is a split's new
    /// atom whose old atom is.
    pub(crate) fn repair_labels(
        &mut self,
        topology: &Topology,
        labels: &Labels,
        splits: &[DeltaPair],
        atoms: &mut Vec<AtomId>,
        sources: &mut Vec<NodeId>,
    ) {
        sources.sort_unstable();
        sources.dedup();
        atoms.sort_unstable();
        atoms.dedup();
        let changed = atoms.len();
        for pair in splits {
            let (sorted, joined) = atoms.split_at(changed);
            if sorted.binary_search(&pair.old).is_ok() || joined.contains(&pair.old) {
                atoms.push(pair.new);
            }
        }
        if atoms.len() > changed {
            atoms.sort_unstable();
            atoms.dedup();
        }
        let mut walk = std::mem::take(&mut self.walk);
        self.repair_at(topology, splits, atoms, sources, |atom, near, found| {
            for &(node, _) in near {
                if blackholes::is_blackholed_at(topology, labels, node, atom) {
                    found(Found::Hole(node));
                }
            }
            loops::walks_from(&mut walk, topology, labels, sources, atom, |cycle| {
                found(Found::Cycle(cycle));
            });
        });
        self.walk = walk;
    }

    /// Rewrites every tracked atom through the remap table of a compaction
    /// pass ([`crate::atoms::AtomMap::renumber`]), dropping reclaimed ids.
    /// A reclaimed atom always merged into a live, label-identical
    /// neighbour, so no violation identity can appear or resolve here — the
    /// active set is invariant across compaction (pinned by the
    /// differential suite), and the events, keyed by cycle and switch, stay
    /// as they are.
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
        loops::render_loops(&self.loops, atoms)
    }

    /// The tracked loops any atom of `atoms` rides, each cut to those atoms
    /// and rendered through `order`: what [`loops::find_loops_for_atoms`] on
    /// `atoms` reports, while the monitor tracks the labels. The what-if
    /// query's loops ([`crate::DeltaNet::link_failure_impact`]).
    pub(crate) fn loops_among(
        &self,
        atoms: &AtomSet,
        order: &AddressOrder,
    ) -> Vec<InvariantViolation> {
        self.loops
            .iter()
            .filter(|(_, looping)| looping.intersects(atoms))
            .map(|(cycle, looping)| InvariantViolation::ForwardingLoop {
                nodes: cycle.clone(),
                packets: order.packets_of(looping.iter_common(atoms)),
            })
            .collect()
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

    /// Whether `key` is active: one probe of the loop or blackhole map.
    pub(crate) fn holds(&self, key: &ViolationKey) -> bool {
        match key {
            ViolationKey::Loop(cycle) => self.loops.contains_key(cycle),
            ViolationKey::Blackhole(node) => self.holes.contains_key(node),
        }
    }

    /// The appeared/resolved transitions of the engine's last window that
    /// applied an op (one update is a one-op window), on both header
    /// shapes: exactly the diff of the full scans around it, across any
    /// compaction pass inside it or after it.
    pub fn last_events(&self) -> &MonitorTransitions {
        &self.events
    }

    /// Whether two monitors track the same violation state — same loop
    /// cycles, same blackhole switches, logically equal atom sets (events
    /// are ignored): the comparator of the monitor differentials.
    #[cfg(test)]
    pub(crate) fn state_eq(&self, other: &ViolationMonitor) -> bool {
        self.loops == other.loops && self.holes == other.holes
    }

    /// The tracked loop and blackhole maps, for the tests' comparisons.
    #[cfg(test)]
    pub(crate) fn maps(&self) -> (&CycleMap, &BTreeMap<NodeId, AtomSet>) {
        (&self.loops, &self.holes)
    }
}

/// Fills `near` with the switches whose blackholes updates at `sources`
/// can change — the sources and the far ends of their out-links, drop
/// sinks excepted, ascending — each flagged untracked. The updates change
/// labels only on the sources' out-links, and the predicate at a switch
/// reads only its own links.
fn near(topology: &Topology, sources: &[NodeId], near: &mut Vec<(NodeId, bool)>) {
    near.clear();
    for &source in sources {
        near.push((source, false));
        let ends = topology.out_links(source).iter();
        let ends = ends.map(|&link| topology.link(link).dst);
        near.extend(
            ends.filter(|&n| !topology.is_drop_node(n))
                .map(|n| (n, false)),
        );
    }
    near.sort_unstable();
    near.dedup();
}

/// Closes one phase (loops, then blackholes) of a repair: entries that
/// `drained` and were not refilled are still in `tracked`, empty. Drops
/// those, pushing each onto `resolved` in ascending key order. Loop keys
/// sort before blackhole keys, so the loop phase's resolved identities
/// followed by the blackhole phase's are ascending too; the repair sorts
/// its `appeared` list once at its end.
fn settle<K: Ord>(
    tracked: &mut BTreeMap<K, AtomSet>,
    resolved: &mut Vec<ViolationKey>,
    drained: bool,
    key: impl Fn(&K) -> ViolationKey,
) {
    if !drained {
        return;
    }
    // `retain` visits in ascending key order.
    tracked.retain(|k, set| {
        if set.is_empty() {
            resolved.push(key(k));
        }
        !set.is_empty()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_graph::DeltaGraph;
    use crate::engine::{DeltaNet, DeltaNetConfig};
    use netmodel::checker::{Checker, UpdateReport};
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::LinkId;
    use netmodel::trace::Op;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, HashMap};
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

    fn appeared(key: ViolationKey) -> MonitorTransitions {
        MonitorTransitions {
            appeared: vec![key],
            ..MonitorTransitions::default()
        }
    }

    fn resolved(key: ViolationKey) -> MonitorTransitions {
        MonitorTransitions {
            resolved: vec![key],
            ..MonitorTransitions::default()
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
            .appeared
            .iter()
            .any(|key| matches!(key, ViolationKey::Loop(_))));
        assert!(events.resolved.contains(&ViolationKey::Blackhole(b)));
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
            .resolved
            .iter()
            .any(|key| matches!(key, ViolationKey::Loop(_))));
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
        assert_eq!(monitor.last_events(), &resolved(ViolationKey::Blackhole(b)));
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
        // Churn a narrow rule to create reclaimable bounds.
        net.insert_rule(Rule::forward(RuleId(3), prefix("10.0.0.0/8"), 9, a, ab));
        net.remove_rule(RuleId(3));
        assert!(net.reclaimable_bounds() > 0);
        net.insert_rule(Rule::forward(RuleId(2), prefix("0.0.0.0/0"), 1, b, ba));
        let closed = MonitorTransitions {
            appeared: vec![ViolationKey::Loop(vec![a, b])],
            resolved: vec![ViolationKey::Blackhole(b)],
        };
        assert_eq!(net.monitor().unwrap().last_events(), &closed);
        net.compact();
        // The pass transitions nothing, and the last window's events stand.
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        assert_eq!(monitor.last_events(), &closed);
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
        // The §3.3 aggregation is a window: one repair over the updates of
        // `apply_window`, whose events are the window's net effect.
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        let forward =
            |id, p, source, link| Op::Insert(Rule::forward(RuleId(id), prefix(p), 1, source, link));
        let cycle = ViolationKey::Loop(vec![a, b]);
        let events = window(
            &mut net,
            &[
                // A loop raised and fully retracted inside the window …
                forward(1, "10.0.0.0/8", a, ab),
                forward(2, "10.0.0.0/8", b, ba),
                Op::Remove(RuleId(2)),
                Op::Remove(RuleId(1)),
                // … and a loop still live when the window closes.
                forward(3, "192.0.0.0/8", a, ab),
                forward(4, "192.0.0.0/8", b, ba),
            ],
        );
        assert_eq!(events, appeared(cycle.clone()));

        // Second window — the split-after-membership-change regression: a
        // loop forms on the 10/8 atom *inside* the window, then a later
        // same-link, higher-priority /9 insert splits that atom without
        // touching any label. The split atom's loop membership exists only
        // in the current labels, not in the monitor's pre-window state, so
        // the repair must recompute it (inheriting from the tracked state
        // would silently drop the upper half of the looping packets, which
        // `window` checks against the full scans bit for bit).
        let split = Rule::forward(RuleId(7), prefix("10.0.0.0/9"), 5, a, ab);
        let events = window(
            &mut net,
            &[
                forward(5, "10.0.0.0/8", a, ab),
                forward(6, "10.0.0.0/8", b, ba),
                Op::Insert(split),
            ],
        );
        assert!(
            !net.last_delta().splits.is_empty(),
            "the /9 insert must split the atom"
        );
        // One loop identity: every looping prefix rides the same a->b cycle.
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(net.monitor().unwrap().active_keys(), [cycle]);
    }

    #[test]
    fn absorb_cancels_flaps_and_merges_disjoint_keys_in_order() {
        let cycle = ViolationKey::Loop(vec![NodeId(0), NodeId(1)]);
        let [h1, h3, h5, h7] = [1, 3, 5, 7].map(|n| ViolationKey::Blackhole(NodeId(n)));
        // A flap: what appeared resolves again.
        let mut events = appeared(h3.clone());
        events.absorb(resolved(h3.clone()));
        assert!(events.is_empty(), "{events:?}");
        // A re-appearance: what resolved appears again.
        let mut events = resolved(cycle.clone());
        events.absorb(appeared(cycle.clone()));
        assert!(events.is_empty(), "{events:?}");
        // Disjoint keys join their lists, ascending.
        let mut events = MonitorTransitions {
            appeared: vec![h5.clone()],
            resolved: vec![h1.clone()],
        };
        events.absorb(MonitorTransitions {
            appeared: vec![cycle.clone()],
            resolved: vec![h3.clone()],
        });
        let expect = MonitorTransitions {
            appeared: vec![cycle.clone(), h5.clone()],
            resolved: vec![h1.clone(), h3.clone()],
        };
        assert_eq!(events, expect);
        // Cancellations in both lists beside a new key.
        events.absorb(MonitorTransitions {
            appeared: vec![h3, h7.clone()],
            resolved: vec![cycle, h5],
        });
        let expect = MonitorTransitions {
            appeared: vec![h7],
            resolved: vec![h1],
        };
        assert_eq!(events, expect);
    }

    #[test]
    fn violation_key_display() {
        let key = ViolationKey::Loop(vec![NodeId(0), NodeId(1)]);
        assert_eq!(key.to_string(), "forwarding loop through n0 -> n1");
        let key = ViolationKey::Blackhole(NodeId(3));
        assert_eq!(key.to_string(), "blackhole at n3");
    }

    /// The dense repair the window repair replaced, as the reference for
    /// the differentials below: it snapshots both key sets, turns a
    /// delta-graph (an op's, or a window's label diff) into a bitset over
    /// the atom range, subtracts it from every tracked cycle, recomputes
    /// through the candidate-set scan, and diffs the key sets for the
    /// events.
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
            // inferred from their old atom's tracked membership — in a window
            // the split may have happened after label changes earlier in it,
            // so the tracked (pre-window) membership of the old atom says
            // nothing about the new one.
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
            let before = loops_before.into_iter().map(ViolationKey::Loop);
            let before = before.chain(holes_before.into_iter().map(ViolationKey::Blackhole));
            self.events = diff(&before.collect(), &self.active_keys().into_iter().collect());
        }
    }

    #[test]
    fn drain_and_refill_inside_one_aggregated_delta_fires_no_event() {
        // 10/8 loops a -> b -> a and also enters the cycle from c. A window
        // that withdraws c's rule changes one pair of the cycle's only atom:
        // the repair takes the atom off the cycle (draining the entry) and
        // the re-walk puts it straight back. The identity never went away,
        // so no event may fire.
        let mut topo = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| topo.add_node(name));
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let ca = topo.add_link(c, a);
        let mut net = DeltaNet::new(topo, monitored());
        let p = prefix("10.0.0.0/8");
        let events = window(
            &mut net,
            &[
                Op::Insert(Rule::forward(RuleId(1), p, 1, a, ab)),
                Op::Insert(Rule::forward(RuleId(2), p, 1, b, ba)),
                Op::Insert(Rule::forward(RuleId(3), p, 1, c, ca)),
            ],
        );
        let cycle = ViolationKey::Loop(vec![a, b]);
        assert_eq!(events, appeared(cycle.clone()));
        let events = window(
            &mut net,
            &[
                Op::Remove(RuleId(3)),
                // A flap that nets out inside the window.
                Op::Insert(Rule::forward(RuleId(4), p, 9, c, ca)),
                Op::Remove(RuleId(4)),
            ],
        );
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(net.monitor().unwrap().active_keys(), vec![cycle]);
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
        assert_eq!(monitor.last_events(), &appeared(ViolationKey::Blackhole(b)));
    }

    /// The repair contract's fixtures, on a switch `a` with a drop link and
    /// the cycle b -> c -> b for 10/8 beside it. The updates are all at
    /// `a`; the cycle avoids it.
    fn beside_a_cycle() -> (DeltaNet, [NodeId; 3], LinkId, LinkId) {
        let mut topo = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| topo.add_node(name));
        let ab = topo.add_link(a, b);
        let bc = topo.add_link(b, c);
        let cb = topo.add_link(c, b);
        let drop_a = topo.drop_link(a);
        let mut net = DeltaNet::new(topo, monitored());
        let p = prefix("10.0.0.0/8");
        net.insert_rule(Rule::forward(RuleId(1), p, 1, b, bc));
        net.insert_rule(Rule::forward(RuleId(2), p, 1, c, cb));
        assert_eq!(
            net.monitor().unwrap().active_keys(),
            [ViolationKey::Loop(vec![b, c])]
        );
        (net, [a, b, c], ab, drop_a)
    }

    /// Asserts the update left no transition and the live state equal to
    /// the full scans — whose loop packets cover all of 10/8.
    fn unmoved(net: &DeltaNet) {
        let monitor = net.monitor().unwrap();
        assert!(
            monitor.last_events().is_empty(),
            "{:?}",
            monitor.last_events()
        );
        assert_eq!(net.active_violations().unwrap(), full_scan(net));
        let loops = net.check_all_loops();
        let InvariantViolation::ForwardingLoop { packets, .. } = &loops[0] else {
            panic!("{loops:?}");
        };
        let p = prefix("10.0.0.0/8");
        assert_eq!(packets, &[p.interval()]);
    }

    #[test]
    fn a_cycle_avoiding_the_updated_switch_keeps_the_atom_rerouted_there() {
        // a feeds 10/8 into the cycle, then drops it instead: the atom's
        // pair a -> b goes, yet it still rides b -> c -> b, which no label
        // of a's out-links decides.
        let (mut net, [a, ..], ab, drop_a) = beside_a_cycle();
        let p = prefix("10.0.0.0/8");
        net.insert_rule(Rule::forward(RuleId(3), p, 1, a, ab));
        let report = net.insert_rule(Rule::drop(RuleId(4), p, 5, a, drop_a));
        assert_eq!(report.changed_links.len(), 2, "the atom moved at a");
        assert!(report.violations.is_empty());
        unmoved(&net);
    }

    #[test]
    fn a_split_atom_keeps_its_old_atoms_loop_elsewhere() {
        // Drops at a split the looping atom without touching the cycle's
        // labels: first an upper split, whose new atom lies outside the
        // rule and is only inherited, then a lower split, whose new atom is
        // inside it and is repaired at a after inheriting.
        let (mut net, [a, ..], _, drop_a) = beside_a_cycle();
        net.insert_rule(Rule::drop(RuleId(3), prefix("10.0.0.0/9"), 1, a, drop_a));
        assert_eq!(net.last_delta().splits.len(), 1);
        unmoved(&net);
        net.insert_rule(Rule::drop(RuleId(4), prefix("10.192.0.0/10"), 1, a, drop_a));
        assert_eq!(net.last_delta().splits.len(), 1);
        unmoved(&net);
    }

    #[test]
    fn a_chained_split_inherits_from_atom_to_atom() {
        // A /10 strictly inside the looping /8 splits twice: A -> B at its
        // low bound, then B -> C at its high one. C's loop comes from B,
        // which had it only from A a moment before.
        let (mut net, [a, ..], _, drop_a) = beside_a_cycle();
        net.insert_rule(Rule::drop(RuleId(3), prefix("10.64.0.0/10"), 1, a, drop_a));
        let splits = &net.last_delta().splits;
        assert_eq!(splits.len(), 2);
        assert_eq!(
            splits[1].old, splits[0].new,
            "the second split splits the first's atom"
        );
        unmoved(&net);
    }

    #[test]
    fn a_hole_fed_by_another_in_neighbour_outlives_the_updated_switchs_feed() {
        // s and m both send 10/8 to n, which has no rule for it. s stops:
        // n still receives the atom from m, so the hole stays.
        let mut topo = Topology::new();
        let [s, m, n] = ["s", "m", "n"].map(|name| topo.add_node(name));
        let sn = topo.add_link(s, n);
        let mn = topo.add_link(m, n);
        let mut net = DeltaNet::new(topo, monitored());
        let p = prefix("10.0.0.0/8");
        net.insert_rule(Rule::forward(RuleId(1), p, 1, s, sn));
        net.insert_rule(Rule::forward(RuleId(2), p, 1, m, mn));
        let hole = [ViolationKey::Blackhole(n)];
        assert_eq!(net.monitor().unwrap().active_keys(), hole);
        net.remove_rule(RuleId(1));
        let monitor = net.monitor().unwrap();
        assert!(
            monitor.last_events().is_empty(),
            "{:?}",
            monitor.last_events()
        );
        assert_eq!(monitor.active_keys(), hole);
        assert_eq!(net.active_violations().unwrap(), full_scan(&net));
    }

    /// The identities a full scan of `net` finds.
    fn scan_keys(net: &DeltaNet) -> BTreeSet<ViolationKey> {
        net.fresh_monitor().active_keys().into_iter().collect()
    }

    /// The transitions from the identities `before` to those `after`.
    fn diff(before: &BTreeSet<ViolationKey>, after: &BTreeSet<ViolationKey>) -> MonitorTransitions {
        MonitorTransitions {
            appeared: after.difference(before).cloned().collect(),
            resolved: before.difference(after).cloned().collect(),
        }
    }

    /// Applies `ops` as one window of `net`, which takes them all, and
    /// asserts the live state equals the full scans after it and the
    /// window's events are the diff of the scans around it; returns them.
    fn window(net: &mut DeltaNet, ops: &[Op]) -> MonitorTransitions {
        let scanned = scan_keys(net);
        let (reports, failure) = net.apply_window(ops);
        assert_eq!((reports.len(), failure), (ops.len(), None));
        assert_eq!(net.active_violations().unwrap(), full_scan(net));
        let events = net.monitor().unwrap().last_events().clone();
        assert_eq!(events, diff(&scanned, &scan_keys(net)));
        events
    }

    #[test]
    fn a_split_of_an_atom_changed_earlier_in_the_window_is_repaired() {
        // a starts sending 10/8 to b, which has no rule for it; then a
        // lower rule for 10.128/9 splits the atom without moving it. The
        // new atom's old atom changed earlier in the window, so it is
        // repaired too — inheriting alone would give it the old atom's
        // pre-window state, and the hole would cover only 10.0/9.
        let mut topo = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| topo.add_node(name));
        let ab = topo.add_link(a, b);
        let ac = topo.add_link(a, c);
        let mut net = DeltaNet::new(topo, monitored());
        let events = window(
            &mut net,
            &[
                Op::Insert(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 5, a, ab)),
                Op::Insert(Rule::forward(RuleId(2), prefix("10.128.0.0/9"), 1, a, ac)),
            ],
        );
        assert!(net.last_delta().is_empty() && !net.last_delta().splits.is_empty());
        assert_eq!(events, appeared(ViolationKey::Blackhole(b)));
    }

    #[test]
    fn a_cycle_through_two_sources_of_a_window_is_retired_at_either() {
        // 10/8 loops a -> b -> a. One window drops it at a and also
        // updates b and c, the window's highest source, which the cycle
        // avoids: the cycle runs through a and b, so the atom is retired
        // from it and the loop resolves.
        let mut topo = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| topo.add_node(name));
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let ca = topo.add_link(c, a);
        let drop_a = topo.drop_link(a);
        let mut net = DeltaNet::new(topo, monitored());
        let p = prefix("10.0.0.0/8");
        net.insert_rule(Rule::forward(RuleId(1), p, 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), p, 1, b, ba));
        assert_eq!(
            scan_keys(&net),
            BTreeSet::from([ViolationKey::Loop(vec![a, b])])
        );
        let events = window(
            &mut net,
            &[
                Op::Insert(Rule::drop(RuleId(3), p, 5, a, drop_a)),
                Op::Insert(Rule::forward(RuleId(4), prefix("192.0.0.0/8"), 1, b, ba)),
                Op::Insert(Rule::forward(RuleId(5), prefix("172.0.0.0/8"), 1, c, ca)),
            ],
        );
        let expect = MonitorTransitions {
            appeared: vec![ViolationKey::Blackhole(a)],
            resolved: vec![ViolationKey::Loop(vec![a, b])],
        };
        assert_eq!(events, expect);
    }

    #[test]
    fn a_hole_past_one_source_that_another_source_feeds_is_judged() {
        // In one window t starts sending 10/8 to s, and s sends it on to
        // n, which has no rule for it. n is an out-neighbour of s only —
        // not of t, the window's highest source — and the hole there is
        // judged all the same.
        let mut topo = Topology::new();
        let [s, n, t] = ["s", "n", "t"].map(|name| topo.add_node(name));
        let sn = topo.add_link(s, n);
        let ts = topo.add_link(t, s);
        let mut net = DeltaNet::new(topo, monitored());
        let p = prefix("10.0.0.0/8");
        let events = window(
            &mut net,
            &[
                Op::Insert(Rule::forward(RuleId(1), p, 1, s, sn)),
                Op::Insert(Rule::forward(RuleId(2), p, 1, t, ts)),
            ],
        );
        assert_eq!(events, appeared(ViolationKey::Blackhole(n)));
    }

    #[test]
    fn a_flap_inside_one_window_fires_no_events() {
        // b sends 10/8 to a, which has no rule for it. Inside one window a
        // closes the loop (resolving the hole), a second prefix joins the
        // loop and leaves it, dying at a on the way out, and a opens the
        // loop again: every transition is undone before the window closes
        // (the last op alone would resolve the loop and raise the hole),
        // so nothing fires.
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        let p = prefix("10.0.0.0/8");
        net.insert_rule(Rule::forward(RuleId(1), p, 1, b, ba));
        let hole = ViolationKey::Blackhole(a);
        assert_eq!(
            net.monitor().unwrap().active_keys(),
            std::slice::from_ref(&hole)
        );
        let closer = Rule::forward(RuleId(2), p, 1, a, ab);
        let q = prefix("192.0.0.0/8");
        let events = window(
            &mut net,
            &[
                Op::Insert(closer),
                Op::Insert(Rule::forward(RuleId(3), q, 1, a, ab)),
                Op::Insert(Rule::forward(RuleId(4), q, 1, b, ba)),
                Op::Remove(RuleId(3)),
                Op::Remove(RuleId(4)),
                Op::Remove(closer.id),
            ],
        );
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(net.monitor().unwrap().active_keys(), [hole]);
    }

    #[test]
    fn an_aggregate_split_beside_a_cancelled_pair_is_repaired_from_its_labels() {
        // a sends 10/8 to b (no rule there); a higher rule on the same link
        // for 10.128/9 splits the atom without moving it; the first rule
        // goes. The 10/8 atom's pair came and went inside the window, but
        // the split's new atom still rides a -> b and dies at b: its old
        // atom changed in the window, so it is repaired from its labels.
        let mut topo = Topology::new();
        let [a, b] = ["a", "b"].map(|name| topo.add_node(name));
        let ab = topo.add_link(a, b);
        let mut net = DeltaNet::new(topo, monitored());
        let events = window(
            &mut net,
            &[
                Op::Insert(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab)),
                Op::Insert(Rule::forward(RuleId(2), prefix("10.128.0.0/9"), 5, a, ab)),
                Op::Remove(RuleId(1)),
            ],
        );
        assert_eq!(events, appeared(ViolationKey::Blackhole(b)));
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
        // The engine's own monitor is the repair under test: each op is a
        // one-op window, repaired at its close at the updated switch
        // (splits included), remapped by explicit and threshold-triggered
        // compaction. The reference starts every op as a clone of it and
        // is fed the op's delta-graph, so it needs no remap of its own.
        // Each shard engine also has an unmonitored twin fed the same op:
        // the monitored engine's per-update check must report exactly what
        // the twin's does.
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
                let unmonitored = DeltaNetConfig {
                    monitor_violations: false,
                    ..config
                };
                let mut twins = shard_engines(&topo, unmonitored, shards);
                let mut gen = OpGen::new(8, 40, 0.35);
                let (mut compared, mut looping) = (0, 0);
                for step in 0..200 {
                    let Some(op) = gen.next_op(&mut rng, &topo) else {
                        continue;
                    };
                    for i in routed(&engines, &op) {
                        let net = &mut engines[i];
                        let mut reference = net.monitor().unwrap().clone();
                        let passes = net.compactions();
                        let report = net.try_apply(&op).expect("a routed op applies");
                        let at = format!("{shards} shards, seed {seed}, step {step}, shard {i}");
                        let twin = twins[i].try_apply(&op).expect("the twin applies it too");
                        assert_eq!(report.violations, twin.violations, "{at}");
                        assert_eq!(report.affected_classes, twin.affected_classes, "{at}");
                        assert_eq!(report.changed_links, twin.changed_links, "{at}");
                        looping += usize::from(report.has_loop());
                        let monitor = net.monitor().unwrap();
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
                        for twin in &mut twins {
                            twin.compact();
                        }
                    }
                }
                assert!(compared > 100, "only {compared} ops compared");
                assert!(looping > 0, "no op reported a loop");
            }
        }
    }

    /// The net label change of a window on `net`, as a delta-graph for
    /// [`ViolationMonitor::reference_repair`]: every `(link, atom)` pair the
    /// labels gained or lost against `before`, and every atom not in
    /// `atoms_before` as a split, so the reference recomputes it.
    fn label_diff(net: &DeltaNet, before: &Labels, atoms_before: &AtomSet) -> DeltaGraph {
        let mut delta = DeltaGraph::new();
        for link in net.topology().links() {
            let (was, now) = (before.get(link.id), net.labels().get(link.id));
            now.difference(was)
                .iter()
                .for_each(|atom| delta.add(link.id, atom));
            was.difference(now)
                .iter()
                .for_each(|atom| delta.remove(link.id, atom));
        }
        for (atom, _) in net.atoms().iter() {
            if !atoms_before.contains(atom) {
                delta.split(DeltaPair {
                    old: atom,
                    new: atom,
                });
            }
        }
        delta
    }

    /// Applies `ops` as one window of `net`, which takes them all. The
    /// state after it must equal the full scans and the events their diff
    /// around it; unless a compaction pass renumbered the atoms inside it,
    /// both must also equal the dense reference's, fed the window's label
    /// diff. Returns the reports, the number of events and whether the
    /// reference compared.
    fn reference_window(
        net: &mut DeltaNet,
        ops: &[Op],
        at: &str,
    ) -> (Vec<UpdateReport>, usize, bool) {
        let mut reference = net.monitor().unwrap().clone();
        let before = net.labels().clone();
        let atoms_before: AtomSet = net.atoms().iter().map(|(atom, _)| atom).collect();
        let scanned = scan_keys(net);
        let passes = net.compactions();
        let (reports, failure) = net.apply_window(ops);
        assert_eq!((reports.len(), failure), (ops.len(), None), "{at}");
        let monitor = net.monitor().unwrap();
        assert_eq!(
            monitor.active_violations(net.atoms()),
            full_scan(net),
            "{at}"
        );
        let events = monitor.last_events();
        assert_eq!(events, &diff(&scanned, &scan_keys(net)), "{at}");
        let compared = net.compactions() == passes;
        if compared {
            let delta = label_diff(net, &before, &atoms_before);
            reference.reference_repair(net.topology(), net.labels(), &delta);
            assert!(monitor.state_eq(&reference), "{at}");
            assert_eq!(events, reference.last_events(), "{at}");
        }
        (reports, events.len(), compared)
    }

    /// Draws up to `len` ops and groups them by the engines they concern:
    /// an insert by [`routed`], a removal by the engines its rule went to
    /// (`homes`).
    fn routed_window(
        rng: &mut StdRng,
        gen: &mut OpGen,
        topo: &Topology,
        engines: &[DeltaNet],
        homes: &mut HashMap<RuleId, Vec<usize>>,
        len: usize,
    ) -> Vec<Vec<Op>> {
        let mut groups = vec![Vec::new(); engines.len()];
        for _ in 0..len {
            let Some(op) = gen.next_op(rng, topo) else {
                continue;
            };
            let home = match op {
                Op::Insert(rule) => {
                    let home = routed(engines, &op);
                    homes.insert(rule.id, home.clone());
                    home
                }
                Op::Remove(id) => homes.remove(&id).expect("a live rule"),
            };
            for i in home {
                groups[i].push(op);
            }
        }
        groups
    }

    #[test]
    fn window_repair_matches_dense_reference_in_state_and_events() {
        // The windowed twin of the differential above: each shard engine
        // applies its routed share of a seeded window of 1–16 ops as one
        // window, and its monitor is repaired once, at the close. After
        // every window the state must equal the full scans and the events
        // their diff, also when the threshold compacts mid-window (odd
        // seeds); a window no pass renumbered must also equal the dense
        // reference in state and events. Every op's report must equal an
        // unmonitored twin's.
        for shards in SHARD_COUNTS {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(0x15_0003 ^ (shards as u64) << 8 ^ seed);
                let topo = random_topology(&mut rng, 5, true);
                let config = DeltaNetConfig {
                    field_width: 8,
                    compact_threshold: (seed % 2 == 1).then_some(3),
                    ..monitored()
                };
                let mut engines = shard_engines(&topo, config, shards);
                let unmonitored = DeltaNetConfig {
                    monitor_violations: false,
                    ..config
                };
                let mut twins = shard_engines(&topo, unmonitored, shards);
                let mut gen = OpGen::new(8, 40, 0.35);
                // The engines each live rule was routed to.
                let mut homes = HashMap::new();
                let (mut compared, mut transitions) = (0, 0);
                for window in 0..60 {
                    let len = rng.gen_range(1..=16);
                    let groups =
                        routed_window(&mut rng, &mut gen, &topo, &engines, &mut homes, len);
                    for (i, ops) in groups.iter().enumerate() {
                        if ops.is_empty() {
                            continue;
                        }
                        let at =
                            format!("{shards} shards, seed {seed}, window {window}, shard {i}");
                        let (expected, failure) = twins[i].apply_window(ops);
                        assert_eq!(failure, None, "{at}");
                        let (reports, events, matched) =
                            reference_window(&mut engines[i], ops, &at);
                        for (report, twin) in reports.iter().zip(&expected) {
                            assert_eq!(report.violations, twin.violations, "{at}");
                            assert_eq!(report.affected_classes, twin.affected_classes, "{at}");
                            assert_eq!(report.changed_links, twin.changed_links, "{at}");
                        }
                        transitions += events;
                        compared += usize::from(matched);
                    }
                    if window == 20 {
                        for net in engines.iter_mut().chain(&mut twins) {
                            net.compact();
                        }
                        for net in &engines {
                            assert_eq!(net.active_violations().unwrap(), full_scan(net));
                        }
                    }
                }
                assert!(compared > 20, "{compared} compared");
                assert!(transitions > 0, "no window transitioned an identity");
            }
        }
    }

    #[test]
    fn aggregated_window_repair_matches_dense_reference_across_compaction() {
        // Windows of 1, 2, 5 or 9 ops — splits after label changes, flaps
        // that net out — on monitored shard engines whose threshold
        // compacts inside some of them, with an explicit `compact()` after
        // others, which must leave the window's events as they were. Each
        // window's state and events equal the full scans' and, where no
        // pass ran inside it, the dense reference's.
        for shards in SHARD_COUNTS {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(0x15_0002 ^ (shards as u64) << 8 ^ seed);
                let topo = random_topology(&mut rng, 5, true);
                let config = DeltaNetConfig {
                    field_width: 8,
                    compact_threshold: Some(3),
                    ..monitored()
                };
                let mut engines = shard_engines(&topo, config, shards);
                let mut gen = OpGen::new(8, 40, 0.35);
                let mut homes = HashMap::new();
                let (mut compared, mut transitions) = (0, 0);
                for window in 0..60 {
                    let len = [1, 2, 5, 9][rng.gen_range(0..4)];
                    let groups =
                        routed_window(&mut rng, &mut gen, &topo, &engines, &mut homes, len);
                    for (i, ops) in groups.iter().enumerate() {
                        if ops.is_empty() {
                            continue;
                        }
                        let net = &mut engines[i];
                        let at =
                            format!("{shards} shards, seed {seed}, window {window}, shard {i}");
                        let (_, events, matched) = reference_window(net, ops, &at);
                        transitions += events;
                        compared += usize::from(matched);
                        if window % 7 == 3 {
                            let events = net.monitor().unwrap().last_events().clone();
                            net.compact();
                            let monitor = net.monitor().unwrap();
                            assert_eq!(monitor.last_events(), &events, "{at}");
                            assert_eq!(
                                monitor.active_violations(net.atoms()),
                                full_scan(net),
                                "{at}"
                            );
                        }
                    }
                }
                assert!(compared > 20, "{compared} compared");
                assert!(transitions > 0, "the trace never transitioned an identity");
            }
        }
    }
}

//! Forwarding-loop detection on the edge-labelled graph.
//!
//! Per atom, forwarding is deterministic: at any switch, at most one
//! outgoing link carries a given atom (the link of the rule that owns the
//! atom there), so the α-restricted graph is a functional graph and loop
//! detection is a successor walk. Every walk in this module — the
//! per-update check, the monitor repair, the what-if scan and the full
//! audits — is the one routine [`WalkScratch::walk`], which keeps its
//! visited marks, path positions and path in generation-stamped vectors of
//! node-count length and so allocates nothing per walk or per atom. Three
//! callers differ in where their walks start and in how a step finds its
//! next hop ([`Hop`]):
//!
//! * [`find_loops_from_seeds`] — the per-update check (§4.3.1 "find in the
//!   delta-graph all forwarding loops"): one walk per `(link, atom)` pair
//!   the update added. Cost: Σ walk length over the delta's added pairs.
//! * [`cycles_for_atoms`] — a dense candidate set (the what-if query of
//!   §4.3.2, the full audits, seeding a monitor): the kernel goes atom by
//!   atom. For each non-zero candidate word it reads every labelled link's
//!   word once, scatters the hits by bit, and fills each atom's next-hop
//!   table from them, so each walk step is one table read and the atom's
//!   walks share visited marks. Cost: O(links · candidate words + Σ
//!   per-atom hits + Σ walk length), with no sort.
//! * [`cycles_for_atom_list`] — a short explicit atom list (the monitor
//!   repair): one `contains` probe per link finds an atom's emitters. Cost:
//!   O(|atoms| · (links + walk length)), independent of the atom count.
//!
//! Detected loops are reported as [`InvariantViolation::ForwardingLoop`]
//! with the cycle's nodes and the affected destination addresses as
//! normalized intervals, so users never see raw atom identifiers.

use crate::atoms::{AtomId, AtomMap};
use crate::atomset::AtomSet;
use crate::labels::Labels;
use netmodel::checker::InvariantViolation;
use netmodel::interval::normalize;
use netmodel::topology::{LinkId, NodeId, Topology};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A cycle → atoms map: every canonical node cycle with the atoms looping
/// through it. The [`crate::monitor::ViolationMonitor`] keeps exactly this
/// shape as live state, so a differential test reduces to map equality.
pub(crate) type CycleMap = BTreeMap<Vec<NodeId>, AtomSet>;

/// The unique link carrying `atom` out of `node`, if any.
pub fn successor(
    topology: &Topology,
    labels: &Labels,
    node: NodeId,
    atom: AtomId,
) -> Option<LinkId> {
    topology
        .out_links(node)
        .iter()
        .copied()
        .find(|&l| labels.contains(l, atom))
}

/// Where a walk step reads the current atom's next hop.
#[derive(Clone, Copy)]
enum Hop<'a> {
    /// Probes the node's out-links' labels ([`successor`]).
    Probe(&'a Labels, AtomId),
    /// Reads the next-hop table [`WalkScratch::set_hop`] filled.
    Table,
}

/// Reusable state of the successor walk, owned by whoever walks repeatedly
/// ([`crate::DeltaNet`] for the per-update check, the
/// [`crate::monitor::ViolationMonitor`] for its repair) so the steady state
/// allocates nothing. Marks are generation stamps: every walk takes the
/// next stamp, and the walks of one atom are the stamps above `floor` — so
/// starting a walk or an atom is a counter bump, never an O(nodes) clear.
/// The next-hop table is stamped the same way, per atom.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkScratch {
    /// `stamp[n]`: the last walk that visited node `n`. Equal to `walk`:
    /// `n` is on the current path; in `(floor, walk)`: an earlier walk of
    /// the same atom explored `n`; otherwise unvisited.
    stamp: Vec<u32>,
    /// `pos[n]`: index of `n` in `path`, valid where `stamp[n] == walk`.
    pos: Vec<u32>,
    /// The current walk's path (at most one entry per node).
    path: Vec<NodeId>,
    floor: u32,
    walk: u32,
    /// `hop[n]`: the link carrying the current atom out of `n`, valid where
    /// `hop_stamp[n] == atom`.
    hop: Vec<LinkId>,
    hop_stamp: Vec<u32>,
    /// The current atom's generation, bumped by every `begin_atom`.
    atom: u32,
}

impl WalkScratch {
    /// Starts the walks of a new atom on a topology of `nodes` nodes:
    /// forgets the previous atom's visited marks and next hops and, the
    /// first time (or if the topology grew), sizes the vectors.
    fn begin_atom(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.pos.resize(nodes, 0);
            self.hop.resize(nodes, LinkId(0));
            self.hop_stamp.resize(nodes, 0);
            self.path.reserve(nodes);
        }
        self.floor = self.walk;
        if self.atom == u32::MAX {
            // Generation wrap-around, as in `walk`: forget every next hop.
            self.hop_stamp.fill(0);
            self.atom = 0;
        }
        self.atom += 1;
    }

    /// Records that `link` carries the current atom out of `node`, unless
    /// an earlier link did: fed in out-link order, the table keeps the link
    /// [`successor`] picks.
    fn set_hop(&mut self, node: NodeId, link: LinkId) {
        let i = node.index();
        if self.hop_stamp[i] != self.atom {
            self.hop_stamp[i] = self.atom;
            self.hop[i] = link;
        }
    }

    /// Follows the next hops `hop` names from `start` until the walk leaves
    /// the network (no successor, or a drop node), joins a node an earlier
    /// walk of the same atom explored (whatever cycle lies beyond was found
    /// then), or revisits its own path — in which case the cycle is
    /// returned in canonical rotation ([`rotate_to_canonical`]).
    fn walk(&mut self, topology: &Topology, start: NodeId, hop: Hop) -> Option<&[NodeId]> {
        if self.walk == u32::MAX {
            // Stamp wrap-around: forget everything. Mid-atom this only
            // costs re-exploring nodes; recording a cycle is idempotent.
            self.stamp.fill(0);
            self.floor = 0;
            self.walk = 0;
        }
        self.walk += 1;
        self.path.clear();
        let mut cur = start;
        loop {
            let i = cur.index();
            let seen = self.stamp[i];
            if seen == self.walk {
                let cycle = &mut self.path[self.pos[i] as usize..];
                rotate_to_canonical(cycle);
                return Some(cycle);
            }
            if seen > self.floor {
                return None;
            }
            self.stamp[i] = self.walk;
            self.pos[i] = self.path.len() as u32;
            self.path.push(cur);
            let link = match hop {
                Hop::Probe(labels, atom) => successor(topology, labels, cur, atom),
                Hop::Table => (self.hop_stamp[i] == self.atom).then(|| self.hop[i]),
            };
            let next = topology.link(link?).dst;
            if topology.is_drop_node(next) {
                return None;
            }
            cur = next;
        }
    }
}

/// Rotates a cycle so its smallest node comes first: identical cycles
/// discovered from different starts then compare equal.
pub(crate) fn rotate_to_canonical(cycle: &mut [NodeId]) {
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, n)| **n)
        .map_or(0, |(i, _)| i);
    cycle.rotate_left(min_pos);
}

/// Records that `atom` belongs to the violation identified by `key` (a
/// canonical cycle; for the monitor also a blackhole switch); returns
/// whether the identity was absent from the map. Looks the key up in
/// borrowed form, so only a new identity allocates.
pub(crate) fn admit<K, Q>(tracked: &mut BTreeMap<K, AtomSet>, key: &Q, atom: AtomId) -> bool
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
{
    match tracked.get_mut(key) {
        Some(set) => {
            set.insert(atom);
            false
        }
        None => {
            tracked.insert(key.to_owned(), AtomSet::from_iter([atom]));
            true
        }
    }
}

/// Finds forwarding loops reachable from the given `(link, atom)` seeds —
/// the per-update check run on a delta-graph.
///
/// Only label *additions* need to be seeded: removing an atom from a label
/// can break loops but never create one.
pub fn find_loops_from_seeds(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    seeds: &[(LinkId, AtomId)],
) -> Vec<InvariantViolation> {
    find_loops_from_seeds_in(&mut WalkScratch::default(), topology, labels, atoms, seeds)
}

/// [`find_loops_from_seeds`] on a caller-owned scratch: with a warm scratch
/// a loop-free update allocates nothing.
pub(crate) fn find_loops_from_seeds_in(
    scratch: &mut WalkScratch,
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    seeds: &[(LinkId, AtomId)],
) -> Vec<InvariantViolation> {
    let mut cycles = CycleMap::new();
    for &(link, atom) in seeds {
        if !labels.contains(link, atom) {
            // The seed may have been superseded by a later change in an
            // aggregated delta-graph.
            continue;
        }
        scratch.begin_atom(topology.node_count());
        let start = topology.link(link).src;
        if let Some(cycle) = scratch.walk(topology, start, Hop::Probe(labels, atom)) {
            admit(&mut cycles, cycle, atom);
        }
    }
    into_violations(cycles, atoms)
}

/// Finds all forwarding loops that involve any of the given atoms anywhere
/// in the network — used by the what-if link-failure query (§4.3.2) and the
/// full-data-plane audits in the tests.
pub fn find_loops_for_atoms(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    candidates: &AtomSet,
) -> Vec<InvariantViolation> {
    into_violations(cycles_for_atoms(topology, labels, candidates), atoms)
}

/// The cycle-level core of [`find_loops_for_atoms`]: every forwarding cycle
/// any candidate atom traverses.
pub(crate) fn cycles_for_atoms(
    topology: &Topology,
    labels: &Labels,
    candidates: &AtomSet,
) -> CycleMap {
    cycles_for_atoms_in(&mut WalkScratch::default(), topology, labels, candidates)
}

/// [`cycles_for_atoms`] on a caller-owned scratch. Set-at-a-time over each
/// 64-atom candidate word: one pass over the labelled links gathers the
/// links carrying some of its candidates, a scatter by bit lists each
/// atom's emitters in out-link order (in 64 rows of at most one entry per
/// labelled link), and each atom's walks then read its next-hop table.
fn cycles_for_atoms_in(
    scratch: &mut WalkScratch,
    topology: &Topology,
    labels: &Labels,
    candidates: &AtomSet,
) -> CycleMap {
    // Every labelled link with its source and label words, switch by switch
    // in out-link order. Labels drop trailing zero words: a word past the
    // end reads as 0.
    let mut labelled: Vec<(NodeId, LinkId, &[u64])> = Vec::new();
    for node in topology.nodes() {
        for &link in topology.out_links(node) {
            let words = labels.get(link).words();
            if !words.is_empty() {
                labelled.push((node, link, words));
            }
        }
    }
    let mut cycles = CycleMap::new();
    let mut hits: Vec<(NodeId, LinkId, u64)> = Vec::new();
    let mut slots: Vec<(NodeId, LinkId)> = Vec::new();
    for (w, &cand) in candidates.words().iter().enumerate() {
        if cand == 0 {
            continue;
        }
        hits.clear();
        let mut carried = 0;
        for &(node, link, words) in &labelled {
            let mask = words.get(w).map_or(0, |&word| word & cand);
            if mask != 0 {
                hits.push((node, link, mask));
                carried |= mask;
            }
        }
        // Scatter by bit: bit `b`'s emitters are the first `count[b]`
        // entries of the `b`-th row of `slots`, in out-link order. The rows
        // only grow, so `slots` is filled once per call, not per word.
        let row = hits.len();
        if slots.len() < 64 * row {
            slots.resize(64 * row, (NodeId(0), LinkId(0)));
        }
        let mut count = [0; 64];
        for &(node, link, mask) in &hits {
            for b in bits(mask) {
                slots[b * row + count[b]] = (node, link);
                count[b] += 1;
            }
        }
        for b in bits(carried) {
            let atom = AtomId((w * 64 + b) as u32);
            let emitters = &slots[b * row..][..count[b]];
            scratch.begin_atom(topology.node_count());
            for &(node, link) in emitters {
                scratch.set_hop(node, link);
            }
            for &(node, _) in emitters {
                if let Some(cycle) = scratch.walk(topology, node, Hop::Table) {
                    admit(&mut cycles, cycle, atom);
                }
            }
        }
    }
    cycles
}

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Every forwarding cycle each atom of a short explicit list traverses,
/// handed to `found` as `(canonical cycle, atom)` — the monitor repair's
/// entry point. An atom's emitters come from one `contains` probe per link,
/// so the cost depends on the list and the topology, not the atom count.
pub(crate) fn cycles_for_atom_list(
    scratch: &mut WalkScratch,
    topology: &Topology,
    labels: &Labels,
    atoms: &[AtomId],
    mut found: impl FnMut(&[NodeId], AtomId),
) {
    for &atom in atoms {
        scratch.begin_atom(topology.node_count());
        for link in topology.links() {
            if !labels.contains(link.id, atom) {
                continue;
            }
            if let Some(cycle) = scratch.walk(topology, link.src, Hop::Probe(labels, atom)) {
                found(cycle, atom);
            }
        }
    }
}

/// Checks the entire data plane for forwarding loops over all atoms.
pub fn find_all_loops(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let all: AtomSet = atoms.iter().map(|(a, _)| a).collect();
    find_loops_for_atoms(topology, labels, atoms, &all)
}

/// Renders a cycle → atoms map as sorted [`InvariantViolation`]s — shared by
/// the full scans and the monitor so their reports are bit-identical.
pub(crate) fn into_violations(
    cycles: impl IntoIterator<Item = (Vec<NodeId>, AtomSet)>,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let mut out: Vec<InvariantViolation> = cycles
        .into_iter()
        .map(|(nodes, atom_set)| {
            let intervals = normalize(
                atom_set
                    .iter()
                    .map(|a| atoms.atom_interval(a))
                    .collect::<Vec<_>>(),
            );
            InvariantViolation::ForwardingLoop {
                nodes,
                packets: intervals,
            }
        })
        .collect();
    // Deterministic order for reporting and tests.
    out.sort_by_cached_key(|v| format!("{v:?}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::interval::Interval;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The emitter-sort kernel [`cycles_for_atoms`] replaced, kept as its
    /// reference: one word-wise pass lists every `(atom, source)` pair of
    /// `label ∩ candidates`, the list is sorted by atom, and each walk step
    /// probes the labels ([`successor`]).
    fn reference_cycles_for_atoms(
        topology: &Topology,
        labels: &Labels,
        candidates: &AtomSet,
    ) -> CycleMap {
        let mut emitters: Vec<(AtomId, NodeId)> = Vec::new();
        for (link, label) in labels.iter() {
            let src = topology.link(link).src;
            emitters.extend(label.iter_common(candidates).map(|atom| (atom, src)));
        }
        emitters.sort_unstable();
        let mut cycles = CycleMap::new();
        let mut scratch = WalkScratch::default();
        let mut current = None;
        for &(atom, start) in &emitters {
            if current != Some(atom) {
                scratch.begin_atom(topology.node_count());
                current = Some(atom);
            }
            if let Some(cycle) = scratch.walk(topology, start, Hop::Probe(labels, atom)) {
                admit(&mut cycles, cycle, atom);
            }
        }
        cycles
    }

    /// Random labels over `atoms` atoms on a random topology with drop
    /// links. Each link carries each atom with probability `p`, so a switch
    /// often emits one atom on several links: the kernels must then agree
    /// on [`successor`]'s pick, the first in out-link order.
    fn random_plane(rng: &mut StdRng, nodes: usize, atoms: u32, p: f64) -> (Topology, Labels) {
        let topo = testutil::random_topology(rng, nodes, true);
        let mut labels = Labels::new();
        for link in topo.links() {
            for atom in 0..atoms {
                if rng.gen_bool(p) {
                    labels.insert(link.id, AtomId(atom));
                }
            }
        }
        (topo, labels)
    }

    /// Builds a 3-node topology with a loop s0 -> s1 -> s2 -> s0 for atom 0
    /// and a loop-free path for atom 1.
    fn looped_setup() -> (Topology, Labels, AtomMap) {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l12 = topo.add_link(n[1], n[2]);
        let l20 = topo.add_link(n[2], n[0]);

        let mut atoms = AtomMap::new(8);
        // atom for [0:16) and the remainder atom.
        atoms.create_atoms(Interval::new(0, 16));
        let a0 = atoms.atom_of_value(0);
        let a1 = atoms.atom_of_value(200);

        let mut labels = Labels::new();
        labels.insert(l01, a0);
        labels.insert(l12, a0);
        labels.insert(l20, a0);
        // Atom a1 flows s0 -> s1 -> s2 and stops.
        labels.insert(l01, a1);
        labels.insert(l12, a1);
        (topo, labels, atoms)
    }

    #[test]
    fn successor_finds_unique_link() {
        let (topo, labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let n0 = topo.node_by_name("s0").unwrap();
        let s = successor(&topo, &labels, n0, a0).unwrap();
        assert_eq!(topo.link(s).dst, topo.node_by_name("s1").unwrap());
        // No successor for an unknown atom.
        assert!(successor(&topo, &labels, n0, AtomId(999)).is_none());
    }

    #[test]
    fn seed_walk_detects_loop() {
        let (topo, labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let l01 = topo
            .link_between(
                topo.node_by_name("s0").unwrap(),
                topo.node_by_name("s1").unwrap(),
            )
            .unwrap();
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a0)]);
        assert_eq!(loops.len(), 1);
        match &loops[0] {
            InvariantViolation::ForwardingLoop { nodes, packets } => {
                assert_eq!(nodes.len(), 3);
                assert_eq!(packets, &vec![Interval::new(0, 16)]);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn seed_walk_ignores_loop_free_atom() {
        let (topo, labels, atoms) = looped_setup();
        let a1 = atoms.atom_of_value(200);
        let l01 = topo
            .link_between(
                topo.node_by_name("s0").unwrap(),
                topo.node_by_name("s1").unwrap(),
            )
            .unwrap();
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a1)]);
        assert!(loops.is_empty());
    }

    #[test]
    fn stale_seed_is_skipped() {
        let (topo, mut labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let l01 = topo
            .link_between(
                topo.node_by_name("s0").unwrap(),
                topo.node_by_name("s1").unwrap(),
            )
            .unwrap();
        labels.remove(l01, a0); // the seed no longer holds
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a0)]);
        assert!(loops.is_empty());
    }

    #[test]
    fn whole_graph_scan_finds_same_loop_once() {
        let (topo, labels, atoms) = looped_setup();
        let loops = find_all_loops(&topo, &labels, &atoms);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn loops_grouped_by_cycle_merge_atoms() {
        // Two atoms looping through the same cycle are reported as one loop
        // with both packet intervals merged.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let l01 = topo.add_link(n[0], n[1]);
        let l10 = topo.add_link(n[1], n[0]);
        let mut atoms = AtomMap::new(8);
        atoms.create_atoms(Interval::new(0, 8));
        atoms.create_atoms(Interval::new(8, 16));
        let a = atoms.atom_of_value(0);
        let b = atoms.atom_of_value(8);
        let mut labels = Labels::new();
        for atom in [a, b] {
            labels.insert(l01, atom);
            labels.insert(l10, atom);
        }
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a), (l01, b)]);
        assert_eq!(loops.len(), 1);
        match &loops[0] {
            InvariantViolation::ForwardingLoop { packets, .. } => {
                // [0:8) and [8:16) normalize to a single interval.
                assert_eq!(packets, &vec![Interval::new(0, 16)]);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn drop_links_terminate_walks() {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let l01 = topo.add_link(n[0], n[1]);
        let drop1 = topo.drop_link(n[1]);
        let mut atoms = AtomMap::new(8);
        atoms.create_atoms(Interval::new(0, 8));
        let a = atoms.atom_of_value(0);
        let mut labels = Labels::new();
        labels.insert(l01, a);
        labels.insert(drop1, a);
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a)]);
        assert!(loops.is_empty());
    }

    #[test]
    fn self_loop_single_node() {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let l00 = topo.add_link(n[0], n[0]);
        let mut atoms = AtomMap::new(8);
        atoms.create_atoms(Interval::new(4, 6));
        let a = atoms.atom_of_value(4);
        let mut labels = Labels::new();
        labels.insert(l00, a);
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l00, a)]);
        assert_eq!(loops.len(), 1);
        match &loops[0] {
            InvariantViolation::ForwardingLoop { nodes, .. } => assert_eq!(nodes, &vec![n[0]]),
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn walks_of_one_atom_share_visited_marks_and_atoms_do_not() {
        // s0 -> s1 -> s2 -> s1: a tail into a two-node cycle.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let links = [
            topo.add_link(n[0], n[1]),
            topo.add_link(n[1], n[2]),
            topo.add_link(n[2], n[1]),
        ];
        let mut labels = Labels::new();
        for atom in [AtomId(0), AtomId(1)] {
            for link in links {
                labels.insert(link, atom);
            }
        }
        let mut scratch = WalkScratch::default();
        for atom in [AtomId(0), AtomId(1)] {
            let succ = Hop::Probe(&labels, atom);
            scratch.begin_atom(topo.node_count());
            // From the tail the walk finds the cycle, rotated to its
            // smallest node; a second walk of the same atom stops where it
            // joins the first, and the next atom starts from a clean slate.
            assert_eq!(scratch.walk(&topo, n[0], succ), Some(&[n[1], n[2]][..]));
            assert_eq!(scratch.walk(&topo, n[2], succ), None);
        }
    }

    #[test]
    fn stamp_wrap_around_forgets_marks_without_losing_cycles() {
        let (topo, labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let seeds: Vec<(LinkId, AtomId)> = topo.links().iter().map(|l| (l.id, a0)).collect();
        let expect = find_loops_from_seeds(&topo, &labels, &atoms, &seeds);
        assert_eq!(expect.len(), 1);
        let mut scratch = WalkScratch::default();
        find_loops_from_seeds_in(&mut scratch, &topo, &labels, &atoms, &seeds);
        // The counter wraps in the middle of the next call's three walks.
        scratch.walk = u32::MAX - 1;
        scratch.floor = u32::MAX - 1;
        let got = find_loops_from_seeds_in(&mut scratch, &topo, &labels, &atoms, &seeds);
        assert_eq!(got, expect);
        assert!(scratch.walk < 3);
    }

    #[test]
    fn atom_major_kernel_matches_the_emitter_sort_reference() {
        let mut rng = StdRng::seed_from_u64(0xA70B);
        for trial in 0..40 {
            let (nodes, atoms) = (rng.gen_range(2..9), rng.gen_range(1..300));
            let p = [0.05, 0.2, 0.5][trial % 3];
            let (topo, labels) = random_plane(&mut rng, nodes, atoms, p);
            let all: AtomSet = (0..atoms).map(AtomId).collect();
            let some: AtomSet = (0..atoms)
                .filter(|_| rng.gen_bool(0.3))
                .map(AtomId)
                .collect();
            // More words than any label, and an atom no link carries.
            let wide: AtomSet = [AtomId(0), AtomId(atoms + 70), AtomId(atoms + 200)]
                .into_iter()
                .chain(some.iter())
                .collect();
            let edges: AtomSet = [63, 64, 127, 128].into_iter().map(AtomId).collect();
            for candidates in [&all, &some, &wide, &edges] {
                let expect = reference_cycles_for_atoms(&topo, &labels, candidates);
                let got = cycles_for_atoms(&topo, &labels, candidates);
                assert_eq!(
                    got, expect,
                    "trial {trial}: {nodes} nodes, {atoms} atoms, p {p}"
                );
            }
        }
    }

    #[test]
    fn word_edge_atoms_and_uncarried_candidates() {
        // Atoms 63, 64, 127 and 128 loop s0 -> s1 -> s0; atom 5 is a
        // candidate no link carries.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let (l01, l10) = (topo.add_link(n[0], n[1]), topo.add_link(n[1], n[0]));
        let edges = [63, 64, 127, 128].map(AtomId);
        let mut labels = Labels::new();
        for atom in edges {
            labels.insert(l01, atom);
            labels.insert(l10, atom);
        }
        let candidates: AtomSet = edges.into_iter().chain([AtomId(5)]).collect();
        let got = cycles_for_atoms(&topo, &labels, &candidates);
        let expect = CycleMap::from([(vec![n[0], n[1]], edges.into_iter().collect())]);
        assert_eq!(got, expect);
        assert_eq!(got, reference_cycles_for_atoms(&topo, &labels, &candidates));
    }

    #[test]
    fn next_hop_generation_wrap_around_keeps_every_cycle() {
        // Twenty atoms go s0 -> s1 -> s2 and stop; the last one loops back.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l12 = topo.add_link(n[1], n[2]);
        let l20 = topo.add_link(n[2], n[0]);
        let mut labels = Labels::new();
        for atom in (0..20).map(AtomId) {
            labels.insert(l01, atom);
            labels.insert(l12, atom);
        }
        labels.insert(l20, AtomId(19));
        let all: AtomSet = (0..20).map(AtomId).collect();
        let ring = vec![n[0], n[1], n[2]];
        let expect = CycleMap::from([(ring, AtomSet::from_iter([AtomId(19)]))]);
        assert_eq!(reference_cycles_for_atoms(&topo, &labels, &all), expect);
        // Generation 8 left s2 a next hop that no atom before the last one
        // renews. The generation then wraps three atoms into the scan and
        // counts to 8 again: a table the wrap did not forget would send the
        // eleventh atom round the ring.
        let mut scratch = WalkScratch::default();
        for _ in 0..8 {
            scratch.begin_atom(topo.node_count());
            scratch.set_hop(n[2], l20);
        }
        scratch.atom = u32::MAX - 3;
        let got = cycles_for_atoms_in(&mut scratch, &topo, &labels, &all);
        assert_eq!(got, expect);
        assert!(scratch.atom < 20);
    }
}

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
//! * [`find_loops_from_seeds`] — the per-update check of an unmonitored
//!   engine (§4.3.1 "find in the delta-graph all forwarding loops"): one
//!   walk per `(link, atom)` pair the update added. Cost: Σ walk length
//!   over the delta's added pairs.
//! * [`cycles_for_atoms`] — a dense candidate set (the what-if query of
//!   §4.3.2, the full audits, seeding a monitor): the kernel goes atom by
//!   atom. For each non-zero candidate word it reads every labelled link's
//!   word once, keeping per link the atoms it is its switch's first hop
//!   for. A bit-parallel exit filter then decides for the whole word which
//!   atoms can loop: the set of atoms whose walk from a switch leaves the
//!   network (at a drop link, or at a switch with no hop) is propagated
//!   backwards over the word's hits by a worklist. Only the atoms that
//!   never leave are scattered by bit into per-atom next-hop tables and
//!   walked, so each walk step is one table read and the atom's walks
//!   share visited marks; a walk that leaves would have recorded nothing.
//!   Cost: O(links · candidate words + 64 · hits + Σ looping atoms' hits +
//!   Σ their walk length), with no sort and no walk of a loop-free atom.
//! * [`walks_from`] — one atom from several switches, sharing visited
//!   marks (the single-field monitor repair of a window or of an
//!   aggregated delta-graph, walking each repaired atom from every switch
//!   whose out-links changed). Cost: at most one pass over the nodes per
//!   atom, however many starts.
//!
//! Detected loops are reported as [`InvariantViolation::ForwardingLoop`]
//! with the cycle's nodes and the affected destination addresses as
//! normalized intervals, so users never see raw atom identifiers.

use crate::atoms::{AtomId, AtomMap};
use crate::atomset::AtomSet;
use crate::labels::Labels;
use netmodel::checker::InvariantViolation;
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
        let start = topology.link(link).src;
        walks_from(scratch, topology, labels, &[start], atom, |cycle| {
            admit(&mut cycles, cycle, atom);
        });
    }
    render_loops(&cycles, atoms)
}

/// The walks of `atom` from each of `starts` in turn, probing the labels,
/// with shared visited marks: a walk that reaches a node an earlier one
/// explored stops there, so all of them together visit each node at most
/// once. Each cycle they close is handed to `found` once, in canonical
/// rotation. The single-field monitor repair walks each repaired atom from
/// every switch its window updated: the first walk that reaches a cycle
/// of the atom through any of them goes round it.
pub(crate) fn walks_from(
    scratch: &mut WalkScratch,
    topology: &Topology,
    labels: &Labels,
    starts: &[NodeId],
    atom: AtomId,
    mut found: impl FnMut(&[NodeId]),
) {
    scratch.begin_atom(topology.node_count());
    for &start in starts {
        if let Some(cycle) = scratch.walk(topology, start, Hop::Probe(labels, atom)) {
            found(cycle);
        }
    }
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
    render_loops(&cycles_for_atoms(topology, labels, candidates), atoms)
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
/// links carrying some of its candidates, the [`ExitFilter`] narrows each
/// to the atoms that can loop from its switch, a scatter by bit lists each
/// such atom's emitters (in 64 rows of at most one entry per hit), and each
/// atom's walks then read its next-hop table.
fn cycles_for_atoms_in(
    scratch: &mut WalkScratch,
    topology: &Topology,
    labels: &Labels,
    candidates: &AtomSet,
) -> CycleMap {
    // Every labelled link with its source, its destination (`None` for the
    // drop sink) and its label words, switch by switch in out-link order.
    // Labels drop trailing zero words: a word past the end reads as 0.
    let mut labelled: Vec<(NodeId, LinkId, Option<NodeId>, &[u64])> = Vec::new();
    for node in topology.nodes() {
        for &link in topology.out_links(node) {
            let words = labels.get(link).words();
            if !words.is_empty() {
                let dst = topology.link(link).dst;
                let next = (!topology.is_drop_node(dst)).then_some(dst);
                labelled.push((node, link, next, words));
            }
        }
    }
    let mut filter = ExitFilter::new(topology.node_count());
    let mut cycles = CycleMap::new();
    let mut hits: Vec<Hit> = Vec::new();
    let mut slots: Vec<(NodeId, LinkId)> = Vec::new();
    for (w, &cand) in candidates.words().iter().enumerate() {
        if cand == 0 {
            continue;
        }
        // A switch forwards an atom on its first out-link carrying it
        // ([`successor`]), so each hit keeps only the atoms no earlier link
        // of its switch took.
        hits.clear();
        let (mut taken, mut at) = (0, None);
        for &(node, link, next, words) in &labelled {
            if at != Some(node) {
                at = Some(node);
                taken = 0;
            }
            let mask = words.get(w).map_or(0, |&word| word & cand) & !taken;
            if mask != 0 {
                hits.push(Hit {
                    node,
                    link,
                    next,
                    mask,
                });
                taken |= mask;
            }
        }
        let looping = filter.keep_looping(&mut hits);
        if looping == 0 {
            continue;
        }
        hits.retain(|hit| hit.mask != 0);
        // Scatter by bit: bit `b`'s emitters are the first `count[b]`
        // entries of the `b`-th row of `slots`, in out-link order. The rows
        // only grow, so `slots` is filled once per call, not per word.
        let row = hits.len();
        if slots.len() < 64 * row {
            slots.resize(64 * row, (NodeId(0), LinkId(0)));
        }
        let mut count = [0; 64];
        for hit in &hits {
            for b in bits(hit.mask) {
                slots[b * row + count[b]] = (hit.node, hit.link);
                count[b] += 1;
            }
        }
        for b in bits(looping) {
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

/// A labelled link carrying some atoms of the current candidate word: the
/// atoms (`mask`) for which it is its switch's hop.
#[derive(Clone, Copy)]
struct Hit {
    node: NodeId,
    link: LinkId,
    /// The link's destination; `None` for the drop sink.
    next: Option<NodeId>,
    mask: u64,
}

/// No hit: the end of an in-edge list, or an empty one.
const NO_HIT: u32 = u32::MAX;

/// Decides for a whole candidate word at once which atoms can loop, so
/// [`cycles_for_atoms_in`] walks only those. `exits[n]` holds the word's
/// atoms whose walk from `n` leaves the network: at a switch with no hop
/// for the atom, or over a drop link. It is the least solution of
/// `exits[n] = (atoms without a hop at n) ∪ ⋃ over n's hits h to a switch
/// (h.mask ∩ exits[h.next]) ∪ ⋃ over n's drop hits h (h.mask)`, which the
/// worklist propagates backwards over the word's hits. A node's set grows
/// at most 64 times and each growth reads its in-hits once, so a word
/// costs O(64 · hits). Only the bits of some hit's mask are ever read, so
/// `exits` rests at all ones, the value of a switch without hits, and
/// returns there after every word.
struct ExitFilter {
    exits: Vec<u64>,
    /// `head[m]`: the first hit into `m`, chained through `next_in`.
    head: Vec<u32>,
    next_in: Vec<u32>,
    queued: Vec<bool>,
    work: Vec<NodeId>,
}

impl ExitFilter {
    fn new(nodes: usize) -> Self {
        ExitFilter {
            exits: vec![u64::MAX; nodes],
            head: vec![NO_HIT; nodes],
            next_in: Vec::new(),
            queued: vec![false; nodes],
            work: Vec::new(),
        }
    }

    /// Narrows each hit's mask to the atoms that never leave the network
    /// from its switch and returns their union. An atom's walk from such a
    /// switch stays on such switches and ends in a cycle; a walk from any
    /// other switch records nothing, so dropping it loses no cycle.
    fn keep_looping(&mut self, hits: &mut [Hit]) -> u64 {
        self.next_in.clear();
        for (i, hit) in hits.iter().enumerate() {
            self.next_in.push(NO_HIT);
            match hit.next {
                // Over a drop link the hit's atoms exit: they stay set.
                None => {}
                // Over a link to a switch they exit if they exit there.
                Some(m) => {
                    self.exits[hit.node.index()] &= !hit.mask;
                    let head = &mut self.head[m.index()];
                    if *head == NO_HIT {
                        self.queued[m.index()] = true;
                        self.work.push(m);
                    }
                    self.next_in[i] = *head;
                    *head = i as u32;
                }
            }
        }
        while let Some(m) = self.work.pop() {
            self.queued[m.index()] = false;
            let out = self.exits[m.index()];
            let mut i = self.head[m.index()];
            while i != NO_HIT {
                let hit = &hits[i as usize];
                let n = hit.node.index();
                let add = hit.mask & out & !self.exits[n];
                if add != 0 {
                    self.exits[n] |= add;
                    if !self.queued[n] {
                        self.queued[n] = true;
                        self.work.push(hit.node);
                    }
                }
                i = self.next_in[i as usize];
            }
        }
        let mut looping = 0;
        for hit in hits.iter_mut() {
            hit.mask &= !self.exits[hit.node.index()];
            looping |= hit.mask;
        }
        for hit in hits.iter() {
            self.exits[hit.node.index()] = u64::MAX;
            if let Some(m) = hit.next {
                self.head[m.index()] = NO_HIT;
            }
        }
        looping
    }
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

/// Checks the entire data plane for forwarding loops over all atoms.
pub fn find_all_loops(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let all: AtomSet = atoms.iter().map(|(a, _)| a).collect();
    find_loops_for_atoms(topology, labels, atoms, &all)
}

/// Renders cycle → atoms pairs, given in cycle order (a [`CycleMap`]'s
/// iteration order), as [`InvariantViolation`]s in their `Ord` order —
/// shared by the full scans and the monitor so their reports are
/// bit-identical.
pub(crate) fn render_loops<'a>(
    cycles: impl IntoIterator<Item = (&'a Vec<NodeId>, &'a AtomSet)>,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let out: Vec<InvariantViolation> = cycles
        .into_iter()
        .map(|(nodes, set)| InvariantViolation::ForwardingLoop {
            nodes: nodes.clone(),
            packets: atoms.packets_of(set),
        })
        .collect();
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "cycles out of order");
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

    /// Hand-built planes over 130 atoms (three candidate words), one per
    /// edge case of the exit filter. Atom `a` behaves by `a % k`.
    fn filter_edge_planes() -> Vec<(&'static str, Topology, Labels)> {
        let carry = |labels: &mut Labels, links: &[LinkId], atom: u32| {
            for &link in links {
                labels.insert(link, AtomId(atom));
            }
        };
        let mut planes = Vec::new();

        // s0 -> s1 -> s2, where an atom takes a drop link, loops back to s0
        // or finds no hop.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let (l01, l12) = (topo.add_link(n[0], n[1]), topo.add_link(n[1], n[2]));
        let (l20, drop2) = (topo.add_link(n[2], n[0]), topo.drop_link(n[2]));
        let mut labels = Labels::new();
        for a in 0..130 {
            let last = [Some(drop2), Some(l20), None][a as usize % 3];
            carry(&mut labels, &[l01, l12], a);
            carry(&mut labels, last.as_slice(), a);
        }
        planes.push(("drop links and missing hops", topo, labels));

        // Two links of one switch carry the same atom, the first wins:
        // s0's out-links are s0 -> s1, s0 -> s2, drop; s1's are drop,
        // s1 -> s0.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let (l01, l02) = (topo.add_link(n[0], n[1]), topo.add_link(n[0], n[2]));
        let drop0 = topo.drop_link(n[0]);
        let drop1 = topo.drop_link(n[1]);
        let (l10, l20) = (topo.add_link(n[1], n[0]), topo.add_link(n[2], n[0]));
        let mut labels = Labels::new();
        for a in 0..130 {
            let links: &[LinkId] = match a % 5 {
                0 => &[l01, l02, drop1, l10, l20], // exits at s1's drop
                1 => &[l02, l20],                  // loops s0 -> s2
                2 => &[l02, drop0, l20],           // s0 -> s2 beats the drop
                3 => &[l01, l10],                  // loops s0 -> s1
                _ => &[drop0, l01, l10, l02, l20], // s0 -> s1 beats the drop
            };
            carry(&mut labels, links, a);
        }
        planes.push(("first link wins", topo, labels));

        // Tails s0 -> s1 and s4 -> s1 into s1 -> s2 -> s3, which loops back
        // to s2 or, for every other atom, has no hop.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 5);
        let tails = [topo.add_link(n[0], n[1]), topo.add_link(n[4], n[1])];
        let (l12, l23) = (topo.add_link(n[1], n[2]), topo.add_link(n[2], n[3]));
        let l32 = topo.add_link(n[3], n[2]);
        let mut labels = Labels::new();
        for a in 0..130 {
            carry(&mut labels, &tails, a);
            carry(&mut labels, &[l12, l23], a);
            if a % 2 == 0 {
                carry(&mut labels, &[l32], a);
            }
        }
        planes.push(("loop behind a tail", topo, labels));

        // A 200-node chain s199 -> s198 -> ... -> s0, against node order,
        // ending at s0 in a drop link, a loop s0 <-> s1 or no hop.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 200);
        let chain: Vec<LinkId> = (1..200).map(|i| topo.add_link(n[i], n[i - 1])).collect();
        let (drop0, l01) = (topo.drop_link(n[0]), topo.add_link(n[0], n[1]));
        let mut labels = Labels::new();
        for a in 0..130 {
            let last = [Some(drop0), Some(l01), None][a as usize % 3];
            carry(&mut labels, &chain, a);
            carry(&mut labels, last.as_slice(), a);
        }
        planes.push(("200-node chain against node order", topo, labels));
        planes
    }

    /// The atom-major kernel and the reference find the same cycles for
    /// every candidate set, on the plane `plane` over `atoms` atoms.
    fn assert_kernels_agree(
        rng: &mut StdRng,
        plane: &str,
        (topo, labels): (&Topology, &Labels),
        atoms: u32,
    ) {
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
        for (name, candidates) in [
            ("all", &all),
            ("some", &some),
            ("wide", &wide),
            ("edges", &edges),
        ] {
            let expect = reference_cycles_for_atoms(topo, labels, candidates);
            let mut scratch = WalkScratch::default();
            let got = cycles_for_atoms_in(&mut scratch, topo, labels, candidates);
            assert_eq!(got, expect, "{plane}: {name} candidates");
            // The exit filter is exact: the kernel walks the looping atoms
            // (one generation each) and no other.
            let looping = expect
                .values()
                .fold(AtomSet::new(), |acc, set| acc.union(set));
            assert_eq!(
                scratch.atom as usize,
                looping.len(),
                "{plane}: {name} candidates: atoms walked"
            );
        }
    }

    #[test]
    fn atom_major_kernel_matches_the_emitter_sort_reference() {
        let mut rng = StdRng::seed_from_u64(0xA70B);
        for trial in 0..40 {
            let (nodes, atoms) = (rng.gen_range(2..9), rng.gen_range(1..300));
            let p = [0.05, 0.2, 0.5][trial % 3];
            let (topo, labels) = random_plane(&mut rng, nodes, atoms, p);
            let plane = format!("trial {trial}: {nodes} nodes, {atoms} atoms, p {p}");
            assert_kernels_agree(&mut rng, &plane, (&topo, &labels), atoms);
        }
        for (plane, topo, labels) in filter_edge_planes() {
            let all: AtomSet = (0..130).map(AtomId).collect();
            let loops = reference_cycles_for_atoms(&topo, &labels, &all);
            let looping = loops
                .values()
                .fold(AtomSet::new(), |acc, set| acc.union(set));
            assert!(
                (1..130).contains(&looping.len()),
                "{plane}: some atoms loop and some do not"
            );
            assert_kernels_agree(&mut rng, plane, (&topo, &labels), 130);
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
        // Atoms 0..10 loop s0 <-> s1; atoms 10..20 loop s1 <-> s2, so every
        // atom passes the exit filter and is walked. No atom uses s2 -> s0.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l10 = topo.add_link(n[1], n[0]);
        let l12 = topo.add_link(n[1], n[2]);
        let l21 = topo.add_link(n[2], n[1]);
        let l20 = topo.add_link(n[2], n[0]);
        let mut labels = Labels::new();
        for atom in 0..20 {
            let ring = if atom < 10 { [l01, l10] } else { [l12, l21] };
            for link in ring {
                labels.insert(link, AtomId(atom));
            }
        }
        let all: AtomSet = (0..20).map(AtomId).collect();
        let expect = CycleMap::from([
            (vec![n[0], n[1]], (0..10).map(AtomId).collect()),
            (vec![n[1], n[2]], (10..20).map(AtomId).collect()),
        ]);
        assert_eq!(reference_cycles_for_atoms(&topo, &labels, &all), expect);
        // Generation 8 left s2 the stale hop s2 -> s0. The generation then
        // wraps three atoms into the scan and counts to 8 again at atom 10,
        // the first to use s2: a table the wrap did not forget would keep
        // the stale hop over s2 -> s1, and atom 10's walk would leave s2
        // for s0, which has no hop for it.
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

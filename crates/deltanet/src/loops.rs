//! Forwarding-loop detection on the edge-labelled graph.
//!
//! Per atom, forwarding is deterministic: at any switch, at most one
//! outgoing link carries a given atom (the link of the rule that owns the
//! atom there), so the α-restricted graph is a functional graph. Loop
//! detection reads it three ways:
//!
//! * `find_loops_from_seeds_in` — the per-update check of an unmonitored
//!   engine (§4.3.1 "find in the delta-graph all forwarding loops"): one
//!   successor walk per `(link, atom)` pair the update added. Cost: Σ walk
//!   length over the delta's added pairs.
//! * `walks_from` — one atom from several switches, sharing visited
//!   marks (the single-field monitor repair of a window, walking each
//!   repaired atom from every switch whose out-links changed). Cost: at
//!   most one pass over the nodes per atom, however many starts.
//! * `cycles_for_atoms` — a dense candidate set: the same walks, for the
//!   64 atoms of a candidate word at once. One pass over the labelled links
//!   keeps per link the word's atoms it is its switch's first hop for. A
//!   depth-first search from every switch then carries as one mask the
//!   atoms not yet seen there, splits it at each hop by the hit that
//!   carries each atom on, stops an atom where it was seen before, and
//!   closes a cycle where atoms meet their own path; a cycle is admitted for
//!   all the atoms that close it together in one map probe. Cost:
//!   O(links · candidate words + 64 · hits), with no sort and no per-atom
//!   step. Its callers: the full audits ([`find_all_loops`],
//!   [`find_loops_for_atoms`]) and seeding a monitor
//!   ([`crate::ViolationMonitor::from_state`]). The what-if query of §4.3.2
//!   ([`crate::DeltaNet::link_failure_impact`]) searches nothing itself: it
//!   cuts the cycles of a monitor of the labels, seeded once by this kernel
//!   and repaired with every window, so [`find_loops_for_atoms`] is its
//!   reference.
//!
//! The first two share one routine, `WalkScratch::walk`, which keeps its
//! visited marks, path positions and path in generation-stamped vectors of
//! node-count length and so allocates nothing per walk or per atom. The
//! third keeps the same marks per switch as one word of atoms.
//!
//! Detected loops are reported as [`InvariantViolation::ForwardingLoop`]
//! with the cycle's nodes and the affected destination addresses as
//! normalized intervals, so users never see raw atom identifiers.

use crate::atoms::{AtomId, AtomMap};
use crate::atomset::AtomSet;
use crate::labels::Labels;
use netmodel::checker::InvariantViolation;
use netmodel::interval::Interval;
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

/// Reusable state of the successor walk, owned by whoever walks repeatedly
/// ([`crate::DeltaNet`] for the per-update check, the
/// [`crate::monitor::ViolationMonitor`] for its repair) so the steady state
/// allocates nothing. Marks are generation stamps: every walk takes the
/// next stamp, and the walks of one atom are the stamps above `floor` — so
/// starting a walk or an atom is a counter bump, never an O(nodes) clear.
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
    /// The per-update check's loops so far: a cycle's index among those it
    /// found, and the interval of an atom looping through it.
    found: Vec<(usize, Interval)>,
}

impl WalkScratch {
    /// Starts the walks of a new atom on a topology of `nodes` nodes:
    /// forgets the previous atom's visited marks and, the first time (or if
    /// the topology grew), sizes the vectors.
    fn begin_atom(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.pos.resize(nodes, 0);
            self.path.reserve(nodes);
        }
        self.floor = self.walk;
    }

    /// Follows `atom`'s successors ([`successor`]) from `start` until the
    /// walk leaves the network (no successor, or a drop node), joins a node
    /// an earlier walk of the same atom explored (whatever cycle lies beyond
    /// was found then), or revisits its own path — in which case the cycle
    /// is returned in canonical rotation ([`rotate_to_canonical`]).
    fn walk(
        &mut self,
        topology: &Topology,
        labels: &Labels,
        start: NodeId,
        atom: AtomId,
    ) -> Option<&[NodeId]> {
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
            let next = topology.link(successor(topology, labels, cur, atom)?).dst;
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
/// whether the identity was absent from the map.
pub(crate) fn admit<K, Q>(tracked: &mut BTreeMap<K, AtomSet>, key: &Q, atom: AtomId) -> bool
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
{
    admit_word(tracked, key, atom.index() / 64, 1 << (atom.index() % 64))
}

/// [`admit`] for the atoms `bits` of word `w` at once. Looks the key up in
/// borrowed form, so only a new identity allocates.
fn admit_word<K, Q>(tracked: &mut BTreeMap<K, AtomSet>, key: &Q, w: usize, bits: u64) -> bool
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
{
    match tracked.get_mut(key) {
        Some(set) => {
            set.or_word(w, bits);
            false
        }
        None => {
            let mut set = AtomSet::new();
            set.or_word(w, bits);
            tracked.insert(key.to_owned(), set);
            true
        }
    }
}

/// [`find_loops_from_seeds_in`] on a fresh scratch: the tests' reference.
#[cfg(test)]
pub(crate) fn find_loops_from_seeds(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    seeds: &[(LinkId, AtomId)],
) -> Vec<InvariantViolation> {
    find_loops_from_seeds_in(&mut WalkScratch::default(), topology, labels, atoms, seeds)
}

/// Finds forwarding loops reachable from the given `(link, atom)` seeds —
/// the per-update check (§4.3.1) run on a delta-graph, on a caller-owned
/// scratch.
///
/// Only label *additions* need to be seeded: removing an atom from a label
/// can break loops but never create one. With a warm scratch a loop-free
/// update allocates nothing. The loops found are collected as
/// `(cycle, atom interval)` pairs in the scratch's list and rendered by
/// sorting each cycle's few intervals, so an update that reports a loop
/// allocates for its report alone, not for a set over the atom range.
pub(crate) fn find_loops_from_seeds_in(
    scratch: &mut WalkScratch,
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    seeds: &[(LinkId, AtomId)],
) -> Vec<InvariantViolation> {
    let mut cycles: Vec<Vec<NodeId>> = Vec::new();
    let mut found = std::mem::take(&mut scratch.found);
    for &(link, atom) in seeds {
        if !labels.contains(link, atom) {
            // A pair the labels no longer hold closes nothing: the seeds
            // may span several updates, a later one undoing an earlier.
            continue;
        }
        let start = topology.link(link).src;
        walks_from(scratch, topology, labels, &[start], atom, |cycle| {
            let at = match cycles.iter().position(|known| known[..] == *cycle) {
                Some(at) => at,
                None => {
                    cycles.push(cycle.to_vec());
                    cycles.len() - 1
                }
            };
            found.push((at, atoms.atom_interval(atom)));
        });
    }
    if cycles.is_empty() {
        // Loop-free, the common case: nothing was found.
        scratch.found = found;
        return Vec::new();
    }
    // Grouped by cycle, each group in address order; an atom two seeds
    // walked round the same cycle appears twice and merges with itself.
    found.sort_unstable();
    let mut rest = &found[..];
    let mut out: Vec<InvariantViolation> = cycles
        .into_iter()
        .enumerate()
        .map(|(at, nodes)| {
            let n = rest.iter().take_while(|&&(of, _)| of == at).count();
            let (group, tail) = rest.split_at(n);
            rest = tail;
            let mut packets: Vec<Interval> = Vec::new();
            for &(_, iv) in group {
                match packets.last_mut() {
                    Some(last) if last.hi() >= iv.lo() => *last = Interval::new(last.lo(), iv.hi()),
                    _ => packets.push(iv),
                }
            }
            InvariantViolation::ForwardingLoop { nodes, packets }
        })
        .collect();
    out.sort_unstable();
    found.clear();
    scratch.found = found;
    out
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
        if let Some(cycle) = scratch.walk(topology, labels, start, atom) {
            found(cycle);
        }
    }
}

/// Finds all forwarding loops that involve any of the given atoms anywhere
/// in the network — the what-if link-failure query's loops (§4.3.2) from
/// scratch, without the engine's monitor of the labels, and the
/// full-data-plane audits.
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
    WordSearch::new(topology.node_count()).cycles(topology, labels, candidates)
}

/// A labelled link carrying some atoms of the current candidate word: the
/// atoms (`mask`) for which it is its switch's hop.
#[derive(Clone, Copy)]
struct Hit {
    node: NodeId,
    /// The link's destination; `None` for the drop sink.
    next: Option<NodeId>,
    mask: u64,
}

/// No hit: a switch without hits in the word, or one off the search path.
const NO_HIT: u32 = u32::MAX;

/// The per-switch state of [`cycles_for_atoms`]'s search over one candidate
/// word. Between words every vector rests at its idle value (0 or
/// [`NO_HIT`]): only the switches with hits in the word are set, and
/// [`WordSearch::cycles`] resets exactly those.
struct WordSearch {
    /// `first[n]`: the index of `n`'s first hit; its other out-hits follow.
    first: Vec<u32>,
    /// `seen[n]`: the word's atoms the search has already carried into `n`.
    seen: Vec<u64>,
    /// `pos[n]`: `n`'s index in `path` while it is on the path.
    pos: Vec<u32>,
    /// The search's path from its start and, per path switch, the next hit
    /// to try and the atoms that came this way.
    path: Vec<NodeId>,
    frames: Vec<(usize, u64)>,
    /// The cycle being admitted, in canonical rotation.
    cycle: Vec<NodeId>,
    /// Search steps (switches entered and hits read) since it was built.
    #[cfg(test)]
    steps: usize,
}

impl WordSearch {
    fn new(nodes: usize) -> Self {
        WordSearch {
            first: vec![NO_HIT; nodes],
            seen: vec![0; nodes],
            pos: vec![NO_HIT; nodes],
            path: Vec::new(),
            frames: Vec::new(),
            cycle: Vec::new(),
            #[cfg(test)]
            steps: 0,
        }
    }

    /// Every cycle any candidate traverses, word by word: the gather, then
    /// [`WordSearch::search`].
    fn cycles(&mut self, topology: &Topology, labels: &Labels, candidates: &AtomSet) -> CycleMap {
        // Every labelled link with its source, its destination (`None` for
        // the drop sink) and its label words, switch by switch in out-link
        // order. Labels drop trailing zero words: a word past the end reads
        // as 0.
        let mut labelled: Vec<(NodeId, Option<NodeId>, &[u64])> = Vec::new();
        for node in topology.nodes() {
            for &link in topology.out_links(node) {
                let words = labels.get(link).words();
                if !words.is_empty() {
                    let dst = topology.link(link).dst;
                    labelled.push((node, (!topology.is_drop_node(dst)).then_some(dst), words));
                }
            }
        }
        let mut cycles = CycleMap::new();
        let mut hits: Vec<Hit> = Vec::new();
        for (w, &cand) in candidates.words().iter().enumerate() {
            if cand == 0 {
                continue;
            }
            // A switch forwards an atom on its first out-link carrying it
            // ([`successor`]), so each hit keeps only the atoms no earlier
            // link of its switch took.
            hits.clear();
            let (mut taken, mut at) = (0, None);
            for &(node, next, words) in &labelled {
                if at != Some(node) {
                    at = Some(node);
                    taken = 0;
                }
                let mask = words.get(w).map_or(0, |&word| word & cand) & !taken;
                if mask != 0 {
                    if taken == 0 {
                        self.first[node.index()] = hits.len() as u32;
                    }
                    hits.push(Hit { node, next, mask });
                    taken |= mask;
                }
            }
            self.search(&hits, w, &mut cycles);
            for hit in &hits {
                self.first[hit.node.index()] = NO_HIT;
                self.seen[hit.node.index()] = 0;
            }
        }
        cycles
    }

    /// Admits every cycle the word's atoms traverse into `cycles`: the
    /// successor walks of all 64 atoms at once, from every switch in turn,
    /// with shared visited marks. A depth-first search from switch `n0`
    /// carries the atoms not yet seen there as one mask, which each hop
    /// splits by the hit that carries each atom on. Atoms that reach a
    /// switch on the current path close a cycle: all of them came the whole
    /// path, so the cycle is the path from that switch on, and it is
    /// admitted for all of them in one map probe. Atoms that reach a switch
    /// where they were seen stop there, as whatever lies beyond was searched
    /// then ([`WalkScratch::walk`]'s rule). An atom enters a switch at most
    /// once, so a switch is entered at most 64 times and a word costs
    /// O(64 · hits) hit reads.
    fn search(&mut self, hits: &[Hit], w: usize, cycles: &mut CycleMap) {
        for (i, hit) in hits.iter().enumerate() {
            if self.first[hit.node.index()] == i as u32 {
                self.enter(hit.node, i, !self.seen[hit.node.index()]);
            }
            while let Some((at, mask)) = self.frames.last_mut() {
                let node = self.path[self.path.len() - 1];
                #[cfg(test)]
                {
                    self.steps += 1;
                }
                let Some(hit) = hits.get(*at).filter(|hit| hit.node == node) else {
                    self.pos[node.index()] = NO_HIT;
                    self.frames.pop();
                    self.path.pop();
                    continue;
                };
                *at += 1;
                let (Some(m), bits) = (hit.next, hit.mask & *mask) else {
                    continue;
                };
                if bits == 0 {
                    continue;
                }
                match self.pos[m.index()] {
                    NO_HIT => {
                        let first = self.first[m.index()];
                        if first != NO_HIT {
                            self.enter(m, first as usize, bits & !self.seen[m.index()]);
                        }
                    }
                    on_path => {
                        self.cycle.clear();
                        self.cycle.extend_from_slice(&self.path[on_path as usize..]);
                        rotate_to_canonical(&mut self.cycle);
                        admit_word(cycles, &self.cycle[..], w, bits);
                    }
                }
            }
        }
    }

    /// Carries `atoms` into switch `n`, whose out-hits start at `first`.
    fn enter(&mut self, n: NodeId, first: usize, atoms: u64) {
        if atoms != 0 {
            self.seen[n.index()] |= atoms;
            self.pos[n.index()] = self.path.len() as u32;
            self.path.push(n);
            self.frames.push((first, atoms));
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
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
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
            if let Some(cycle) = scratch.walk(topology, labels, start, atom) {
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
    fn seeded_check_of_every_labelled_pair_reports_what_the_full_scan_does() {
        // Seeding every (link, atom) pair of the labels walks each atom from
        // each switch that forwards it, so the check reports every loop:
        // several cycles, atoms sharing a cycle, and each looping atom
        // found from several seeds. Atom ids are shuffled against address
        // order, so each cycle's packets are rendered from unsorted atoms.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut loops = 0;
        for _ in 0..40 {
            let (topo, labels) = random_plane(&mut rng, 6, 48, 0.3);
            let mut atoms = AtomMap::new(8);
            let mut bounds: Vec<u128> = (1..=48).collect();
            bounds.shuffle(&mut rng);
            for bound in bounds {
                atoms.create_atoms(Interval::new(0, bound));
            }
            let seeds: Vec<(LinkId, AtomId)> = labels
                .iter()
                .flat_map(|(link, label)| label.iter().map(move |atom| (link, atom)))
                .collect();
            let got = find_loops_from_seeds(&topo, &labels, &atoms, &seeds);
            assert_eq!(got, find_all_loops(&topo, &labels, &atoms));
            loops += got.len();
        }
        assert!(loops > 20, "{loops} loops");
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
            scratch.begin_atom(topo.node_count());
            // From the tail the walk finds the cycle, rotated to its
            // smallest node; a second walk of the same atom stops where it
            // joins the first, and the next atom starts from a clean slate.
            let cycle = scratch.walk(&topo, &labels, n[0], atom);
            assert_eq!(cycle, Some(&[n[1], n[2]][..]));
            assert_eq!(scratch.walk(&topo, &labels, n[2], atom), None);
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
    /// edge case of the word-wide search. Atom `a` behaves by
    /// `a % k`, or by its range.
    fn kernel_edge_planes() -> Vec<(&'static str, Topology, Labels)> {
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

        // Even atoms loop twice, s0 <-> s1 and s2 <-> s3, in two components;
        // odd atoms find no hop at s1 and s3.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 4);
        let (l01, l10) = (topo.add_link(n[0], n[1]), topo.add_link(n[1], n[0]));
        let (l23, l32) = (topo.add_link(n[2], n[3]), topo.add_link(n[3], n[2]));
        let mut labels = Labels::new();
        for a in 0..130 {
            let links: &[LinkId] = match a % 2 {
                0 => &[l01, l10, l23, l32],
                _ => &[l01, l23],
            };
            carry(&mut labels, links, a);
        }
        planes.push(("one atom, two cycles in two components", topo, labels));

        // The tail s1 -> s0 -> s2 passes s0, below the cycle s2 <-> s3 it
        // enters, which every other atom lacks the hop s3 -> s2 to close.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 4);
        let tail = [topo.add_link(n[1], n[0]), topo.add_link(n[0], n[2])];
        let (l23, l32) = (topo.add_link(n[2], n[3]), topo.add_link(n[3], n[2]));
        let mut labels = Labels::new();
        for a in 0..130 {
            carry(&mut labels, &tail, a);
            carry(&mut labels, &[l23], a);
            if a % 2 == 0 {
                carry(&mut labels, &[l32], a);
            }
        }
        planes.push(("tail through a switch below its cycle", topo, labels));

        // Self-loops: at s0, or at s1 behind the tail s0 -> s1; the rest
        // leave s1 by its drop link.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let (l00, l01) = (topo.add_link(n[0], n[0]), topo.add_link(n[0], n[1]));
        let (l11, drop1) = (topo.add_link(n[1], n[1]), topo.drop_link(n[1]));
        let mut labels = Labels::new();
        for a in 0..130 {
            let links: &[LinkId] = match a % 3 {
                0 => &[l00],
                1 => &[l01, l11],
                _ => &[l01, drop1],
            };
            carry(&mut labels, links, a);
        }
        planes.push(("self-loops", topo, labels));

        // One cycle s0 -> s1 -> s2 -> s0 whose atoms, 60..68 and 124..130,
        // straddle two word edges; the rest leave s2 by its drop link.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let (l01, l12) = (topo.add_link(n[0], n[1]), topo.add_link(n[1], n[2]));
        let (l20, drop2) = (topo.add_link(n[2], n[0]), topo.drop_link(n[2]));
        let mut labels = Labels::new();
        for a in 0..130 {
            let last = if (60..68).contains(&a) || a >= 124 {
                l20
            } else {
                drop2
            };
            carry(&mut labels, &[l01, l12, last], a);
        }
        planes.push(("one cycle across word edges", topo, labels));

        // Even atoms loop s0 <-> s1 and are dropped at s2, which s3 feeds;
        // odd atoms leave s1 by its drop link.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 4);
        let (l01, l10) = (topo.add_link(n[0], n[1]), topo.add_link(n[1], n[0]));
        let (drop1, drop2) = (topo.drop_link(n[1]), topo.drop_link(n[2]));
        let l32 = topo.add_link(n[3], n[2]);
        let mut labels = Labels::new();
        for a in 0..130 {
            let links: &[LinkId] = match a % 2 {
                0 => &[l01, l10, drop2, l32],
                _ => &[l01, drop1],
            };
            carry(&mut labels, links, a);
        }
        planes.push(("on a cycle at one switch, dropped at another", topo, labels));
        planes
    }

    /// The word-wide search and the reference find the same cycles for
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
        // Every cycle of consecutive atoms loses some of them.
        let odd: AtomSet = (1..atoms).step_by(2).map(AtomId).collect();
        for (name, candidates) in [
            ("all", &all),
            ("some", &some),
            ("wide", &wide),
            ("edges", &edges),
            ("odd", &odd),
        ] {
            let expect = reference_cycles_for_atoms(topo, labels, candidates);
            let got = cycles_for_atoms(topo, labels, candidates);
            assert_eq!(got, expect, "{plane}: {name} candidates");
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
        for (plane, topo, labels) in kernel_edge_planes() {
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
    fn search_steps_stay_linear_in_the_hits_on_a_long_tail() {
        // A 4,096-switch chain feeds a 2-cycle, and all 64 atoms of one
        // word take it. Along node order (s0 -> ... -> s4095 -> s4096 <->
        // s4097) one search from s0 covers it; against it (s4097 -> ... ->
        // s2 -> s1 <-> s0) every switch of the chain starts a search, and
        // each must stop where the one before it passed, or the searches
        // take ~4,096² / 2 steps.
        for along in [true, false] {
            let mut topo = Topology::new();
            let n = topo.add_nodes("s", 4098);
            let s = |i: usize| n[if along { i } else { 4097 - i }];
            let mut links: Vec<LinkId> = (0..4097).map(|i| topo.add_link(s(i), s(i + 1))).collect();
            links.push(topo.add_link(s(4097), s(4096)));
            let mut labels = Labels::new();
            for &link in &links {
                for atom in 0..64 {
                    labels.insert(link, AtomId(atom));
                }
            }
            let all: AtomSet = (0..64).map(AtomId).collect();
            let mut search = WordSearch::new(topo.node_count());
            let got = search.cycles(&topo, &labels, &all);
            let cycle = if along {
                vec![n[4096], n[4097]]
            } else {
                vec![n[0], n[1]]
            };
            assert_eq!(got, CycleMap::from([(cycle, all)]), "along {along}");
            let bound = 64 * links.len() + topo.node_count();
            assert!(
                search.steps <= bound,
                "along {along}: {} steps > {bound}",
                search.steps
            );
        }
    }
}

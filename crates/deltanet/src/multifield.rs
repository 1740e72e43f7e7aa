//! Cross-field checks for multi-field header spaces.
//!
//! A multi-field engine keeps one atom lattice per declared header field:
//! the primary (destination) lattice carries the full Delta-net machinery —
//! owner cells, edge labels, delta-graphs — exactly as in the single-field
//! engine, while each *secondary* field (source address, destination port,
//! …) keeps only its interval lattice. A packet class is then the cross
//! product of one atom per field, and the per-class forwarding function at a
//! node is "highest-priority covering rule whose secondary intervals all
//! contain the class" — resolved here, at check time, from the primary
//! owner cells plus the rules' secondary matches.
//!
//! This mirrors the layering argument in the Delta-net paper (§5): the
//! one-dimensional atom machinery is the workhorse, and additional header
//! fields multiply the classes that machinery is consulted for, rather than
//! multiplying the machinery itself. Everything a multi-field engine keeps
//! beyond the single-field state — the secondary lattices, their §3.2.2
//! books and the walk kernel — is one [`MultiField`], which the engine holds
//! as an `Option`: `None` on a single-field engine, whose hot path
//! therefore never enters this module.
//!
//! ## One predicate, one implementation that ships
//!
//! For a primary atom α and a secondary class c, the forwarding function
//! `F_{α,c}` maps each node to the link of the highest-priority rule that
//! covers α *and* whose secondary intervals contain c. A cycle of some
//! `F_{α,c}` is a forwarding loop for α. A switch some `F_{α,c}` forwards
//! into that has no decision of its own for c is a blackhole for α — a
//! drop-rule winner counts as a decision, and traffic forwarded into the
//! drop node was deliberately discarded and never "arrives" anywhere.
//!
//! [`ClassWalk`] is the only evaluation of that predicate outside test
//! code. It works **set at a time**: per atom, each emitter's classes are
//! partitioned once by winning rule, and one walk carries the *set* of
//! classes still alive along the path — the step Query-Subquery Nets make
//! for Horn evaluation, pushing a relation through the net instead of one
//! binding at a time. Almost every class shares one winner at almost every
//! hop, so the walk costs a few word operations per hop whatever the class
//! count. The per-update check, the monitor repair and the full scans
//! ([`MultiField::scan`], behind `check_all_loops` /
//! `check_all_blackholes`, `enable_monitor` and the snapshot-restore
//! verification) all run it; a full scan is the repair's whole-atom scan
//! over every atom, on a scratch kernel of its own.
//!
//! Two references evaluate the predicate **tuple at a time** — one
//! successor walk per `(α, c)` pair — and share no code with the kernel:
//!
//! * `reference_scan`, in this module's tests, reads the same owner cells
//!   the kernel does and is compared against it as exact maps, fixture by
//!   fixture and after every op of a seeded churn.
//! * `veriflow_ri::scan_multifield` is stateless — it recomputes every
//!   class of every field from the live rule set alone, sharing no owner
//!   cells either — and is what `tests/multifield_differential.rs` holds
//!   the full scans to after every operation.
//!
//! What the live monitor is compared with in that suite, the restore check
//! and the benchmark's `acl-multifield` oracle is therefore the kernel run
//! from scratch: incremental versus from-scratch, not kernel versus
//! reference.
//!
//! ## The repair contract
//!
//! The monitor tracks `loops[C] ∋ α ⇔ ∃c. C is a cycle of F_{α,c}`, and
//! `holes[n] ∋ α ⇔ ∃c` forwarded into switch n with no decision there. One
//! rule update at `s = source(r)` changes `F_{α,c}` only at `s`, and only
//! for atoms of its (clip-adjusted) interval. A secondary split refines the
//! classes without changing any `∃c`. The paper's observation that an
//! update touches a small part of the network therefore holds per atom as
//! well, and the repair ([`crate::monitor::ViolationMonitor::rescan_atoms`])
//! re-decides only that part, the whole class set at a time:
//!
//! * **Split atoms** are new: the monitor tracks nothing for them, so each
//!   is scanned whole ([`Scope::Whole`], [`ClassWalk::scan_atom`]): retired
//!   everywhere, partitioned at every emitter, and walked from every
//!   emitter.
//! * **Loops** of an atom that existed before ([`Scope::At`],
//!   [`ClassWalk::scan_at`]): it is
//!   retired only from tracked cycles through `s`, and one walk from `s`
//!   over every class re-admits it. A cycle that avoids `s` is made of
//!   forwarding decisions the update did not touch, so its membership
//!   stands. A cycle through `s` that some class rides after the update is
//!   found by that class's walk from `s`, which follows the class round the
//!   cycle back to its start.
//! * **Blackholes** of such an atom are re-decided at `s` (its decisions
//!   changed) and at the switches at the far ends of `s`'s out-links (what
//!   `s` forwards into them changed), each judged from the winner groups of
//!   its in-neighbours. At any other switch, neither its own decisions nor
//!   what arrives there changed.
//! * **Shadowing**: an atom is skipped entirely when a rule above `r` in
//!   its owner cell at `s` admits every class `r` admits. Then `r` wins no
//!   class of the atom with or without it installed, and `F_{α,c}` does not
//!   change at all.
//!
//! No per-class state is kept anywhere. The per-update check is the same
//! walk started at `s` with the rule's own classes
//! ([`ClassWalk::loops_from_rule`]): any loop the update closes routes
//! through that node. It walks shadowed atoms too: the loops it reports
//! are the ones the rule's classes ride, whoever wins them.
//!
//! Two things are deliberately *not* multi-field aware:
//!
//! * **Edge labels.** A label answers "which atoms does the
//!   highest-priority owner at this source forward over this link",
//!   ignoring secondary fields — a primary-field projection. Label-based
//!   scans over-approximate one class and under-approximate another when a
//!   secondary-constrained rule outranks a wildcard one, so the multi-field
//!   checks below never consult labels; they re-resolve winners from the
//!   owner cells per secondary class.
//! * **Secondary owner structures.** Secondary lattices are typically tiny
//!   (a handful of ACL source blocks); indexing their cross product as
//!   bitset positions — re-derived only when an update adds or a compaction
//!   retires secondary bounds — is cheaper and simpler than maintaining
//!   N-dimensional owner state.

use crate::atoms::{AtomId, AtomMap, BoundRefs, DeltaPair};
use crate::delta_graph::DeltaGraph;
use crate::loops::{self, CycleMap};
use crate::monitor::ViolationMonitor;
use crate::owner::{Owner, SourceRules};
use netmodel::checker::InvariantViolation;
use netmodel::header::{SecondaryMatch, MAX_SECONDARY_FIELDS};
use netmodel::interval::{Bound, Interval};
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{NodeId, Topology};
use std::collections::HashMap;
use std::ops::Range;

/// A borrowed view of exactly the engine state the cross-field checks
/// need. Bundling the borrows lets the engine hand out one immutable view
/// while keeping mutable access to the rest of itself (the monitor, the
/// walk scratch).
pub(crate) struct MfView<'a> {
    pub topology: &'a Topology,
    pub owner: &'a Owner,
    pub atoms: &'a AtomMap,
    pub rules: &'a HashMap<RuleId, Rule>,
}

// The rank-range product in `ClassWalk::admitted` is written out for two
// secondary fields; a third needs one more loop level there.
const _: () = assert!(MAX_SECONDARY_FIELDS == 2);

/// What one per-atom scan found: the atom loops on a canonical cycle, or
/// dies at a switch, in at least one secondary class.
pub(crate) enum Found<'a> {
    Cycle(&'a [NodeId]),
    Hole(NodeId),
}

/// How much of one atom's tracked violations a repair re-decides (see the
/// repair contract in the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scope<'a> {
    /// All of them, from every emitter: for an atom whose tracked state
    /// says nothing — one a split created, or any atom of a full scan.
    Whole,
    /// What a rule change at `source` can move: the cycles through
    /// `source`, and the blackholes at `near` (`source` and the switches
    /// at the far ends of its out-links).
    At { source: NodeId, near: &'a [NodeId] },
}

/// One node on the walk's current path. Its carried class set is the
/// frame's row of `ClassWalk::frame_sets`.
#[derive(Clone, Copy, Debug)]
struct Frame {
    node: NodeId,
    /// The next group of `node` to descend into.
    next: u32,
}

/// `ClassWalk::pos` of a node off the current path.
const OFF_PATH: u32 = u32::MAX;

/// The set-at-a-time kernel and its scratch, owned by the engine's
/// [`MultiField`] so the steady state allocates nothing.
///
/// A class set is a bitset of `words` words over the secondary classes,
/// numbered by mixed-radix rank (`r1 · n0 + r0`, `r_f` the position of the
/// class's atom in field `f`'s lattice — field 0 varies fastest). Rule
/// bounds are always lattice bounds, so the classes a rule admits are a
/// product of rank ranges, found by binary search on the per-field sorted
/// lows. Per-node state is generation-stamped: starting an atom is a
/// counter bump, never an O(nodes) clear.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClassWalk {
    /// Per secondary field, the low bounds of its lattice atoms, ascending.
    lows: Vec<Vec<Bound>>,
    /// Words per class set.
    words: usize,
    /// The set of all classes.
    full: Vec<u64>,
    /// `stamp[n] == generation`: node `n`'s `visited` row and `groups_of`
    /// entry belong to the current atom.
    stamp: Vec<u32>,
    generation: u32,
    /// Per node, the classes that already explored it for this atom.
    visited: Vec<u64>,
    /// Per node, its range of winner groups.
    groups_of: Vec<(u32, u32)>,
    /// Per node, its index in `frames` while on the path, else `OFF_PATH`.
    pos: Vec<u32>,
    /// The current atom's winner groups: the classes one rule wins at one
    /// node (row `g` of `group_sets`, disjoint within a node) and the far
    /// end of the link it sends them down (`group_dst[g]`; `None` for a
    /// drop link — handled, but arriving nowhere).
    group_dst: Vec<Option<NodeId>>,
    group_sets: Vec<u64>,
    /// The walk's explicit stack — depth is bounded by the node count, not
    /// by the call stack.
    frames: Vec<Frame>,
    frame_sets: Vec<u64>,
    /// One-set temporaries: the set being carried into a node, and the
    /// classes no rule of a cell has won yet.
    set: Vec<u64>,
    remaining: Vec<u64>,
    /// The cycle being reported, in canonical rotation.
    cycle: Vec<NodeId>,
}

fn is_zero(set: &[u64]) -> bool {
    set.iter().all(|&w| w == 0)
}

fn and_not(set: &mut [u64], minus: &[u64]) {
    set.iter_mut().zip(minus).for_each(|(s, m)| *s &= !m);
}

/// Sets bits `from..to`, a word at a time.
fn set_range(set: &mut [u64], from: usize, to: usize) {
    if from >= to {
        return;
    }
    let (first, last) = (from / 64, (to - 1) / 64);
    let head = !0u64 << (from % 64);
    let tail = !0u64 >> (63 - (to - 1) % 64);
    if first == last {
        set[first] |= head & tail;
    } else {
        set[first] |= head;
        set[first + 1..last].fill(!0);
        set[last] |= tail;
    }
}

/// The `words`-word row of index `i` in a flat array of class sets.
fn row(i: usize, words: usize) -> Range<usize> {
    i * words..(i + 1) * words
}

impl ClassWalk {
    /// Scratch for an engine over `nodes` nodes with the given secondary
    /// lattices.
    pub(crate) fn new(sec_atoms: &[AtomMap], nodes: usize) -> Self {
        let mut walk = ClassWalk {
            stamp: vec![0; nodes],
            groups_of: vec![(0, 0); nodes],
            pos: vec![OFF_PATH; nodes],
            ..ClassWalk::default()
        };
        walk.reindex(sec_atoms);
        walk
    }

    /// Re-derives the class numbering from the secondary lattices. Called
    /// when an update split them or a compaction merged them — the only
    /// times a class's rank can move.
    pub(crate) fn reindex(&mut self, sec_atoms: &[AtomMap]) {
        self.lows.resize_with(sec_atoms.len(), Vec::new);
        for (lows, map) in self.lows.iter_mut().zip(sec_atoms) {
            lows.clear();
            lows.extend(map.iter().map(|(_, interval)| interval.lo()));
        }
        let classes: usize = self.lows.iter().map(Vec::len).product();
        self.words = classes.div_ceil(64);
        self.full.clear();
        self.full.resize(self.words, 0);
        set_range(&mut self.full, 0, classes);
        // Stale row contents are harmless: a row is zeroed when its node
        // is first touched for an atom.
        self.visited.resize(self.stamp.len() * self.words, 0);
        self.set.resize(self.words, 0);
        self.remaining.resize(self.words, 0);
    }

    /// Forgets the previous atom's per-node state and winner groups.
    fn begin_atom(&mut self) {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.group_dst.clear();
        self.group_sets.clear();
    }

    /// Writes the classes `sec` admits into `out`: per field the rank
    /// range of its interval (every rank where unconstrained), and their
    /// product.
    fn admitted(lows: &[Vec<Bound>], sec: &SecondaryMatch, out: &mut [u64]) {
        out.fill(0);
        let ranks = |field: usize| match (lows.get(field), sec.get(field)) {
            (Some(lows), Some(iv)) => {
                let rank = |bound| lows.partition_point(|&lo| lo < bound);
                rank(iv.lo())..rank(iv.hi())
            }
            (Some(lows), None) => 0..lows.len(),
            (None, _) => 0..1,
        };
        let (inner, n0) = (ranks(0), lows[0].len());
        for r1 in ranks(1) {
            set_range(out, r1 * n0 + inner.start, r1 * n0 + inner.end);
        }
    }

    /// Makes `node`'s state current: on its first use for this atom, no
    /// class has explored it, and its classes are partitioned by winning
    /// rule — the owner cell in descending `(priority, id)`, each rule
    /// taking what it admits of the classes no higher rule took: the
    /// module docs' `F_{α,c}` at `node`, for every class at once.
    fn touch(&mut self, view: &MfView<'_>, atom: AtomId, node: NodeId) {
        let i = node.index();
        if self.stamp[i] == self.generation {
            return;
        }
        self.stamp[i] = self.generation;
        self.visited[row(i, self.words)].fill(0);
        let start = self.group_dst.len() as u32;
        self.remaining.copy_from_slice(&self.full);
        let cell = view.owner.get(atom, node);
        for owned in cell.map_or(&[][..], SourceRules::as_slice).iter().rev() {
            let Some(rule) = view.rules.get(&owned.id) else {
                continue;
            };
            let at = self.group_sets.len();
            self.group_sets.resize(at + self.words, 0);
            let won = &mut self.group_sets[at..];
            if rule.sec.is_empty() {
                // A wildcard takes everything left: no ranks to look up.
                won.copy_from_slice(&self.remaining);
            } else {
                Self::admitted(&self.lows, &rule.sec, won);
                won.iter_mut()
                    .zip(&self.remaining)
                    .for_each(|(w, r)| *w &= r);
            }
            if is_zero(won) {
                self.group_sets.truncate(at);
                continue;
            }
            and_not(&mut self.remaining, &self.group_sets[at..]);
            let dst = view.topology.link(owned.link).dst;
            self.group_dst
                .push((!view.topology.is_drop_node(dst)).then_some(dst));
            if is_zero(&self.remaining) {
                break;
            }
        }
        self.groups_of[i] = (start, self.group_dst.len() as u32);
    }

    /// Carries `self.set` into `node`. Classes reaching a node on the
    /// current path close the cycle from there on — they are a subset of
    /// every set carried since, so each rode every hop of it. Otherwise
    /// the classes that have not explored the node yet are pushed as a new
    /// frame; the rest found whatever lies beyond the first time.
    fn enter(
        &mut self,
        view: &MfView<'_>,
        atom: AtomId,
        node: NodeId,
        found: &mut dyn FnMut(Found<'_>),
    ) {
        self.touch(view, atom, node);
        let i = node.index();
        if self.pos[i] != OFF_PATH {
            self.cycle.clear();
            let on_cycle = &self.frames[self.pos[i] as usize..];
            self.cycle.extend(on_cycle.iter().map(|frame| frame.node));
            loops::rotate_to_canonical(&mut self.cycle);
            found(Found::Cycle(&self.cycle));
            return;
        }
        let visited = &mut self.visited[row(i, self.words)];
        and_not(&mut self.set, visited);
        if is_zero(&self.set) {
            return;
        }
        visited.iter_mut().zip(&self.set).for_each(|(v, s)| *v |= s);
        self.pos[i] = self.frames.len() as u32;
        self.frames.push(Frame {
            node,
            next: self.groups_of[i].0,
        });
        self.frame_sets.extend_from_slice(&self.set);
    }

    /// Walks the classes in `self.set` from `start`, depth first over the
    /// winner groups, reporting every cycle some class closes.
    fn walk(
        &mut self,
        view: &MfView<'_>,
        atom: AtomId,
        start: NodeId,
        found: &mut dyn FnMut(Found<'_>),
    ) {
        self.enter(view, atom, start, found);
        while let Some(&Frame { node, next }) = self.frames.last() {
            let top = self.frames.len() - 1;
            if next == self.groups_of[node.index()].1 {
                self.frames.pop();
                self.frame_sets.truncate(top * self.words);
                self.pos[node.index()] = OFF_PATH;
                continue;
            }
            self.frames[top].next += 1;
            let Some(dst) = self.group_dst[next as usize] else {
                continue;
            };
            let carried = &self.frame_sets[row(top, self.words)];
            let wins = &self.group_sets[row(next as usize, self.words)];
            for ((set, c), w) in self.set.iter_mut().zip(carried).zip(wins) {
                *set = c & w;
            }
            if !is_zero(&self.set) {
                self.enter(view, atom, dst, found);
            }
        }
    }

    /// Every violation of `atom` over all secondary classes ([`Scope::Whole`]):
    /// one winner partition per emitter, the blackholes that fall out of it
    /// (a group lands where some of its classes have no winner), and one
    /// walk per emitter. The module docs' two predicates restricted to the
    /// atom; a finding may be reported more than once.
    fn scan_atom(&mut self, view: &MfView<'_>, atom: AtomId, found: &mut dyn FnMut(Found<'_>)) {
        self.begin_atom();
        for (node, _) in view.owner.sources(atom) {
            self.touch(view, atom, node);
        }
        // Only emitters have groups, and they are all partitioned by now:
        // touching a landing node adds none.
        for g in 0..self.group_dst.len() {
            if let Some(dst) = self.group_dst[g] {
                if self.dies_at(view, atom, g, dst) {
                    found(Found::Hole(dst));
                }
            }
        }
        for (node, _) in view.owner.sources(atom) {
            self.set.copy_from_slice(&self.full);
            self.walk(view, atom, node, found);
        }
    }

    /// The violations of `atom` a rule change at `source` can have moved
    /// ([`Scope::At`]), over all secondary classes: each `near` switch's
    /// blackhole, judged from the winner groups of its in-neighbours, and
    /// every cycle one walk from `source` closes. A finding may be reported
    /// more than once.
    fn scan_at(
        &mut self,
        view: &MfView<'_>,
        atom: AtomId,
        source: NodeId,
        near: &[NodeId],
        found: &mut dyn FnMut(Found<'_>),
    ) {
        self.begin_atom();
        'near: for &node in near {
            for &link in view.topology.in_links(node) {
                let from = view.topology.link(link).src;
                self.touch(view, atom, from);
                let (start, end) = self.groups_of[from.index()];
                for g in start as usize..end as usize {
                    if self.group_dst[g] == Some(node) && self.dies_at(view, atom, g, node) {
                        found(Found::Hole(node));
                        continue 'near;
                    }
                }
            }
        }
        self.set.copy_from_slice(&self.full);
        self.walk(view, atom, source, found);
    }

    /// Whether some class of group `g`, which lands on `dst`, has no winner
    /// there.
    fn dies_at(&mut self, view: &MfView<'_>, atom: AtomId, g: usize, dst: NodeId) -> bool {
        self.touch(view, atom, dst);
        self.set
            .copy_from_slice(&self.group_sets[row(g, self.words)]);
        let (start, end) = self.groups_of[dst.index()];
        for handled in start as usize..end as usize {
            and_not(&mut self.set, &self.group_sets[row(handled, self.words)]);
        }
        !is_zero(&self.set)
    }

    /// Per-update seeded loop check for one inserted or removed rule.
    ///
    /// Any loop created (or whose dissolution must be noticed) by changing
    /// the forwarding at `rule.source` necessarily routes through
    /// `rule.source` itself, for primary atoms inside the rule's
    /// (clip-adjusted) `interval` and secondary classes the rule admits —
    /// forwarding for every other `(atom, class)` pair at every other node
    /// is untouched by the update. So one walk per atom from that node,
    /// carrying the rule's own classes, is a sound per-update check, the
    /// multi-field analogue of seeding from the delta-graph's added edges.
    pub(crate) fn loops_from_rule(
        &mut self,
        view: &MfView<'_>,
        rule: &Rule,
        interval: Interval,
    ) -> CycleMap {
        let mut cycles = CycleMap::new();
        for atom in view.atoms.iter_atoms_of(interval) {
            self.begin_atom();
            Self::admitted(&self.lows, &rule.sec, &mut self.set);
            self.walk(view, atom, rule.source, &mut |found| {
                if let Found::Cycle(cycle) = found {
                    loops::admit(&mut cycles, cycle, atom);
                }
            });
        }
        cycles
    }
}

/// The multi-field half of an engine: one interval lattice and its §3.2.2
/// books per declared secondary field, and the walk kernel whose class
/// numbering follows them. Secondary lattices carry no owner cells or edge
/// labels and their atom ids key no cross-structure state, so everything
/// here is self-contained; the methods below are the engine's only entry
/// points into this module.
#[derive(Clone, Debug)]
pub(crate) struct MultiField {
    /// The secondary lattices, in field order. Parallel to `books` rather
    /// than paired with them because the engine hands the slice out
    /// ([`crate::DeltaNet::secondary_atoms`]).
    atoms: Vec<AtomMap>,
    books: Vec<BoundRefs>,
    walk: ClassWalk,
    /// Repair scratch, reused across updates: the updated switch's `near`
    /// set and the atoms repaired at it ([`Scope::At`]).
    near: Vec<NodeId>,
    local: Vec<AtomId>,
}

impl MultiField {
    /// The component over the given per-field `(lattice, books)` pairs —
    /// fresh ones for a new engine, restored ones from a snapshot — for a
    /// topology of `nodes` nodes. `None` when no secondary field is
    /// declared.
    pub(crate) fn new(lattices: Vec<(AtomMap, BoundRefs)>, nodes: usize) -> Option<MultiField> {
        if lattices.is_empty() {
            return None;
        }
        let (atoms, books): (Vec<_>, Vec<_>) = lattices.into_iter().unzip();
        Some(MultiField {
            walk: ClassWalk::new(&atoms, nodes),
            atoms,
            books,
            near: Vec::new(),
            local: Vec::new(),
        })
    }

    /// The secondary lattices, in field order.
    pub(crate) fn atoms(&self) -> &[AtomMap] {
        &self.atoms
    }

    /// Each lattice with its books, in field order (snapshot export).
    pub(crate) fn lattices(&self) -> impl Iterator<Item = (&AtomMap, &BoundRefs)> {
        self.atoms.iter().zip(&self.books)
    }

    /// The insert half of an update: per constrained field, reference the
    /// rule's bounds and create its atoms, recording the splits in `delta`.
    /// Classes are renumbered when anything split — the only time an insert
    /// can move a class's rank.
    pub(crate) fn acquire(&mut self, sec: &SecondaryMatch, delta: &mut DeltaGraph) {
        for (field, &interval) in sec.intervals().iter().enumerate() {
            self.books[field].acquire(&self.atoms[field], interval);
            for pair in self.atoms[field].create_atoms(interval) {
                delta.sec_split(field as u8, pair);
            }
        }
        if !delta.sec_splits.is_empty() {
            self.walk.reindex(&self.atoms);
        }
    }

    /// The remove half: drop the rule's references; its bounds stay in the
    /// lattices until [`MultiField::compact`].
    pub(crate) fn release(&mut self, sec: &SecondaryMatch) {
        for (field, &interval) in sec.intervals().iter().enumerate() {
            self.books[field].release(&self.atoms[field], interval);
        }
    }

    /// The secondary share of a compaction pass: merge and renumber every
    /// lattice, returning the number of atoms merged away. The per-field
    /// renumbering tables are discarded — only the walk kernel's class
    /// numbering follows the lattices. A merged-away class was
    /// rule-indistinguishable from its kept neighbour, so no monitored
    /// `∃ class` changes.
    pub(crate) fn compact(&mut self) -> usize {
        let mut merged = 0;
        for (atoms, books) in self.atoms.iter_mut().zip(&mut self.books) {
            merged += books.merge_dead(atoms, |_| {});
            atoms.renumber();
        }
        if merged > 0 {
            self.walk.reindex(&self.atoms);
        }
        merged
    }

    /// Unreferenced interior bounds across all secondary lattices.
    pub(crate) fn reclaimable(&self) -> usize {
        self.books.iter().map(BoundRefs::reclaimable).sum()
    }

    /// Heap bytes addressed by live entries of the lattices and books (the
    /// walk scratch is derived state and excluded, see
    /// [`crate::DeltaNet::live_bytes`]).
    pub(crate) fn live_bytes(&self) -> usize {
        self.lattices()
            .map(|(atoms, books)| atoms.live_bytes() + books.live_bytes())
            .sum()
    }

    /// Estimated heap usage of the lattices and books.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.lattices()
            .map(|(atoms, books)| atoms.memory_bytes() + books.memory_bytes())
            .sum()
    }

    /// The tail of one update: the per-update loop check (when `check`),
    /// then the repair of `monitor` — see the repair contract in the module
    /// docs. `interval` is the (clip-adjusted) interval the update ran on
    /// and `splits` the primary atoms it split.
    pub(crate) fn finish_update(
        &mut self,
        view: &MfView<'_>,
        rule: &Rule,
        interval: Interval,
        splits: &[DeltaPair],
        check: bool,
        monitor: Option<&mut ViolationMonitor>,
    ) -> Vec<InvariantViolation> {
        // The single-field engine's label-seeded walk is unsound under
        // cross-field intersection (labels are a primary-field projection,
        // and a secondary-constrained update can close a loop without
        // adding a single label bit), so the check is seeded from the rule.
        let violations = if check {
            let cycles = self.walk.loops_from_rule(view, rule, interval);
            loops::render_loops(&cycles, view.atoms)
        } else {
            Vec::new()
        };
        if let Some(monitor) = monitor {
            // The repair contract: a split's new atoms are scanned whole;
            // every other atom of the interval is repaired at the rule's
            // source, unless a rule above it there shadows it.
            let (topology, source) = (view.topology, rule.source);
            let out = topology.out_links(source).iter();
            let ends = out.map(|&link| topology.link(link).dst);
            self.near.clear();
            self.near.push(source);
            self.near
                .extend(ends.filter(|&n| !topology.is_drop_node(n)));
            self.near.sort_unstable();
            self.near.dedup();
            let split = |atom| splits.iter().any(|pair| pair.new == atom);
            let kept = |&atom: &AtomId| !split(atom) && !shadowed(view, rule, atom);
            self.local.clear();
            self.local
                .extend(view.atoms.iter_atoms_of(interval).filter(kept));
            let at = Scope::At {
                source,
                near: &self.near,
            };
            let whole = splits.iter().map(|pair| (pair.new, Scope::Whole));
            let local = self.local.iter().map(|&atom| (atom, at));
            let walk = &mut self.walk;
            monitor.rescan_atoms(whole.chain(local), |atom, scope, found| match scope {
                Scope::Whole => walk.scan_atom(view, atom, found),
                Scope::At { source, near } => walk.scan_at(view, atom, source, near, found),
            });
        }
        violations
    }

    /// The full scan, and the only read entry point: a monitor seeded from
    /// the current plane by the whole-atom scan a split atom is repaired
    /// with, over every atom. Scans take `&self`, so the walk runs on a
    /// scratch kernel; the live one's scratch stays the update path's.
    pub(crate) fn scan(&self, view: &MfView<'_>) -> ViolationMonitor {
        let mut walk = ClassWalk::new(&self.atoms, view.topology.node_count());
        let atoms = view.atoms.iter().map(|(atom, _)| atom);
        ViolationMonitor::seeded(atoms, |atom, found| walk.scan_atom(view, atom, found))
    }
}

/// Whether a rule above `rule` in `atom`'s cell at the rule's source admits
/// every class `rule` admits. Then `rule` wins no class of the atom, with or
/// without it installed, and the update leaves the atom's forwarding as it
/// was.
fn shadowed(view: &MfView<'_>, rule: &Rule, atom: AtomId) -> bool {
    let Some(cell) = view.owner.get(atom, rule.source) else {
        return false;
    };
    let key = (rule.priority, rule.id);
    let above = cell.as_slice().iter().rev();
    above
        .take_while(|owned| (owned.priority, owned.id) > key)
        .any(|owned| {
            view.rules
                .get(&owned.id)
                .is_some_and(|above| above.sec.covers(&rule.sec))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomset::AtomSet;
    use crate::engine::{DeltaNet, DeltaNetConfig};
    use netmodel::checker::{Checker, InvariantViolation};
    use netmodel::ip::IpPrefix;
    use netmodel::rule::Action;
    use netmodel::topology::LinkId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use testutil::{random_ops, random_topology, OpGen};

    const WIDTH: u8 = 8;
    type Src<'a> = &'a [(u128, u128)];

    /// `n` switches in a ring (`next[i]`: `s[i] -> s[(i + 1) % n]`), each
    /// with a drop link, under a multi-field engine that checks nothing
    /// per update.
    fn ring(n: usize, sec_widths: &[u8]) -> (DeltaNet, Vec<NodeId>, Vec<LinkId>, Vec<LinkId>) {
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", n);
        let next = (0..n).map(|i| topo.add_link(s[i], s[(i + 1) % n]));
        let next: Vec<LinkId> = next.collect();
        let drop = s.iter().map(|&node| topo.drop_link(node)).collect();
        let config = DeltaNetConfig {
            field_width: WIDTH,
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        };
        let net = DeltaNet::new(topo, config.with_secondary(sec_widths));
        (net, s, next, drop)
    }

    fn sec(src: Src) -> SecondaryMatch {
        let intervals: Vec<Interval> = src.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect();
        SecondaryMatch::new(&intervals)
    }

    /// A rule for the one prefix every fixture forwards, constrained to the
    /// source blocks `src` (one per secondary field; none = wildcard).
    fn fwd(id: u64, priority: u32, source: NodeId, link: LinkId, src: Src) -> Rule {
        let prefix = IpPrefix::new(0, 4, WIDTH);
        Rule::forward(RuleId(id), prefix, priority, source, link).with_secondary(sec(src))
    }

    fn deny(id: u64, priority: u32, source: NodeId, drop: LinkId, src: Src) -> Rule {
        Rule {
            action: Action::Drop,
            ..fwd(id, priority, source, drop, src)
        }
    }

    type Scan = (CycleMap, BTreeMap<NodeId, AtomSet>);

    fn scan_all(walk: &mut ClassWalk, view: &MfView<'_>) -> Scan {
        let (mut cycles, mut holes) = (CycleMap::new(), BTreeMap::new());
        for (atom, _) in view.atoms.iter() {
            walk.scan_atom(view, atom, &mut |found| {
                match found {
                    Found::Cycle(cycle) => loops::admit(&mut cycles, cycle, atom),
                    Found::Hole(node) => loops::admit(&mut holes, &node, atom),
                };
            });
        }
        (cycles, holes)
    }

    /// One secondary equivalence class, given by a representative value
    /// per declared secondary field (positions past the declared count
    /// stay 0). Within one atom of each secondary lattice every value is
    /// covered by the same set of rule intervals, so any witness — each
    /// atom's interval low bound here — decides `SecondaryMatch::matches`
    /// for the whole class.
    type SecClass = [Bound; MAX_SECONDARY_FIELDS];

    /// The cross product of the secondary lattices' atoms as representative
    /// classes.
    fn class_witnesses(sec_atoms: &[AtomMap]) -> Vec<SecClass> {
        let mut classes: Vec<SecClass> = vec![[0; MAX_SECONDARY_FIELDS]];
        for (field, map) in sec_atoms.iter().enumerate() {
            let mut next = Vec::new();
            for (_, interval) in map.iter() {
                for base in &classes {
                    let mut class = *base;
                    class[field] = interval.lo();
                    next.push(class);
                }
            }
            classes = next;
        }
        classes
    }

    /// The forwarding decision at `node` for primary atom `atom` and
    /// secondary class `class`: the link of the highest-priority rule that
    /// covers the atom *and* whose secondary intervals contain the class
    /// representative. Owner cells keep their entries sorted in increasing
    /// `(priority, id)` order, so the first match of a reverse scan is the
    /// winner. Rules that constrain no secondary fields match every class.
    fn successor(
        view: &MfView<'_>,
        node: NodeId,
        atom: AtomId,
        class: &SecClass,
    ) -> Option<LinkId> {
        let cell = view.owner.get(atom, node)?;
        let admits = |id| {
            view.rules
                .get(id)
                .is_some_and(|rule| rule.sec.matches(class))
        };
        let winner = cell.as_slice().iter().rev().find(|owned| admits(&owned.id));
        winner.map(|owned| owned.link)
    }

    /// The tuple-at-a-time reference the kernel replaced on the read path:
    /// every `(atom, class)` pair is one forwarding function, followed hop
    /// by hop from every node that owns a rule for the atom. Shares nothing
    /// with [`ClassWalk`] but the owner cells it reads.
    fn reference_scan(net: &DeltaNet) -> Scan {
        let view = net.mf_view();
        let (mut cycles, mut holes) = (CycleMap::new(), BTreeMap::new());
        let classes = class_witnesses(net.secondary_atoms());
        for (atom, _) in view.atoms.iter() {
            let emitters: Vec<NodeId> = view.owner.sources(atom).map(|(node, _)| node).collect();
            for class in &classes {
                // Where `node` sends the pair, if anywhere a switch: traffic
                // forwarded into the drop node was deliberately discarded
                // and never "arrives".
                let next = |node| {
                    let dst = view.topology.link(successor(&view, node, atom, class)?).dst;
                    (!view.topology.is_drop_node(dst)).then_some(dst)
                };
                // Loops found in different classes on the same node cycle
                // union their primary atoms, matching how violations
                // aggregate packet intervals.
                for &start in &emitters {
                    let mut path: Vec<NodeId> = Vec::new();
                    let mut current = Some(start);
                    while let Some(node) = current {
                        if let Some(pos) = path.iter().position(|&on_path| on_path == node) {
                            let mut cycle = path[pos..].to_vec();
                            loops::rotate_to_canonical(&mut cycle);
                            loops::admit(&mut cycles, &cycle[..], atom);
                            break;
                        }
                        path.push(node);
                        current = next(node);
                    }
                }
                // The pair blackholes at a switch some node's winner
                // delivers it to but which has no winner of its own; a
                // drop-rule winner counts as handled.
                for arrived in emitters.iter().filter_map(|&node| next(node)) {
                    if successor(&view, arrived, atom, class).is_none() {
                        loops::admit(&mut holes, &arrived, atom);
                    }
                }
            }
        }
        (cycles, holes)
    }

    /// Scans every atom of `net` with a fresh kernel; the union must be
    /// exactly what the tuple-at-a-time reference finds.
    fn kernel_scan(net: &DeltaNet) -> Scan {
        let view = net.mf_view();
        let mut walk = ClassWalk::new(net.secondary_atoms(), view.topology.node_count());
        let (cycles, holes) = scan_all(&mut walk, &view);
        let reference = reference_scan(net);
        assert_eq!(cycles, reference.0, "cycles");
        assert_eq!(holes, reference.1, "holes");
        (cycles, holes)
    }

    /// The maps inside `monitor`.
    fn maps(monitor: &ViolationMonitor) -> Scan {
        let (cycles, holes) = monitor.export_parts();
        let set = AtomSet::from_raw_words;
        (
            cycles.into_iter().map(|(c, w)| (c, set(w))).collect(),
            holes.into_iter().map(|(n, w)| (n, set(w))).collect(),
        )
    }

    /// What the shipping full scans see: the maps inside a from-scratch
    /// [`MultiField::scan`] monitor.
    fn production_scan(net: &DeltaNet) -> Scan {
        maps(&net.fresh_monitor())
    }

    /// The live monitor's maps after an update, which must be exactly what
    /// a fresh kernel (and the reference) finds in the plane.
    fn repaired(net: &DeltaNet) -> Scan {
        let live = maps(net.monitor().expect("the fixture is monitored"));
        assert_eq!(live, kernel_scan(net));
        live
    }

    /// How many cycles a seeded walk from `source` finds for the fixture
    /// prefix in the source blocks `src`.
    fn seeded(net: &DeltaNet, source: NodeId, link: LinkId, src: Src) -> usize {
        let view = net.mf_view();
        let mut walk = ClassWalk::new(net.secondary_atoms(), view.topology.node_count());
        let probe = fwd(999, 0, source, link, src);
        walk.loops_from_rule(&view, &probe, probe.interval()).len()
    }

    #[test]
    fn two_denies_split_the_classes_three_ways_and_only_the_middle_loops() {
        let (mut net, s, next, drop) = ring(3, &[6]);
        for i in 0..3 {
            net.insert_rule(fwd(i as u64, 1, s[i], next[i], &[]));
        }
        net.insert_rule(deny(10, 9, s[0], drop[0], &[(0, 16)]));
        net.insert_rule(deny(11, 9, s[1], drop[1], &[(32, 64)]));
        let (cycles, holes) = kernel_scan(&net);
        assert_eq!(cycles.keys().collect::<Vec<_>>(), vec![&s]);
        assert!(holes.is_empty());
        // Class by class: only sources in [16, 32) ride the ring.
        let riding = |src| seeded(&net, s[2], next[2], src);
        assert_eq!(
            [riding(&[(0, 16)]), riding(&[(16, 32)]), riding(&[(32, 64)])],
            [0, 1, 0]
        );
    }

    #[test]
    fn a_set_reentering_its_own_path_as_a_strict_subset_closes_the_cycle() {
        // s0 -> s1 -> s2 carries every class; s2 sends only [0, 16) on to
        // s0, which is on the path holding the full set when they arrive.
        let (mut net, s, next, _) = ring(3, &[6]);
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        net.insert_rule(fwd(1, 1, s[1], next[1], &[]));
        net.insert_rule(fwd(2, 1, s[2], next[2], &[(0, 16)]));
        let (cycles, holes) = kernel_scan(&net);
        assert_eq!(cycles.keys().collect::<Vec<_>>(), vec![&s]);
        // The classes s2 does not send on die there.
        assert_eq!(holes.keys().collect::<Vec<_>>(), vec![&s[2]]);
    }

    #[test]
    fn the_full_loop_audit_finds_a_loop_no_label_walk_shows() {
        // s0 and s1 forward everything to each other; a higher-priority
        // deny at s0 takes sources [10, 20) out. Labels are a primary-field
        // projection, so at s0 the deny owns every label bit and a label
        // walk sees no loop — while every other source rides s0 -> s1 -> s0.
        let (mut net, s, next, drop) = ring(2, &[8]);
        let all = IpPrefix::new(0, 0, WIDTH);
        net.insert_rule(Rule::forward(RuleId(0), all, 1, s[0], next[0]));
        net.insert_rule(Rule::forward(RuleId(1), all, 1, s[1], next[1]));
        let deny = Rule::drop(RuleId(2), all, 10, s[0], drop[0]);
        net.insert_rule(deny.with_secondary(sec(&[(10, 20)])));
        assert!(loops::find_all_loops(net.topology(), net.labels(), net.atoms()).is_empty());
        assert_eq!(
            net.check_all_loops(),
            vec![InvariantViolation::ForwardingLoop {
                nodes: vec![s[0], s[1]],
                packets: vec![Interval::new(0, 256)],
            }]
        );
    }

    #[test]
    fn a_deny_shadowed_by_a_higher_priority_wildcard_wins_nothing() {
        let (mut net, s, next, drop) = ring(2, &[6]);
        net.insert_rule(fwd(0, 10, s[0], next[0], &[]));
        net.insert_rule(fwd(1, 10, s[1], next[1], &[]));
        net.insert_rule(deny(2, 5, s[0], drop[0], &[(0, 16)]));
        let (cycles, holes) = kernel_scan(&net);
        assert_eq!((cycles.len(), holes.len()), (1, 0));
        // Seeded with the shadowed deny's own classes, the walk still
        // follows the wildcard round the loop.
        assert_eq!(seeded(&net, s[0], drop[0], &[(0, 16)]), 1);
    }

    #[test]
    fn a_drop_rule_winner_counts_as_handled() {
        let (mut net, s, next, drop) = ring(2, &[6]);
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        net.insert_rule(deny(1, 1, s[1], drop[1], &[(0, 16)]));
        // [0, 16) is discarded on purpose at s1; [16, 64) dies there.
        let (_, holes) = kernel_scan(&net);
        assert_eq!(holes.keys().collect::<Vec<_>>(), vec![&s[1]]);
        net.insert_rule(deny(2, 0, s[1], drop[1], &[]));
        let (cycles, holes) = kernel_scan(&net);
        assert!(cycles.is_empty() && holes.is_empty());
    }

    #[test]
    fn rank_range_rows_cross_a_word_boundary_on_two_secondary_fields() {
        let (mut net, s, next, drop) = ring(2, &[4, 4]);
        // Nine atoms on the first secondary field, eight on the second: 72
        // classes, two words.
        let other = IpPrefix::new(128, 4, WIDTH);
        for i in 0..8u128 {
            let cuts = sec(&[(i, i + 1), (2 * i, 2 * i + 2)]);
            let rule = Rule::forward(RuleId(100 + i as u64), other, 1, s[0], next[0]);
            net.insert_rule(rule.with_secondary(cuts));
        }
        let lattices = net.secondary_atoms();
        assert_eq!((lattices[0].atom_count(), lattices[1].atom_count()), (9, 8));
        // The closing rule admits ranks 0..9 × 6..8: class rows 54..63 and
        // 63..72, the second straddling bit 64.
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        net.insert_rule(fwd(1, 1, s[1], next[1], &[(0, 16), (12, 16)]));
        let (cycles, holes) = kernel_scan(&net);
        assert_eq!(cycles.len(), 1);
        assert!(holes.contains_key(&s[1]));
        let riding = |src| seeded(&net, s[1], next[1], src);
        assert_eq!(riding(&[(0, 16), (12, 16)]), 1);
        assert_eq!(riding(&[(0, 16), (0, 12)]), 0);
        // A narrower deny inside the straddling row takes its classes out
        // of the loop without disturbing the rest.
        net.insert_rule(deny(2, 9, s[1], drop[1], &[(1, 3), (14, 16)]));
        kernel_scan(&net);
        let riding = |src| seeded(&net, s[1], next[1], src);
        assert_eq!(riding(&[(1, 3), (14, 16)]), 0);
        assert_eq!(riding(&[(3, 4), (14, 16)]), 1);
    }

    #[test]
    fn stamp_wrap_around_forgets_nothing_it_needs() {
        let (mut net, s, next, _) = ring(3, &[6]);
        for i in 0..3 {
            net.insert_rule(fwd(i as u64, 1, s[i], next[i], &[(8, 16)]));
        }
        let view = net.mf_view();
        let mut walk = ClassWalk::new(net.secondary_atoms(), view.topology.node_count());
        let expected = scan_all(&mut walk, &view);
        assert_eq!((expected.0.len(), expected.1.len()), (1, 0));
        // Leave stale rows stamped just below the wrap, then cross it.
        walk.generation = u32::MAX - 1;
        walk.stamp.fill(u32::MAX - 1);
        assert_eq!(scan_all(&mut walk, &view), expected);
        assert!(walk.generation < 16);
    }

    // The repair contract, one fixture per rule. Each plane is built, then
    // monitored, so the update under test is repaired incrementally, and
    // every atom it touches existed before it: the repair runs at the
    // updated switch, never over a whole split atom.

    #[test]
    fn a_hole_appears_and_clears_at_the_far_end_of_the_updated_switch() {
        // s1 discards sources [0, 16) and has nothing for the rest. Once s0
        // forwards the prefix to s1, the rest dies at s1: a switch whose
        // own rules the update did not touch.
        let (mut net, s, next, drop) = ring(2, &[6]);
        net.insert_rule(deny(1, 1, s[1], drop[1], &[(0, 16)]));
        net.enable_monitor();
        let feed = fwd(0, 1, s[0], next[0], &[]);
        net.insert_rule(feed);
        assert_eq!(repaired(&net).1.keys().collect::<Vec<_>>(), vec![&s[1]]);
        net.remove_rule(feed.id);
        assert!(repaired(&net).1.is_empty());
    }

    #[test]
    fn a_tracked_cycle_that_avoids_the_updated_switch_survives() {
        // s1 and s2 bounce the prefix between them; s0, off the cycle,
        // starts and stops discarding it. No class s0 decides reaches the
        // cycle, so a walk from s0 cannot re-admit the atom to it.
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 3);
        let (there, back) = (topo.add_link(s[1], s[2]), topo.add_link(s[2], s[1]));
        topo.add_link(s[0], s[1]);
        let discard = topo.drop_link(s[0]);
        let config = DeltaNetConfig {
            field_width: WIDTH,
            monitor_violations: true,
            ..DeltaNetConfig::default()
        };
        let mut net = DeltaNet::new(topo, config.with_secondary(&[6]));
        net.insert_rule(fwd(1, 1, s[1], there, &[]));
        net.insert_rule(fwd(2, 1, s[2], back, &[(0, 32)]));
        let cycle = vec![s[1], s[2]];
        assert_eq!(repaired(&net).0.keys().collect::<Vec<_>>(), vec![&cycle]);
        let off_cycle = deny(0, 1, s[0], discard, &[]);
        net.insert_rule(off_cycle);
        assert_eq!(repaired(&net).0.keys().collect::<Vec<_>>(), vec![&cycle]);
        net.remove_rule(off_cycle.id);
        assert_eq!(repaired(&net).0.keys().collect::<Vec<_>>(), vec![&cycle]);
        assert!(net.monitor().unwrap().last_events().is_empty());
    }

    #[test]
    fn only_a_higher_rule_whose_match_covers_the_update_shadows_it() {
        // s0 sends everything to s1, which discards sources [0, 16) above
        // all else and has nothing for the rest: they die at s1.
        let (mut net, s, next, drop) = ring(2, &[6]);
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        net.insert_rule(deny(1, 9, s[1], drop[1], &[(0, 16)]));
        net.enable_monitor();
        let before = repaired(&net);
        assert_eq!(before.1.keys().collect::<Vec<_>>(), vec![&s[1]]);
        // Sources [0, 8) sit inside the deny's match: the rule sending
        // them back wins nothing, and nothing moves.
        let covered = fwd(2, 4, s[1], next[1], &[(0, 8)]);
        net.insert_rule(covered);
        assert_eq!(repaired(&net), before);
        assert!(net.monitor().unwrap().last_events().is_empty());
        // A wildcard below the same deny wins [16, 64): they now ride the
        // ring, and no longer die at s1.
        let uncovered = fwd(3, 5, s[1], next[1], &[]);
        net.insert_rule(uncovered);
        let closed = repaired(&net);
        assert_eq!(closed.0.keys().collect::<Vec<_>>(), vec![&s]);
        assert!(closed.1.is_empty());
        net.remove_rule(uncovered.id);
        assert_eq!(repaired(&net), before);
        net.remove_rule(covered.id);
        assert_eq!(repaired(&net), before);
    }

    #[test]
    fn production_scans_equal_the_reference_after_every_op_of_a_seeded_churn() {
        for (seed, sec_widths) in [(0u64, &[6u8][..]), (1, &[4, 3])] {
            let mut rng = StdRng::seed_from_u64(0x5CA_F1E1D ^ seed);
            let topo = random_topology(&mut rng, 5, true);
            let gen = OpGen::new(WIDTH, 20, 0.3).with_secondary(sec_widths);
            let ops = random_ops(&mut rng, &topo, 120, gen);
            let config = DeltaNetConfig {
                field_width: WIDTH,
                ..DeltaNetConfig::default()
            };
            let mut net = DeltaNet::new(topo, config.with_secondary(sec_widths));
            let (mut with_loops, mut with_holes, mut merged) = (0, 0, 0);
            for (i, op) in ops.iter().enumerate() {
                net.try_apply(op)
                    .unwrap_or_else(|e| panic!("seed {seed} op {i} rejected: {e}"));
                if i == ops.len() / 2 {
                    // Renumbers the primary atoms and the classes under
                    // both implementations.
                    merged = net.compact().merged_atoms;
                }
                let scan = production_scan(&net);
                assert_eq!(scan, reference_scan(&net), "seed {seed} op {i}");
                with_loops += usize::from(!scan.0.is_empty());
                with_holes += usize::from(!scan.1.is_empty());
            }
            assert!(
                with_loops > 0 && with_holes > 0 && merged > 0,
                "seed {seed}: trace too tame ({with_loops} ops with loops, \
                 {with_holes} with blackholes, {merged} atoms merged)"
            );
        }
    }

    #[test]
    fn a_20_000_switch_ring_closes_inside_a_2_mib_stack() {
        // One frame per hop on the call stack would need far more than
        // this thread has; the walk's stack is a heap vector.
        const SWITCHES: usize = 20_000;
        let test = || {
            let (mut net, s, next, _) = ring(SWITCHES, &[6]);
            // Unmonitored and unchecked, so the preload is linear.
            let last = SWITCHES - 1;
            for i in 0..last {
                net.insert_rule(fwd(i as u64, 1, s[i], next[i], &[(8, 24)]));
            }
            net.insert_rule(fwd(last as u64, 1, s[last], next[last], &[]));
            assert_eq!(seeded(&net, s[last], next[last], &[]), 1);
            let monitor = net.enable_monitor();
            assert_eq!((monitor.loop_count(), monitor.blackhole_count()), (1, 1));
            let mut scans = net.check_all_loops();
            let ring_len = match &scans[0] {
                InvariantViolation::ForwardingLoop { nodes, .. } => nodes.len(),
                InvariantViolation::Blackhole { .. } => 0,
            };
            assert_eq!(ring_len, SWITCHES);
            scans.extend(net.check_all_blackholes());
            assert_eq!(net.active_violations(), Some(scans));
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(test)
            .expect("spawn the small-stack thread")
            .join()
            .expect("the ring walk overflowed or failed");
    }
}

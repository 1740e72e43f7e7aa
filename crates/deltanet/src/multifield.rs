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
//! books and the walk kernel — is one `MultiField`, which the engine holds
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
//! `ClassWalk` is the only evaluation of that predicate outside test
//! code. It works **set at a time**: per atom, each emitter's classes are
//! partitioned once by winning rule, and one walk carries the *set* of
//! classes still alive along the path — the step Query-Subquery Nets make
//! for Horn evaluation, pushing a relation through the net instead of one
//! binding at a time. Almost every class shares one winner at almost every
//! hop, so the walk costs a few word operations per hop whatever the class
//! count. The per-update check, the monitor repair and the full scans
//! (`MultiField::scan`, behind `check_all_loops` /
//! `check_all_blackholes` and `enable_monitor`, also on an engine restored
//! from a snapshot) all run it; a full scan walks every atom from every
//! emitter (`ClassWalk::scan_atom`) on a scratch kernel of its own.
//!
//! Three references evaluate the predicate **tuple at a time** — one
//! successor walk per `(α, c)` pair — and share no code with the kernel:
//!
//! * `reference_scan`, in this module's tests, reads the same owner cells
//!   the kernel does and is compared against it as exact maps, fixture by
//!   fixture and after every op of a seeded churn.
//! * `reference_check`, beside it, follows every class the updated rule
//!   admits from the rule's source, atom by atom of its interval, and is
//!   what each op's per-update report is held to in that churn, monitored
//!   and unmonitored.
//! * `veriflow_ri::scan_multifield` is stateless — it recomputes every
//!   class of every field from the live rule set alone, sharing no owner
//!   cells either — and is what `tests/multifield_differential.rs` holds
//!   the full scans to after every operation.
//!
//! What the live monitor is compared with in that suite and the
//! benchmark's `acl-multifield` oracle is therefore the kernel run
//! from scratch: incremental versus from-scratch, not kernel versus
//! reference.
//!
//! ## The repair contract
//!
//! The monitor tracks `loops[C] ∋ α ⇔ ∃c. C is a cycle of F_{α,c}`, and
//! `holes[n] ∋ α ⇔ ∃c` forwarded into switch n with no decision there. One
//! rule update at `s = source(r)` changes `F_{α,c}` only at `s`, and only
//! for atoms of its (clip-adjusted) interval. A secondary split refines the
//! classes without changing any `∃c`. So a monitored update
//! (`MultiField::finish_update`,
//! `crate::monitor::ViolationMonitor::repair_at`) is one pass per atom of
//! the interval at `s`, the whole class set at a time. The pass skips an
//! atom where a rule above `r` in its owner cell at `s` admits every class
//! `r` admits: `r` wins no class of it with or without it installed, so
//! `F_{α,c}` does not change at all. Any other atom is retired only from
//! tracked cycles through `s` and from the holes at `near` (`s` and the far
//! ends of its out-links): a cycle avoiding `s` and a hole anywhere else
//! rest on decisions the update did not touch. Then three rules, each
//! exact, re-decide the rest:
//!
//! * **Split atoms inherit.** A split's new atom takes its old atom's
//!   tracked cycles and holes, pair by pair in creation order (a chained
//!   split copies A→B→C), and is then repaired like any other atom of the
//!   interval; an upper split's new atom lies outside it and is not
//!   repaired at all. *Sound:* the split cloned the old atom's owner cells,
//!   so before the update the new atom forwarded exactly like it.
//! * **The check rides the repair's walk.** One walk from `s` carries every
//!   class and re-admits each cycle some class closes; a cycle whose
//!   closing classes meet the rule's also goes into the per-update check.
//!   *Sound:* each class has one successor per node, so it follows one path
//!   from `s` whatever else is carried, and closes the same cycles as on a
//!   walk carrying only the rule's classes.
//! * **Blackholes around `s` are decided from what changed.** At `s`, an
//!   insert only adds winners and a removal only takes them away: after an
//!   insert an atom untracked there has no hole, after a removal a tracked
//!   one keeps it, and otherwise the hole is judged from all of `s`'s
//!   in-neighbours. At an out-neighbour `n ≠ s`, a class of `s`'s groups
//!   that dies at `n` is a hole; else an atom untracked at `n` has none,
//!   and a tracked one is re-judged from `n`'s other in-neighbours.
//!   *Sound:* what arrives at `s` from elsewhere and every decision at
//!   `n` are unchanged, and a class `s` sends to itself has a winner there.
//!
//! No per-class state is kept anywhere. An atom the pass skips still gets
//! the check's standalone walk, started at `s` with the rule's own classes
//! (`ClassWalk::loops_from_rule`, which is also the whole check of an
//! unmonitored engine): any loop the update closes routes through that
//! node, and the loops it reports are the ones the rule's classes ride,
//! whoever wins them.
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
use crate::monitor::{Found, ViolationMonitor};
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
    /// The classes the updated rule admits while its per-update check
    /// runs, else none ([`ClassWalk::begin_check`]).
    rule: Vec<u64>,
    /// The per-update check's result, reused across updates: every cycle
    /// a walk closed with some of `rule`'s classes, and its atoms.
    checked: CycleMap,
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
        self.rule.resize(self.words, 0);
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
    /// every set carried since, so each rode every hop of it — and the
    /// check admits the cycle when some of them are the rule's. Otherwise
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
            if self.set.iter().zip(&self.rule).any(|(s, r)| s & r != 0) {
                loops::admit(&mut self.checked, &self.cycle[..], atom);
            }
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

    /// Every violation of `atom` over all secondary classes — the full
    /// scan's unit: one winner partition per emitter, the blackholes that
    /// fall out of it (a group lands where some of its classes have no
    /// winner), and one walk per emitter. The module docs' two predicates
    /// restricted to the atom; a finding may be reported more than once.
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

    /// The repair of one atom after a rule at `source` was inserted
    /// (`was_insert`) or removed, over all secondary classes (the repair
    /// contract in the module docs): the blackhole at each `near` switch,
    /// decided from what `source` changed and from whether the atom was
    /// tracked there before, and every cycle one walk from `source`
    /// closes. A finding may be reported more than once.
    fn scan_at(
        &mut self,
        view: &MfView<'_>,
        atom: AtomId,
        source: NodeId,
        near: &[(NodeId, bool)],
        was_insert: bool,
        found: &mut dyn FnMut(Found<'_>),
    ) {
        self.begin_atom();
        for &(node, was) in near {
            let hole = if node == source {
                // An insert only adds winners here, a removal only takes
                // them away: one of the two settles the hole as it was.
                if was != was_insert {
                    was
                } else {
                    self.fed_hole(view, atom, node, None)
                }
            } else {
                self.dies_from(view, atom, source, node)
                    || was && self.fed_hole(view, atom, node, Some(source))
            };
            if hole {
                found(Found::Hole(node));
            }
        }
        self.set.copy_from_slice(&self.full);
        self.walk(view, atom, source, found);
    }

    /// Whether an in-neighbour of `node` other than `except` sends it a
    /// class that has no winner there.
    fn fed_hole(
        &mut self,
        view: &MfView<'_>,
        atom: AtomId,
        node: NodeId,
        except: Option<NodeId>,
    ) -> bool {
        let topology = view.topology;
        let feeds = topology
            .in_links(node)
            .iter()
            .map(|&link| topology.link(link).src);
        feeds
            .filter(|&from| Some(from) != except)
            .any(|from| self.dies_from(view, atom, from, node))
    }

    /// Whether some class `from` sends into `node` has no winner there.
    fn dies_from(&mut self, view: &MfView<'_>, atom: AtomId, from: NodeId, node: NodeId) -> bool {
        self.touch(view, atom, from);
        let (start, end) = self.groups_of[from.index()];
        (start as usize..end as usize)
            .any(|g| self.group_dst[g] == Some(node) && self.dies_at(view, atom, g, node))
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

    /// Starts an update's per-update check: the classes `sec` admits are
    /// the rule's, or none when there is no check to run, and nothing is
    /// checked yet.
    fn begin_check(&mut self, sec: Option<&SecondaryMatch>) {
        self.checked.clear();
        match sec {
            Some(sec) => Self::admitted(&self.lows, sec, &mut self.rule),
            None => self.rule.fill(0),
        }
    }

    /// The check's standalone walk of one atom: the rule's own classes
    /// from `source`, so every cycle it closes is the check's.
    fn check_from(&mut self, view: &MfView<'_>, atom: AtomId, source: NodeId) {
        self.begin_atom();
        self.set.copy_from_slice(&self.rule);
        self.walk(view, atom, source, &mut |_| {});
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
    ) -> &CycleMap {
        self.begin_check(Some(&rule.sec));
        for atom in view.atoms.iter_atoms_of(interval) {
            self.check_from(view, atom, rule.source);
        }
        &self.checked
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
    /// Repair scratch, reused across updates: the atoms repaired at the
    /// updated switch.
    local: Vec<AtomId>,
}

impl MultiField {
    /// The component over fresh lattices of the given secondary field
    /// widths, for a topology of `nodes` nodes. `None` when no secondary
    /// field is declared.
    pub(crate) fn new(widths: &[u8], nodes: usize) -> Option<MultiField> {
        if widths.is_empty() {
            return None;
        }
        let atoms: Vec<AtomMap> = widths.iter().map(|&width| AtomMap::new(width)).collect();
        Some(MultiField {
            walk: ClassWalk::new(&atoms, nodes),
            books: vec![BoundRefs::default(); atoms.len()],
            atoms,
            local: Vec::new(),
        })
    }

    /// The secondary lattices, in field order.
    pub(crate) fn atoms(&self) -> &[AtomMap] {
        &self.atoms
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
        let atoms: usize = self.atoms.iter().map(AtomMap::live_bytes).sum();
        atoms + self.books.iter().map(BoundRefs::live_bytes).sum::<usize>()
    }

    /// Estimated heap usage of the lattices and books.
    pub(crate) fn memory_bytes(&self) -> usize {
        let atoms: usize = self.atoms.iter().map(AtomMap::memory_bytes).sum();
        atoms
            + self
                .books
                .iter()
                .map(BoundRefs::memory_bytes)
                .sum::<usize>()
    }

    /// The tail of one update: the per-update loop check (when `check`)
    /// and the repair of `monitor`, in one pass per atom at the rule's
    /// source — see the repair contract in the module docs. `interval` is
    /// the (clip-adjusted) interval the update ran on, `splits` the primary
    /// atoms it split, in creation order, and `was_insert` says which way
    /// the rule went.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_update(
        &mut self,
        view: &MfView<'_>,
        rule: &Rule,
        interval: Interval,
        splits: &[DeltaPair],
        was_insert: bool,
        check: bool,
        monitor: Option<&mut ViolationMonitor>,
    ) -> Vec<InvariantViolation> {
        // The single-field engine's label-seeded walk is unsound under
        // cross-field intersection (labels are a primary-field projection,
        // and a secondary-constrained update can close a loop without
        // adding a single label bit), so the check is seeded from the rule.
        let walk = &mut self.walk;
        if let Some(monitor) = monitor {
            let source = rule.source;
            walk.begin_check(check.then_some(&rule.sec));
            // A shadowed atom's forwarding does not change, so only the
            // check walks it.
            self.local.clear();
            for atom in view.atoms.iter_atoms_of(interval) {
                if !shadowed(view, rule, atom) {
                    self.local.push(atom);
                } else if check {
                    walk.check_from(view, atom, source);
                }
            }
            monitor.repair_at(
                view.topology,
                splits,
                &self.local,
                &[source],
                |atom, near, found| walk.scan_at(view, atom, source, near, was_insert, found),
            );
        } else if check {
            walk.loops_from_rule(view, rule, interval);
        }
        if check {
            loops::render_loops(&walk.checked, view.atoms)
        } else {
            Vec::new()
        }
    }

    /// The full scan, and the only read entry point: a monitor seeded from
    /// the current plane by the whole-atom scan of every atom. Scans take
    /// `&self`, so the walk runs on a scratch kernel; the live one's
    /// scratch stays the update path's.
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
    use netmodel::trace::Op;
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

    /// The tuple-at-a-time per-update check for `rule`, just inserted into
    /// or removed from `net`: every class the rule admits, of every atom of
    /// its interval, followed hop by hop from the rule's source until it
    /// leaves the network or returns to its own path. Shares nothing with
    /// [`ClassWalk`] but the owner cells it reads.
    fn reference_check(net: &DeltaNet, rule: &Rule) -> Vec<InvariantViolation> {
        let view = net.mf_view();
        let mut cycles = CycleMap::new();
        let classes = class_witnesses(net.secondary_atoms());
        let admitted = classes.iter().filter(|&class| rule.sec.matches(class));
        for class in admitted {
            for atom in view.atoms.iter_atoms_of(rule.interval()) {
                let mut path: Vec<NodeId> = Vec::new();
                let mut current = Some(rule.source);
                while let Some(node) = current {
                    if let Some(pos) = path.iter().position(|&on_path| on_path == node) {
                        let mut cycle = path[pos..].to_vec();
                        loops::rotate_to_canonical(&mut cycle);
                        loops::admit(&mut cycles, &cycle[..], atom);
                        break;
                    }
                    path.push(node);
                    let link = successor(&view, node, atom, class);
                    current = link.map(|link| view.topology.link(link).dst);
                }
            }
        }
        loops::render_loops(&cycles, view.atoms)
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
        let (cycles, holes) = monitor.maps();
        (cycles.clone(), holes.clone())
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
    fn a_hole_fed_by_another_in_neighbour_survives_the_updated_switch_leaving() {
        // m sends the prefix into n, which has nothing for it: a hole. s
        // starts and stops feeding n too; the hole is m's all along.
        let mut topo = Topology::new();
        let [s, m, n] = [0, 1, 2].map(|i| topo.add_node(format!("s{i}")));
        let (s_n, m_n) = (topo.add_link(s, n), topo.add_link(m, n));
        let config = DeltaNetConfig {
            field_width: WIDTH,
            ..DeltaNetConfig::default()
        };
        let mut net = DeltaNet::new(topo, config.with_secondary(&[6]));
        net.insert_rule(fwd(1, 1, m, m_n, &[]));
        net.enable_monitor();
        let feed = fwd(0, 1, s, s_n, &[(0, 16)]);
        for update in [Op::Insert(feed), Op::Remove(feed.id)] {
            net.try_apply(&update).unwrap();
            assert_eq!(repaired(&net).1.keys().collect::<Vec<_>>(), vec![&n]);
            assert!(net.monitor().unwrap().last_events().is_empty());
        }
    }

    #[test]
    fn an_insert_at_the_updated_switch_clears_its_hole() {
        // s0 sends the prefix to s1, which has nothing for it until a
        // deny there handles every class.
        let (mut net, s, next, drop) = ring(2, &[6]);
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        net.enable_monitor();
        assert_eq!(repaired(&net).1.keys().collect::<Vec<_>>(), vec![&s[1]]);
        net.insert_rule(deny(1, 1, s[1], drop[1], &[]));
        assert!(repaired(&net).1.is_empty());
    }

    #[test]
    fn a_removal_at_the_updated_switch_opens_a_hole_there() {
        // s1 denies every class s0 sends it, until the deny goes.
        let (mut net, s, next, drop) = ring(2, &[6]);
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        let deny_all = deny(1, 1, s[1], drop[1], &[]);
        net.insert_rule(deny_all);
        net.enable_monitor();
        assert!(repaired(&net).1.is_empty());
        net.remove_rule(deny_all.id);
        assert_eq!(repaired(&net).1.keys().collect::<Vec<_>>(), vec![&s[1]]);
    }

    #[test]
    fn a_chained_split_inherits_its_old_atoms_hole_from_a_to_b_to_c() {
        // The prefix [0, 16) is one atom A, dying at s1. A rule for [4, 8)
        // at s2 splits A at 4 (A → B = [4, 16)) and then B at 8 (B → C =
        // [8, 16)). C lies outside the rule's interval and is not
        // repaired: only B's copy of A's hole tells it where it dies.
        let (mut net, s, next, _) = ring(3, &[6]);
        net.insert_rule(fwd(0, 1, s[0], next[0], &[]));
        net.enable_monitor();
        let narrow = IpPrefix::new(4, 6, WIDTH);
        net.insert_rule(Rule::forward(RuleId(1), narrow, 1, s[2], next[2]));
        let splits = &net.last_delta().splits;
        assert_eq!(splits.len(), 2);
        assert_eq!(
            splits[0].new, splits[1].old,
            "the second split cuts the first's new atom"
        );
        let (_, holes) = repaired(&net);
        assert_eq!(holes[&s[1]].len(), 3);
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
        // On an unmonitored and a monitored engine alike, each op's
        // per-update report and the full scans, and the monitored engine's
        // live state, each against its tuple-at-a-time reference.
        for (seed, sec_widths) in [(0u64, &[6u8][..]), (1, &[4, 3])] {
            let mut rng = StdRng::seed_from_u64(0x5CA_F1E1D ^ seed);
            let topo = random_topology(&mut rng, 5, true);
            let gen = OpGen::new(WIDTH, 20, 0.3).with_secondary(sec_widths);
            let ops = random_ops(&mut rng, &topo, 120, gen);
            for monitored in [false, true] {
                let config = DeltaNetConfig {
                    field_width: WIDTH,
                    monitor_violations: monitored,
                    ..DeltaNetConfig::default()
                };
                let mut net = DeltaNet::new(topo.clone(), config.with_secondary(sec_widths));
                let (mut reported, mut with_loops, mut with_holes, mut merged) = (0, 0, 0, 0);
                for (i, op) in ops.iter().enumerate() {
                    let at = format!("seed {seed}, monitored {monitored}, op {i}");
                    let rule = match op {
                        Op::Insert(rule) => *rule,
                        Op::Remove(id) => *net.rule(*id).expect("the churn removes live rules"),
                    };
                    let report = net
                        .try_apply(op)
                        .unwrap_or_else(|e| panic!("{at} rejected: {e}"));
                    assert_eq!(report.violations, reference_check(&net, &rule), "{at}");
                    reported += usize::from(!report.violations.is_empty());
                    if i == ops.len() / 2 {
                        // Renumbers the primary atoms and the classes under
                        // both implementations.
                        merged = net.compact().merged_atoms;
                    }
                    let reference = reference_scan(&net);
                    if monitored {
                        assert_eq!(maps(net.monitor().unwrap()), reference, "{at}");
                    }
                    let scan = production_scan(&net);
                    assert_eq!(scan, reference, "{at}");
                    with_loops += usize::from(!scan.0.is_empty());
                    with_holes += usize::from(!scan.1.is_empty());
                }
                assert!(
                    reported > 0 && with_loops > 0 && with_holes > 0 && merged > 0,
                    "seed {seed}: trace too tame ({reported} reports with loops, \
                     {with_loops} ops with loops, {with_holes} with blackholes, \
                     {merged} atoms merged)"
                );
            }
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

//! Shared, seeded generators for the randomized differential suites.
//!
//! The suites run on one differential driver in the root crate's
//! `tests/support/`, which turns a generated op stream into checks against
//! every engine shape; this crate holds what that driver and `deltanet`'s
//! own unit tests both need, so it depends on nothing but `netmodel` and
//! `rand`. The generators are:
//!
//! * **Seeded** — every generator is a pure function of the caller's
//!   [`StdRng`], so a failing case reproduces from its printed seed alone.
//! * **Shrink-friendly** — [`random_ops`] returns a *well-formed trace as
//!   data*: every `Remove` refers to a rule inserted earlier and still
//!   live, so **any prefix of the trace is itself a well-formed trace**.
//!   Minimizing a failure is replaying prefixes (binary-search the length),
//!   no generator state needed.
//!
//! The generators intentionally target a *small* (8-bit by default) address
//! space: the oracles exhaustively check all 256 addresses, and narrow
//! spaces make rules overlap and atoms split aggressively — the regime the
//! differential suites exist to stress.
//!
//! Two pieces are not generators: [`alloc_count`], a counting global
//! allocator for tests that pin a code path's footprint by bytes allocated
//! instead of by time, and [`OwnerModel`], the `BTreeMap` reference the
//! engine's owner arena is differentially tested against.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;

use netmodel::checker::InvariantViolation;
use netmodel::header::SecondaryMatch;
use netmodel::interval::{normalize, Interval};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Priority, Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Builds a random strongly-connected topology with `n` switches: a ring
/// for strong connectivity plus `n` random chords, and (when requested) one
/// drop link per switch so drop rules can be generated without mutating the
/// topology mid-trace.
pub fn random_topology(rng: &mut StdRng, n: usize, with_drop_links: bool) -> Topology {
    let mut topo = Topology::new();
    let nodes = topo.add_nodes("s", n);
    for i in 0..n {
        topo.add_bidi_link(nodes[i], nodes[(i + 1) % n]);
    }
    for _ in 0..n {
        let a = nodes[rng.gen_range(0..n)];
        let b = nodes[rng.gen_range(0..n)];
        if a != b {
            topo.add_link(a, b);
        }
    }
    if with_drop_links {
        for node in topo.switch_nodes().collect::<Vec<_>>() {
            topo.drop_link(node);
        }
    }
    topo
}

/// Draws a random non-empty interval inside a `width`-bit field space.
pub fn random_interval(rng: &mut StdRng, width: u8) -> Interval {
    let max = 1u128 << width;
    let lo = rng.gen_range(0..max - 1);
    let hi = rng.gen_range(lo + 1..=max);
    Interval::new(lo, hi)
}

/// Generates a random rule over a `width`-bit address space: a random
/// prefix (all lengths `0..=width` equally likely, so wide rules straddling
/// shard boundaries are common), a random source switch, priority in
/// `1..=max_priority`, and a 10% chance of being an explicit drop rule —
/// taken only when the switch has a pre-created drop link
/// ([`random_topology`] with `with_drop_links: true`). The topology is
/// never mutated: a trace generated after an engine cloned the topology
/// must not reference links the engine has never seen.
pub fn random_rule(
    rng: &mut StdRng,
    topo: &Topology,
    id: u64,
    width: u8,
    max_priority: u32,
) -> Rule {
    let switches: Vec<NodeId> = topo.switch_nodes().collect();
    let source = switches[rng.gen_range(0..switches.len())];
    let len = rng.gen_range(0..=width);
    let value = rng.gen_range(0u128..1u128 << width);
    let prefix = IpPrefix::new(value, len, width);
    let priority = rng.gen_range(1..=max_priority);
    let drop_link = topo
        .out_links(source)
        .iter()
        .copied()
        .find(|&l| topo.is_drop_link(l));
    if let (true, Some(dl)) = (rng.gen_bool(0.1), drop_link) {
        Rule::drop(RuleId(id), prefix, priority, source, dl)
    } else {
        let out: Vec<LinkId> = topo
            .out_links(source)
            .iter()
            .copied()
            .filter(|&l| !topo.is_drop_link(l))
            .collect();
        let link = out[rng.gen_range(0..out.len())];
        Rule::forward(RuleId(id), prefix, priority, source, link)
    }
}

/// Draws a random secondary match over the given field widths: each field
/// is constrained to a random sub-range with probability 0.6 and
/// wildcarded (full range) otherwise; trailing wildcards are trimmed so
/// an all-wildcard draw is the empty (single-field) match.
pub fn random_secondary(rng: &mut StdRng, sec_widths: &[u8]) -> SecondaryMatch {
    let mut intervals: Vec<Interval> = sec_widths
        .iter()
        .map(|&w| {
            if rng.gen_bool(0.6) {
                random_interval(rng, w)
            } else {
                Interval::new(0, 1u128 << w)
            }
        })
        .collect();
    while intervals
        .last()
        .is_some_and(|iv| *iv == Interval::new(0, 1u128 << sec_widths[intervals.len() - 1]))
    {
        intervals.pop();
    }
    if intervals.is_empty() {
        SecondaryMatch::default()
    } else {
        SecondaryMatch::new(&intervals)
    }
}

/// Stateful insert/remove generator tracking the live rule set, for suites
/// that interleave generation with checking.
///
/// Rule ids are globally unique across the generator's lifetime. Candidate
/// insertions that would create a same-priority overlap at one switch (a
/// data plane with no well-defined winner) are rejected —
/// [`OpGen::next_op`] returns `None` for that draw, exactly like the
/// `continue` in the suites this replaces, keeping RNG streams
/// deterministic per seed.
#[derive(Clone, Debug)]
pub struct OpGen {
    width: u8,
    sec_widths: Vec<u8>,
    max_priority: u32,
    remove_bias: f64,
    live: Vec<Rule>,
    next_id: u64,
}

impl OpGen {
    /// A generator over a `width`-bit space with the given probability of
    /// drawing a removal (when any rule is live) and priority range.
    pub fn new(width: u8, max_priority: u32, remove_bias: f64) -> Self {
        OpGen {
            width,
            sec_widths: Vec::new(),
            max_priority,
            remove_bias,
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// Makes generated insertions multi-field: each rule additionally draws
    /// a [`random_secondary`] match over the given field widths.
    pub fn with_secondary(mut self, sec_widths: &[u8]) -> Self {
        self.sec_widths = sec_widths.to_vec();
        self
    }

    /// The rules currently live (inserted and not yet removed).
    pub fn live(&self) -> &[Rule] {
        &self.live
    }

    /// Draws the next operation: a removal of a random live rule with
    /// probability `remove_bias`, otherwise an insertion of a fresh random
    /// rule. Returns `None` if the drawn insertion conflicted (skip and
    /// draw again).
    pub fn next_op(&mut self, rng: &mut StdRng, topo: &Topology) -> Option<Op> {
        if !self.live.is_empty() && rng.gen_bool(self.remove_bias) {
            let rule = self.live.swap_remove(rng.gen_range(0..self.live.len()));
            Some(Op::Remove(rule.id))
        } else {
            let mut rule = random_rule(rng, topo, self.next_id, self.width, self.max_priority);
            if !self.sec_widths.is_empty() {
                rule = rule.with_secondary(random_secondary(rng, &self.sec_widths));
            }
            self.next_id += 1;
            if self.live.iter().any(|r| r.conflicts_with(&rule)) {
                return None;
            }
            self.live.push(rule);
            Some(Op::Insert(rule))
        }
    }
}

/// Generates a complete well-formed trace of exactly `len` operations
/// drawn from `gen` — single- or multi-field as `gen` is (see the module
/// docs for why prefixes of the result shrink cleanly).
pub fn random_ops(rng: &mut StdRng, topo: &Topology, len: usize, mut gen: OpGen) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        if let Some(op) = gen.next_op(rng, topo) {
            ops.push(op);
        }
    }
    ops
}

/// Forwarding loops keyed by their node cycle, with normalized packets —
/// the comparison form that is invariant under atom numbering, shard
/// partitioning, and report ordering, shared by every differential suite.
pub fn loops_by_cycle(violations: &[InvariantViolation]) -> BTreeMap<Vec<NodeId>, Vec<Interval>> {
    let mut out: BTreeMap<Vec<NodeId>, Vec<Interval>> = BTreeMap::new();
    for v in violations {
        if let InvariantViolation::ForwardingLoop { nodes, packets } = v {
            out.entry(nodes.clone())
                .or_default()
                .extend(packets.clone());
        }
    }
    for packets in out.values_mut() {
        *packets = normalize(std::mem::take(packets));
    }
    out
}

/// Blackholed address space per node, invariant under atom numbering (the
/// blackhole counterpart of [`loops_by_cycle`]).
pub fn blackholes_by_node(violations: &[InvariantViolation]) -> BTreeMap<NodeId, Vec<Interval>> {
    let mut out: BTreeMap<NodeId, Vec<Interval>> = BTreeMap::new();
    for v in violations {
        if let InvariantViolation::Blackhole { node, packets } = v {
            out.entry(*node).or_default().extend(packets.clone());
        }
    }
    for packets in out.values_mut() {
        *packets = normalize(std::mem::take(packets));
    }
    out
}

/// One `(atom, switch)` cell of [`OwnerModel`]: the rules containing the
/// atom at that switch, keyed the way the engine orders them — the last
/// entry is the owner.
pub type ModelCell = BTreeMap<(Priority, RuleId), LinkId>;

/// Reference model of the engine's `owner` structure (§3.2: per atom and
/// switch, a BST of rules by priority) as one ordered map of ordered maps.
/// It shares no code with `deltanet::owner`, so the differential tests in
/// `atom_invariants.rs` can drive identical split / merge / renumber traces
/// through both and compare every cell. Atoms are bare ids so this crate
/// stays independent of `deltanet`.
#[derive(Clone, Debug, Default)]
pub struct OwnerModel {
    cells: BTreeMap<(u32, NodeId), ModelCell>,
}

impl OwnerModel {
    /// Read-only access to one cell.
    pub fn get(&self, atom: u32, source: NodeId) -> Option<&ModelCell> {
        self.cells.get(&(atom, source))
    }

    /// Mutable access, creating the cell on first use.
    pub fn get_mut(&mut self, atom: u32, source: NodeId) -> &mut ModelCell {
        self.cells.entry((atom, source)).or_default()
    }

    /// `owner[new] ← owner[old]` (an atom split).
    pub fn clone_atom(&mut self, old: u32, new: u32) {
        self.clear_atom(new);
        let of_old = (old, NodeId(0))..=(old, NodeId(u32::MAX));
        let copied: Vec<_> = self
            .cells
            .range(of_old)
            .map(|(&(_, source), cell)| ((new, source), cell.clone()))
            .collect();
        self.cells.extend(copied);
    }

    /// Frees every cell of `atom` (a compaction merge).
    pub fn clear_atom(&mut self, atom: u32) {
        self.cells.retain(|&(a, _), _| a != atom);
    }

    /// Renumbers the atoms: `remap[old]` is the new id, `u32::MAX` for a
    /// reclaimed atom, whose cells must have been cleared.
    pub fn remap(&mut self, remap: &[u32]) {
        let old = std::mem::take(&mut self.cells);
        for ((atom, source), cell) in old.into_iter().filter(|(_, cell)| !cell.is_empty()) {
            let new = remap[atom as usize];
            assert_ne!(new, u32::MAX, "cells survive for reclaimed atom {atom}");
            self.cells.insert((new, source), cell);
        }
    }

    /// Total number of `(atom, source, rule)` entries.
    pub fn total_entries(&self) -> usize {
        self.cells.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn topology_is_strongly_connected_with_drop_links() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_topology(&mut rng, 5, true);
            assert!(topo.is_strongly_connected());
            assert!(topo.drop_node().is_some());
            for node in topo.switch_nodes().collect::<Vec<_>>() {
                assert!(topo.out_links(node).iter().any(|&l| topo.is_drop_link(l)));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = |seed: u64| -> Vec<Op> {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_topology(&mut rng, 4, true);
            random_ops(&mut rng, &topo, 50, OpGen::new(8, 40, 0.35))
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn traces_are_well_formed_prefix_closed() {
        let mut rng = StdRng::seed_from_u64(42);
        let topo = random_topology(&mut rng, 5, true);
        let ops = random_ops(&mut rng, &topo, 200, OpGen::new(8, 40, 0.4));
        assert_eq!(ops.len(), 200);
        // Every prefix is well-formed: removals only of live rules, no
        // duplicate inserts, no same-priority overlaps among live rules.
        let mut live: Vec<Rule> = Vec::new();
        let mut ever: HashSet<u64> = HashSet::new();
        for op in &ops {
            match op {
                Op::Insert(r) => {
                    assert!(ever.insert(r.id.0), "rule id reused");
                    assert!(!live.iter().any(|l| l.conflicts_with(r)));
                    live.push(*r);
                }
                Op::Remove(id) => {
                    let pos = live.iter().position(|r| r.id == *id);
                    live.swap_remove(pos.expect("removal of a non-live rule"));
                }
            }
        }
    }

    #[test]
    fn random_intervals_fit_the_field_space() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let iv = random_interval(&mut rng, 10);
            assert!(!iv.is_empty());
            assert!(iv.hi() <= 1 << 10);
        }
    }
}

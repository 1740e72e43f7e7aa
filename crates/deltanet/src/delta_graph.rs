//! Delta-graphs: the compact representation of what one (or several) rule
//! update(s) changed in the edge-labelled graph.
//!
//! §3.3: "the concept of atoms has as consequence a convenient algorithm for
//! computing a compact edge-labelled graph, called delta-graph, that
//! represents all such forwarding graphs. We can generate a delta-graph as a
//! by-product of Algorithm 1 for all atoms α whose owner changes; similarly
//! for Algorithm 2. If so desired, multiple rule updates may be aggregated
//! into a delta-graph."
//!
//! That aggregation is a window ([`netmodel::checker::Checker::apply_window`]
//! on [`crate::DeltaNet`]): a monitored engine repairs once at its close,
//! over the delta-graphs of all its updates ([`crate::monitor`]).
//!
//! A [`DeltaGraph`] therefore records the `(link, atom)` pairs that were
//! added to and removed from edge labels by ownership changes. The
//! per-update property check (forwarding loops) only needs to look at the
//! added pairs: removing an atom from a label can only break loops, never
//! create them.

use crate::atoms::{AtomId, DeltaPair};
use crate::atomset::AtomSet;
use netmodel::topology::LinkId;

/// The changes one or more rule updates made to the edge-labelled graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaGraph {
    /// `(link, atom)` pairs that were added to `label[link]` because the
    /// atom's owner changed in the atom's favour.
    pub added: Vec<(LinkId, AtomId)>,
    /// `(link, atom)` pairs removed from `label[link]`.
    pub removed: Vec<(LinkId, AtomId)>,
    /// Atom splits performed by the update(s), in order: `old` kept the
    /// lower part of its interval and `new` took the upper part, cloning
    /// `old`'s labels everywhere. Splits carry no label *change* (the new
    /// atom behaves exactly like the old one at the instant of the split),
    /// so they do not seed property checks and do not count towards
    /// [`DeltaGraph::affected_atoms`]; they exist so consumers that key
    /// state by atom id — the [`crate::monitor::ViolationMonitor`] — learn
    /// of the new id and recompute its state from the labels.
    pub splits: Vec<DeltaPair>,
    /// Atom splits in the *secondary* field lattices of a multi-field
    /// engine, tagged with the secondary field index (0-based, in
    /// declaration order). Secondary atoms carry no owner cells or label
    /// bits and key no monitored state — a secondary split refines the
    /// classes a primary atom is checked over without changing whether
    /// *some* class violates — but the engine's cross-field walk kernel
    /// numbers its class sets by lattice rank, and a non-empty list tells
    /// it, within the recording update, to renumber.
    pub sec_splits: Vec<(u8, DeltaPair)>,
}

impl DeltaGraph {
    /// An empty delta-graph.
    pub fn new() -> Self {
        DeltaGraph::default()
    }

    /// Whether the update changed no edge label at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Records an addition.
    pub fn add(&mut self, link: LinkId, atom: AtomId) {
        self.added.push((link, atom));
    }

    /// Records a removal.
    pub fn remove(&mut self, link: LinkId, atom: AtomId) {
        self.removed.push((link, atom));
    }

    /// Records an atom split `old → new`.
    pub fn split(&mut self, pair: DeltaPair) {
        self.splits.push(pair);
    }

    /// Records a split in secondary field `field`'s atom lattice.
    pub fn sec_split(&mut self, field: u8, pair: DeltaPair) {
        self.sec_splits.push((field, pair));
    }

    /// The distinct links whose labels changed, in id order.
    pub fn changed_links(&self) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self
            .added
            .iter()
            .chain(&self.removed)
            .map(|&(link, _)| link)
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// The distinct atoms whose ownership changed anywhere.
    pub fn affected_atoms(&self) -> AtomSet {
        let mut set = AtomSet::new();
        set.extend(self.added.iter().map(|&(_, a)| a));
        set.extend(self.removed.iter().map(|&(_, a)| a));
        set
    }

    /// Number of distinct atoms whose ownership changed — the per-update
    /// "affected packet classes" metric reported by the experiments.
    ///
    /// Runs on every update, so it sorts the delta's own atoms instead of
    /// building the [`DeltaGraph::affected_atoms`] bitset, whose length
    /// grows with the highest atom id rather than with the delta.
    pub fn affected_atom_count(&self) -> usize {
        let mut atoms: Vec<AtomId> = self
            .added
            .iter()
            .chain(&self.removed)
            .map(|&(_, atom)| atom)
            .collect();
        atoms.sort_unstable();
        atoms.dedup();
        atoms.len()
    }

    /// Clears the delta-graph, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
        self.splits.clear();
        self.sec_splits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_clear() {
        let mut d = DeltaGraph::new();
        assert!(d.is_empty());
        d.add(LinkId(1), AtomId(2));
        assert!(!d.is_empty());
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn changed_links_deduplicates_and_sorts() {
        let mut d = DeltaGraph::new();
        d.add(LinkId(5), AtomId(0));
        d.add(LinkId(1), AtomId(1));
        d.remove(LinkId(5), AtomId(2));
        d.remove(LinkId(3), AtomId(0));
        assert_eq!(d.changed_links(), vec![LinkId(1), LinkId(3), LinkId(5)]);
    }

    #[test]
    fn affected_atoms_union_of_added_and_removed() {
        let mut d = DeltaGraph::new();
        d.add(LinkId(0), AtomId(1));
        d.add(LinkId(0), AtomId(2));
        d.remove(LinkId(1), AtomId(2));
        d.remove(LinkId(1), AtomId(3));
        let atoms = d.affected_atoms();
        assert_eq!(atoms.len(), 3);
        assert_eq!(d.affected_atom_count(), 3);
        assert!(atoms.contains(AtomId(1)));
        assert!(atoms.contains(AtomId(3)));
    }

    #[test]
    fn splits_are_recorded_merged_and_cleared() {
        // A chained split: the second splits the first's new atom.
        let mut d = DeltaGraph::new();
        for (old, new) in [(0, 1), (1, 2)] {
            d.split(DeltaPair {
                old: AtomId(old),
                new: AtomId(new),
            });
        }
        // Splits are bookkeeping, not label changes.
        assert!(d.is_empty());
        assert_eq!(d.affected_atom_count(), 0);
        assert_eq!(d.splits.len(), 2);
        d.clear();
        assert!(d.splits.is_empty());
    }
}

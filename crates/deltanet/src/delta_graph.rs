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
//! A [`DeltaGraph`] therefore records the `(link, atom)` pairs that were
//! added to and removed from edge labels by ownership changes. The
//! per-update property check (forwarding loops) only needs to look at the
//! added pairs: removing an atom from a label can only break loops, never
//! create them.

use crate::atoms::{AtomId, DeltaPair, REMAP_DEAD};
use crate::atomset::AtomSet;
use netmodel::topology::LinkId;
use std::collections::HashMap;

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
    /// of the new id and recompute its state from the labels. After a
    /// [`DeltaGraph::remap`] across a compaction pass, a split whose old
    /// atom was reclaimed reads `old == new`.
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

    /// Aggregates another delta-graph into this one (multiple rule updates
    /// may be aggregated, §3.3). Merging is plain concatenation — O(other)
    /// per call, so a long aggregation window stays linear in its total
    /// pair count; the window's owner (e.g.
    /// [`DeltaNet::take_aggregate`](crate::DeltaNet::take_aggregate)) runs
    /// [`DeltaGraph::canonicalize`] once when the window closes.
    pub fn merge(&mut self, other: &DeltaGraph) {
        self.added.extend_from_slice(&other.added);
        self.removed.extend_from_slice(&other.removed);
        self.splits.extend_from_slice(&other.splits);
        self.sec_splits.extend_from_slice(&other.sec_splits);
    }

    /// Reduces an aggregated delta-graph to its *net* effect: every
    /// `(link, atom)` pair occurring in both `added` and `removed` (a
    /// same-window insert+remove of the same rule, or a flap) cancels, one
    /// cancellation per opposing occurrence. Without this the window would
    /// claim label changes that, end to end, never happened — re-seeding
    /// property checks and inflating `affected_atoms` — and a consumer
    /// keying state off the pairs (the violation monitor) would see a
    /// phantom addition *and* a phantom removal whose relative order was
    /// lost in aggregation. Because a label either holds a pair or it does
    /// not, additions and removals of one pair strictly alternate in time,
    /// so after cancellation each pair appears at most once, on the side
    /// of its net effect. Splits are permanent and never cancel.
    pub fn canonicalize(&mut self) {
        if self.added.is_empty() || self.removed.is_empty() {
            return;
        }
        let mut removed_count: HashMap<(LinkId, AtomId), usize> = HashMap::new();
        for &pair in &self.removed {
            *removed_count.entry(pair).or_insert(0) += 1;
        }
        let mut cancel: HashMap<(LinkId, AtomId), usize> = HashMap::new();
        let mut added_count: HashMap<(LinkId, AtomId), usize> = HashMap::new();
        for &pair in &self.added {
            *added_count.entry(pair).or_insert(0) += 1;
        }
        for (&pair, &a) in &added_count {
            if let Some(&r) = removed_count.get(&pair) {
                cancel.insert(pair, a.min(r));
            }
        }
        if cancel.is_empty() {
            return;
        }
        let mut budget = cancel.clone();
        self.added.retain(|pair| match budget.get_mut(pair) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        });
        let mut budget = cancel;
        self.removed.retain(|pair| match budget.get_mut(pair) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        });
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

    /// Rewrites every recorded atom id through the remap table of a
    /// compaction pass ([`crate::atoms::AtomMap::renumber`]), so a
    /// delta-graph recorded before the pass stays meaningful afterwards.
    ///
    /// Entries of reclaimed atoms (mapped to [`crate::atoms::REMAP_DEAD`])
    /// drop out: a reclaimed atom merged into a label-identical lower
    /// neighbour, so consumers keying state by atom id lose nothing — the
    /// surviving neighbour carries the same labels. A split whose *new*
    /// atom was reclaimed drops for the same reason. A split whose *old*
    /// atom was reclaimed but whose new atom lives stays, as
    /// `old == new`: there is no state left to clone from, but consumers
    /// recompute a split's new atom from the labels anyway, and must still
    /// hear of it — the rule that keeps the new atom distinguishable may
    /// have changed labels only on the old, lower side, so the new atom
    /// need not occur in any `(link, atom)` pair.
    pub fn remap(&mut self, remap: &[u32]) {
        let lookup = |atom: AtomId| -> Option<AtomId> {
            let new = remap.get(atom.index()).copied().unwrap_or(REMAP_DEAD);
            (new != REMAP_DEAD).then_some(AtomId(new))
        };
        let map_pairs = |pairs: &mut Vec<(LinkId, AtomId)>| {
            pairs.retain_mut(|(_, atom)| match lookup(*atom) {
                Some(new) => {
                    *atom = new;
                    true
                }
                None => false,
            });
        };
        map_pairs(&mut self.added);
        map_pairs(&mut self.removed);
        self.splits.retain_mut(|pair| match lookup(pair.new) {
            Some(new) => {
                *pair = DeltaPair {
                    old: lookup(pair.old).unwrap_or(new),
                    new,
                };
                true
            }
            None => false,
        });
        // A compaction pass renumbers the secondary lattices too, but its
        // remap table covers only the primary field, so the recorded
        // secondary splits would be left holding stale ids. Dropping them is
        // safe: the engine consumes `sec_splits` within the update that
        // recorded them (`MultiField::acquire` renumbers the walk kernel's
        // classes), which always runs *before* any compaction, and
        // `compact()` renumbers them again itself.
        self.sec_splits.clear();
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
    fn remap_keeps_a_split_whose_new_atom_lives() {
        let pair = |old, new| DeltaPair {
            old: AtomId(old),
            new: AtomId(new),
        };
        let mut d = DeltaGraph::new();
        d.split(pair(0, 1)); // both live
        d.split(pair(2, 3)); // old reclaimed, new lives
        d.split(pair(4, 5)); // new reclaimed
        d.add(LinkId(0), AtomId(2));
        d.remove(LinkId(1), AtomId(5));
        d.add(LinkId(1), AtomId(4));
        d.remap(&[0, 1, REMAP_DEAD, 2, 3, REMAP_DEAD]);
        assert_eq!(d.splits, vec![pair(0, 1), pair(2, 2)]);
        assert_eq!(d.added, vec![(LinkId(1), AtomId(3))]);
        assert!(d.removed.is_empty());
    }

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
    fn merge_aggregates_updates() {
        let mut a = DeltaGraph::new();
        a.add(LinkId(0), AtomId(0));
        let mut b = DeltaGraph::new();
        b.remove(LinkId(1), AtomId(1));
        a.merge(&b);
        assert_eq!(a.added.len(), 1);
        assert_eq!(a.removed.len(), 1);
        assert_eq!(a.changed_links(), vec![LinkId(0), LinkId(1)]);
    }

    #[test]
    fn canonicalize_cancels_same_window_insert_plus_remove() {
        // An insert's delta adds (l0, α0); the same rule's removal in the
        // same window removes it again. The canonical aggregate must record
        // *no* net change for that pair (the regression: it used to keep
        // the pair in both lists).
        let mut agg = DeltaGraph::new();
        let mut insert = DeltaGraph::new();
        insert.add(LinkId(0), AtomId(0));
        insert.add(LinkId(2), AtomId(1));
        agg.merge(&insert);
        let mut remove = DeltaGraph::new();
        remove.remove(LinkId(0), AtomId(0));
        agg.merge(&remove);
        agg.canonicalize();
        assert_eq!(agg.added, vec![(LinkId(2), AtomId(1))]);
        assert!(agg.removed.is_empty());
        assert_eq!(agg.affected_atom_count(), 1);
        assert_eq!(agg.changed_links(), vec![LinkId(2)]);
    }

    #[test]
    fn canonicalize_keeps_net_effect_across_a_flap() {
        // add, remove, add of the same pair: net effect is one addition.
        let mut agg = DeltaGraph::new();
        for is_add in [true, false, true] {
            let mut step = DeltaGraph::new();
            if is_add {
                step.add(LinkId(3), AtomId(7));
            } else {
                step.remove(LinkId(3), AtomId(7));
            }
            agg.merge(&step);
        }
        agg.canonicalize();
        assert_eq!(agg.added, vec![(LinkId(3), AtomId(7))]);
        assert!(agg.removed.is_empty());
        // remove, add of the same pair: back where it started, net nothing.
        let mut agg = DeltaGraph::new();
        let mut down = DeltaGraph::new();
        down.remove(LinkId(3), AtomId(7));
        agg.merge(&down);
        let mut up = DeltaGraph::new();
        up.add(LinkId(3), AtomId(7));
        agg.merge(&up);
        agg.canonicalize();
        assert!(agg.is_empty());
    }

    #[test]
    fn splits_are_recorded_merged_and_cleared() {
        let mut a = DeltaGraph::new();
        a.split(DeltaPair {
            old: AtomId(0),
            new: AtomId(1),
        });
        // Splits are bookkeeping, not label changes.
        assert!(a.is_empty());
        assert_eq!(a.affected_atom_count(), 0);
        let mut b = DeltaGraph::new();
        b.split(DeltaPair {
            old: AtomId(1),
            new: AtomId(2),
        });
        a.merge(&b);
        assert_eq!(a.splits.len(), 2);
        a.clear();
        assert!(a.splits.is_empty());
    }
}

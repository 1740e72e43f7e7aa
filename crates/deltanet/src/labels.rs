//! Edge labels: the atom set carried by every link.
//!
//! `label[link]` (§3.2) is the set of atoms — i.e. disjoint destination
//! address ranges — that the data plane currently forwards along `link`.
//! Collectively the labels form the single edge-labelled graph that
//! represents the flows of *all* packets in the entire network, which is the
//! state Delta-net maintains instead of Veriflow's per-equivalence-class
//! forwarding graphs.

use crate::atoms::AtomId;
use crate::atomset::AtomSet;
use netmodel::topology::LinkId;

/// The edge labels of the network-wide edge-labelled graph.
#[derive(Clone, Debug, Default)]
pub struct Labels {
    per_link: Vec<AtomSet>,
}

impl Labels {
    /// Creates an empty label store.
    pub fn new() -> Self {
        Labels::default()
    }

    /// Creates a label store pre-sized for `links` links.
    pub fn with_links(links: usize) -> Self {
        Labels {
            per_link: (0..links).map(|_| AtomSet::new()).collect(),
        }
    }

    fn ensure(&mut self, link: LinkId) {
        if link.index() >= self.per_link.len() {
            self.per_link.resize_with(link.index() + 1, AtomSet::new);
        }
    }

    /// Adds `atom` to `label[link]`; returns whether the label changed.
    #[inline]
    pub fn insert(&mut self, link: LinkId, atom: AtomId) -> bool {
        self.ensure(link);
        self.per_link[link.index()].insert(atom)
    }

    /// Removes `atom` from `label[link]`; returns whether the label changed.
    #[inline]
    pub fn remove(&mut self, link: LinkId, atom: AtomId) -> bool {
        if link.index() >= self.per_link.len() {
            return false;
        }
        self.per_link[link.index()].remove(atom)
    }

    /// Whether `label[link]` contains `atom`.
    #[inline]
    pub fn contains(&self, link: LinkId, atom: AtomId) -> bool {
        self.per_link
            .get(link.index())
            .is_some_and(|s| s.contains(atom))
    }

    /// `label[link]` as a set (empty if the link has never been labelled).
    ///
    /// This is the constant-time, persistent network-wide flow API the paper
    /// highlights in §3.3.
    pub fn get(&self, link: LinkId) -> &AtomSet {
        static EMPTY: once_empty::Empty = once_empty::Empty::new();
        self.per_link
            .get(link.index())
            .unwrap_or_else(|| EMPTY.get())
    }

    /// Iterates `(link, label)` pairs for links with a non-empty label.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &AtomSet)> + '_ {
        self.per_link
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (LinkId(i as u32), s))
    }

    /// Estimated heap usage in bytes (allocated capacity).
    pub fn memory_bytes(&self) -> usize {
        self.per_link.capacity() * std::mem::size_of::<AtomSet>()
            + self
                .per_link
                .iter()
                .map(AtomSet::memory_bytes)
                .sum::<usize>()
    }

    /// Heap bytes actually addressed by live label words (≤ `memory_bytes`);
    /// the bench memory accounting reports both so over-allocation after
    /// bulk removals is visible.
    pub fn live_bytes(&self) -> usize {
        self.per_link.len() * std::mem::size_of::<AtomSet>()
            + self.per_link.iter().map(AtomSet::live_bytes).sum::<usize>()
    }

    /// Exports the label store for a snapshot: the number of allocated link
    /// slots plus, for every link with a non-empty label, the raw backing
    /// words of its atom set. Slot count matters because the len-based byte
    /// accounting counts empty slots too.
    pub fn export_parts(&self) -> (usize, Vec<(LinkId, Vec<u64>)>) {
        let parts = self
            .iter()
            .map(|(link, set)| (link, set.words().to_vec()))
            .collect();
        (self.per_link.len(), parts)
    }

    /// Rebuilds a label store from the export of [`Labels::export_parts`].
    /// Word-identical to the saved store: non-empty labels get their exact
    /// words back (via [`AtomSet::from_raw_words`]), every other slot up to
    /// `capacity` is an empty set.
    pub fn from_parts(capacity: usize, parts: Vec<(LinkId, Vec<u64>)>) -> Result<Labels, String> {
        let mut per_link: Vec<AtomSet> = (0..capacity).map(|_| AtomSet::new()).collect();
        for (link, words) in parts {
            let slot = per_link
                .get_mut(link.index())
                .ok_or_else(|| format!("label for {link} outside capacity {capacity}"))?;
            if !slot.is_empty() {
                return Err(format!("duplicate label entry for {link}"));
            }
            *slot = AtomSet::from_raw_words(words);
        }
        Ok(Labels { per_link })
    }

    /// Releases excess capacity of every label (see
    /// [`AtomSet::shrink_to_fit`]); useful after a removal-heavy phase.
    pub fn shrink_to_fit(&mut self) {
        for set in &mut self.per_link {
            set.shrink_to_fit();
        }
    }

    /// Rewrites every label through the remap table of a compaction pass
    /// (see [`AtomSet::remap`]); compacted ids are dense, so this also
    /// releases the label words beyond the new id range.
    pub fn remap(&mut self, remap: &[u32]) {
        for set in &mut self.per_link {
            if !set.is_empty() {
                set.remap(remap);
            } else {
                set.shrink_to_fit();
            }
        }
    }
}

/// A tiny helper module providing a `'static` empty [`AtomSet`] so that
/// [`Labels::get`] can hand out a reference even for never-labelled links.
mod once_empty {
    use super::AtomSet;
    use std::sync::OnceLock;

    pub struct Empty {
        cell: OnceLock<AtomSet>,
    }

    impl Empty {
        pub const fn new() -> Self {
            Empty {
                cell: OnceLock::new(),
            }
        }

        pub fn get(&self) -> &AtomSet {
            self.cell.get_or_init(AtomSet::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut l = Labels::new();
        assert!(l.insert(LinkId(3), AtomId(7)));
        assert!(!l.insert(LinkId(3), AtomId(7)));
        assert!(l.contains(LinkId(3), AtomId(7)));
        assert!(!l.contains(LinkId(2), AtomId(7)));
        assert!(l.remove(LinkId(3), AtomId(7)));
        assert!(!l.remove(LinkId(3), AtomId(7)));
        assert!(!l.remove(LinkId(100), AtomId(7)));
    }

    #[test]
    fn get_returns_empty_for_unknown_links() {
        let l = Labels::new();
        assert!(l.get(LinkId(42)).is_empty());
    }

    #[test]
    fn iter_skips_empty_labels() {
        let mut l = Labels::with_links(4);
        l.insert(LinkId(1), AtomId(0));
        l.insert(LinkId(3), AtomId(2));
        l.insert(LinkId(3), AtomId(5));
        let got: Vec<(LinkId, usize)> = l.iter().map(|(id, s)| (id, s.len())).collect();
        assert_eq!(got, vec![(LinkId(1), 1), (LinkId(3), 2)]);
        assert_eq!(l.export_parts().0, 4);
    }

    #[test]
    fn with_links_preallocates() {
        let l = Labels::with_links(10);
        assert_eq!(l.export_parts().0, 10);
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn remap_rewrites_every_label() {
        let mut l = Labels::with_links(3);
        l.insert(LinkId(0), AtomId(7));
        l.insert(LinkId(2), AtomId(7));
        l.insert(LinkId(2), AtomId(300));
        let mut remap = vec![u32::MAX; 301];
        remap[7] = 0;
        remap[300] = 1;
        l.remap(&remap);
        assert!(l.contains(LinkId(0), AtomId(0)));
        assert!(l.contains(LinkId(2), AtomId(0)));
        assert!(l.contains(LinkId(2), AtomId(1)));
        assert!(!l.contains(LinkId(2), AtomId(300)));
        assert_eq!(l.get(LinkId(2)).len(), 2);
        // Dense ids released the high words.
        assert!(l.live_bytes() <= 3 * std::mem::size_of::<AtomSet>() + 2 * 8);
    }

    #[test]
    fn memory_accounting() {
        let mut l = Labels::new();
        let before = l.memory_bytes();
        for i in 0..64 {
            l.insert(LinkId(i), AtomId(i * 100));
        }
        assert!(l.memory_bytes() > before);
        assert!(l.live_bytes() <= l.memory_bytes());
        // After removing the high atoms, live bytes drop and shrink_to_fit
        // brings the allocated capacity down with them.
        let live_full = l.live_bytes();
        for i in 0..64 {
            l.remove(LinkId(i), AtomId(i * 100));
        }
        assert!(l.live_bytes() < live_full);
        l.shrink_to_fit();
        assert!(l.memory_bytes() < before + 64 * 8 * 100);
        assert_eq!(l.iter().count(), 0);
    }
}

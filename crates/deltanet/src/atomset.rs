//! Dense atom sets as dynamic bitsets.
//!
//! The paper's implementation note (§4.1) reads: "We implement edge labels
//! as customized dynamic bitsets, stored as aligned, dynamically allocated,
//! contiguous memory." [`AtomSet`] is that data structure: a growable bitset
//! indexed by [`AtomId`], with the set algebra (union, intersection,
//! difference) needed by Algorithm 3 and the query layer.

use crate::atoms::AtomId;
use std::fmt;

const WORD_BITS: usize = 64;

/// A set of atoms stored as a contiguous, dynamically grown bitset.
#[derive(Clone, Default)]
pub struct AtomSet {
    words: Vec<u64>,
    /// Cached population count, maintained incrementally.
    len: usize,
}

impl PartialEq for AtomSet {
    /// Logical equality: trailing zero words are irrelevant.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let common = self.words.len().min(other.words.len());
        if self.words[..common] != other.words[..common] {
            return false;
        }
        self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for AtomSet {}

impl AtomSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AtomSet::default()
    }

    /// Creates an empty set with capacity for atoms `0..capacity_atoms`.
    pub fn with_capacity(capacity_atoms: usize) -> Self {
        AtomSet {
            words: Vec::with_capacity(capacity_atoms.div_ceil(WORD_BITS)),
            len: 0,
        }
    }

    #[inline]
    fn word_and_bit(atom: AtomId) -> (usize, u64) {
        let idx = atom.index();
        (idx / WORD_BITS, 1u64 << (idx % WORD_BITS))
    }

    /// Inserts an atom; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, atom: AtomId) -> bool {
        debug_assert!(atom != AtomId::INF, "α∞ is not a real atom");
        let (w, bit) = Self::word_and_bit(atom);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(newly);
        newly
    }

    /// Removes an atom; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, atom: AtomId) -> bool {
        let (w, bit) = Self::word_and_bit(atom);
        if w >= self.words.len() {
            return false;
        }
        let was = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.len -= usize::from(was);
        if was && w == self.words.len() - 1 {
            self.trim_trailing_zeros();
        }
        was
    }

    /// Drops trailing all-zero words so `words()` (and the live-byte
    /// accounting built on it) tracks the highest set bit, not the
    /// high-water mark. Amortized O(1): a word is popped at most once per
    /// time it was grown. Does not release capacity — see
    /// [`AtomSet::shrink_to_fit`].
    #[inline]
    fn trim_trailing_zeros(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Whether the atom is in the set.
    #[inline]
    pub fn contains(&self, atom: AtomId) -> bool {
        let (w, bit) = Self::word_and_bit(atom);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Number of atoms in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all atoms, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The atoms of word `wi` whose bits are set in `w`, in increasing order.
    fn word_atoms(wi: usize, mut w: u64) -> impl Iterator<Item = AtomId> {
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(AtomId((wi * WORD_BITS + bit) as u32))
            }
        })
    }

    /// Iterates the atoms in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| Self::word_atoms(wi, word))
    }

    /// Iterates `self ∩ other` in increasing id order, word by word, without
    /// materializing the intersection.
    pub fn iter_common<'a>(&'a self, other: &'a AtomSet) -> impl Iterator<Item = AtomId> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| Self::word_atoms(wi, a & b))
    }

    /// In-place union: `self ← self ∪ other`. Returns whether `self` changed.
    pub fn union_with(&mut self, other: &AtomSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        let mut len = 0usize;
        for (i, word) in self.words.iter_mut().enumerate() {
            let before = *word;
            if let Some(&o) = other.words.get(i) {
                *word |= o;
            }
            changed |= *word != before;
            len += word.count_ones() as usize;
        }
        self.len = len;
        changed
    }

    /// In-place intersection: `self ← self ∩ other`.
    pub fn intersect_with(&mut self, other: &AtomSet) {
        let mut len = 0usize;
        for (i, word) in self.words.iter_mut().enumerate() {
            *word &= other.words.get(i).copied().unwrap_or(0);
            len += word.count_ones() as usize;
        }
        self.len = len;
        self.trim_trailing_zeros();
    }

    /// In-place difference: `self ← self − other`.
    pub fn difference_with(&mut self, other: &AtomSet) {
        let mut len = 0usize;
        for (i, word) in self.words.iter_mut().enumerate() {
            *word &= !other.words.get(i).copied().unwrap_or(0);
            len += word.count_ones() as usize;
        }
        self.len = len;
        self.trim_trailing_zeros();
    }

    /// The union as a new set.
    pub fn union(&self, other: &AtomSet) -> AtomSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// The intersection as a new set.
    pub fn intersection(&self, other: &AtomSet) -> AtomSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// The difference `self − other` as a new set.
    pub fn difference(&self, other: &AtomSet) -> AtomSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Whether the two sets share at least one atom, without allocating.
    pub fn intersects(&self, other: &AtomSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether every atom of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &AtomSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// Rebuilds a set from raw backing words (the inverse of
    /// [`AtomSet::words`]), recomputing the cached population count and
    /// trimming trailing zero words. Used by the snapshot restore path so a
    /// deserialized label is word-identical to the one that was saved.
    pub fn from_raw_words(words: Vec<u64>) -> AtomSet {
        let mut set = AtomSet {
            len: words.iter().map(|w| w.count_ones() as usize).sum(),
            words,
        };
        set.trim_trailing_zeros();
        set
    }

    /// The backing words (64 atoms per word), trailing zero words trimmed.
    /// Used by the bench memory accounting to report *live* bytes — bits the
    /// set actually addresses — next to the allocated capacity of
    /// [`AtomSet::memory_bytes`].
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Releases excess capacity: trims trailing zero words (a bulk-removal
    /// sequence can leave many) and shrinks the backing allocation to fit,
    /// so [`AtomSet::memory_bytes`] reflects the live contents again.
    pub fn shrink_to_fit(&mut self) {
        self.trim_trailing_zeros();
        self.words.shrink_to_fit();
    }

    /// Rewrites every member through the remap table produced by a
    /// compaction pass (`remap[old id] = new id`). Members must map to live
    /// ids — the engine erases reclaimed atoms from every label *before*
    /// renumbering. Renumbered ids are dense, so the rebuilt set is usually
    /// smaller; the old allocation is released.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range of `remap` or maps to
    /// [`crate::atoms::REMAP_DEAD`].
    pub fn remap(&mut self, remap: &[u32]) {
        let mut out = AtomSet::new();
        for atom in self.iter() {
            let new = remap[atom.index()];
            assert!(
                new != crate::atoms::REMAP_DEAD,
                "label still references reclaimed atom {atom:?}"
            );
            out.insert(AtomId(new));
        }
        out.shrink_to_fit();
        *self = out;
    }

    /// Estimated heap usage in bytes (allocated capacity).
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Heap bytes actually addressed by live words (≤ `memory_bytes`).
    pub fn live_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

impl fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<AtomId> for AtomSet {
    fn from_iter<I: IntoIterator<Item = AtomId>>(iter: I) -> Self {
        let mut s = AtomSet::new();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl Extend<AtomId> for AtomSet {
    fn extend<I: IntoIterator<Item = AtomId>>(&mut self, iter: I) {
        for a in iter {
            self.insert(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> AtomSet {
        ids.iter().map(|&i| AtomId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = AtomSet::new();
        assert!(s.is_empty());
        assert!(s.insert(AtomId(5)));
        assert!(!s.insert(AtomId(5)));
        assert!(s.contains(AtomId(5)));
        assert!(!s.contains(AtomId(4)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(AtomId(5)));
        assert!(!s.remove(AtomId(5)));
        assert!(s.is_empty());
        // Removing from an index beyond the allocated words is a no-op.
        assert!(!s.remove(AtomId(1000)));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = set(&[70, 3, 64, 0, 129]);
        let got: Vec<u32> = s.iter().map(|a| a.0).collect();
        assert_eq!(got, vec![0, 3, 64, 70, 129]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn iter_common_matches_intersection() {
        let a = set(&[1, 2, 3, 64, 100, 700]);
        let b = set(&[0, 2, 64, 65, 100]);
        let got: Vec<AtomId> = a.iter_common(&b).collect();
        assert_eq!(got, a.intersection(&b).iter().collect::<Vec<_>>());
        // The shorter side bounds the walk, whichever it is.
        assert_eq!(b.iter_common(&a).collect::<Vec<_>>(), got);
        assert_eq!(a.iter_common(&AtomSet::new()).count(), 0);
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 2, 3, 100]);
        let b = set(&[2, 3, 4]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4, 100]));
        assert_eq!(a.intersection(&b), set(&[2, 3]));
        assert_eq!(a.difference(&b), set(&[1, 100]));
        assert_eq!(b.difference(&a), set(&[4]));
    }

    #[test]
    fn in_place_ops_track_len() {
        let mut a = set(&[1, 2, 3]);
        let b = set(&[3, 4, 200]);
        assert!(a.union_with(&b));
        assert_eq!(a.len(), 5);
        assert!(!a.union_with(&b)); // already a superset: no change
        a.intersect_with(&set(&[2, 3, 4]));
        assert_eq!(a, set(&[2, 3, 4]));
        assert_eq!(a.len(), 3);
        a.difference_with(&set(&[4]));
        assert_eq!(a, set(&[2, 3]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn intersects_and_subset() {
        let a = set(&[1, 2, 3]);
        let b = set(&[3, 4]);
        let c = set(&[4, 5]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(set(&[2, 3]).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(AtomSet::new().is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn trailing_zero_words_are_trimmed() {
        // Removing the top atoms trims the word list back down ...
        let mut s = set(&[1, 500]);
        assert!(s.words().len() >= 8);
        s.remove(AtomId(500));
        assert_eq!(s.words().len(), 1);
        assert_eq!(s, set(&[1]));
        // ... and so do the in-place bulk removals.
        let mut d = set(&[1, 700]);
        d.difference_with(&set(&[700]));
        assert_eq!(d.words().len(), 1);
        let mut i = set(&[1, 700]);
        i.intersect_with(&set(&[1]));
        assert_eq!(i.words().len(), 1);
        // shrink_to_fit releases the capacity too.
        let mut big = set(&[2000]);
        big.remove(AtomId(2000));
        big.shrink_to_fit();
        assert_eq!(big.memory_bytes(), 0);
        assert_eq!(big.live_bytes(), 0);
        assert!(big.is_empty());
        // The trimmed set keeps working.
        big.insert(AtomId(3));
        assert!(big.contains(AtomId(3)));
    }

    #[test]
    fn live_bytes_tracks_highest_set_bit() {
        let mut s = set(&[64]);
        assert_eq!(s.live_bytes(), 16); // words 0 and 1
        s.insert(AtomId(1000));
        assert!(s.live_bytes() > 16);
        s.remove(AtomId(1000));
        assert_eq!(s.live_bytes(), 16);
        assert!(s.memory_bytes() >= s.live_bytes());
    }

    #[test]
    fn remap_rewrites_members_and_shrinks() {
        let mut s = set(&[0, 3, 900]);
        let mut remap = vec![u32::MAX; 901];
        remap[0] = 2;
        remap[3] = 0;
        remap[900] = 1;
        s.remap(&remap);
        assert_eq!(s, set(&[0, 1, 2]));
        assert_eq!(s.len(), 3);
        // Dense ids: the backing storage shrank with the highest bit.
        assert_eq!(s.words().len(), 1);
        assert_eq!(s.memory_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "reclaimed atom")]
    fn remap_rejects_dead_members() {
        let mut s = set(&[5]);
        s.remap(&[0, 0, 0, 0, 0, u32::MAX]);
    }

    #[test]
    fn clear_keeps_working() {
        let mut s = set(&[1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        s.insert(AtomId(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_set_operations() {
        let e = AtomSet::new();
        let a = set(&[1, 2]);
        assert_eq!(e.union(&a), a);
        assert_eq!(a.intersection(&e), e);
        assert_eq!(a.difference(&e), a);
        assert!(!e.intersects(&a));
        assert_eq!(e.iter().count(), 0);
    }

    #[test]
    fn debug_format() {
        let s = set(&[0, 2]);
        assert_eq!(format!("{s:?}"), "{α0, α2}");
    }

    #[test]
    fn extend_trait() {
        let mut s = set(&[1]);
        s.extend([AtomId(2), AtomId(3)]);
        assert_eq!(s, set(&[1, 2, 3]));
    }

    #[test]
    fn large_sparse_ids() {
        let mut s = AtomSet::new();
        s.insert(AtomId(1_000_000));
        assert!(s.contains(AtomId(1_000_000)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next(), Some(AtomId(1_000_000)));
        assert!(s.memory_bytes() >= 1_000_000 / 8);
    }
}

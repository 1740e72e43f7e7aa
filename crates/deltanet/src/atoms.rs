//! Atoms and the ordered bound map `M` (paper §3.1).
//!
//! The match intervals of all rules in the network segment a header
//! field's value space into mutually disjoint half-closed intervals called
//! *atoms*. The paper presents this over one field — the destination
//! address, where the intervals come from IP prefixes — but the structure
//! is field-agnostic: an [`AtomMap`] is parameterized only by a bit width,
//! and a multi-field engine keeps one per declared header field (the
//! primary field's map carries owners and labels; the secondary maps are
//! pure interval lattices, see `crate::multifield`). Every map is kept
//! together with one [`BoundRefs`] — the garbage-collection books of the
//! §3.2.2 remark: which bounds of `M` live rules still reference, and how
//! many no longer are. The representation is
//! an ordered map `M` from interval bounds to *atom identifiers*: the pair
//! `n ↦ α` means that `α` denotes the atom `[n : n')` where `n'` is the
//! next greater key in `M`. The map is initialized with `MIN ↦ α₀` and
//! `MAX ↦ α∞` where `α∞` is a sentinel that never denotes a real atom, so
//! the number of atoms is always `|M| - 1`.
//!
//! Inserting a rule calls [`AtomMap::create_atoms`] (the paper's
//! `CREATE_ATOMS⁺`), which inserts the rule's lower and upper bound if not
//! already present and returns the at most two *delta-pairs* `α ↦ α'`
//! describing which existing atoms were split. This incremental refinement
//! is what lets Delta-net represent every Boolean combination of rules
//! without ever recomputing equivalence classes from scratch.

use crate::atomset::AtomSet;
use netmodel::interval::{Bound, Interval};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Identifier of an atom.
///
/// Identifiers are handed out by a consecutively increasing counter starting
/// at zero (paper §3.1), so they double as dense indices into the `owner`
/// and label structures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The sentinel `α∞` paired with the `MAX` key; it never denotes an atom.
    pub const INF: AtomId = AtomId(u32::MAX);

    /// The atom id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AtomId::INF {
            write!(f, "α∞")
        } else {
            write!(f, "α{}", self.0)
        }
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A delta-pair `α ↦ α'` produced by an atom split: the half-closed interval
/// previously denoted by `old` is now denoted by `old` (its lower part) and
/// `new` (its upper part).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaPair {
    /// The atom that was split (keeps the lower part of its old interval).
    pub old: AtomId,
    /// The freshly created atom denoting the upper part.
    pub new: AtomId,
}

/// The inverse of a [`DeltaPair`], produced by [`AtomMap::remove_bound`]
/// when two adjacent atoms merge: `kept` absorbs `freed`'s interval and
/// `freed`'s identifier goes onto the free list for reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomMerge {
    /// The surviving atom (the lower neighbour; its interval grew).
    pub kept: AtomId,
    /// The reclaimed atom (the upper neighbour; its id is now free).
    pub freed: AtomId,
}

/// The value marking a dead (reclaimed) atom id in the remap table returned
/// by [`AtomMap::renumber`].
pub const REMAP_DEAD: u32 = u32::MAX;

/// [`AtomMap::packets_of`] walks `M` rather than sorting once the set holds
/// at least one atom in this many. Measured on one x86-64 core over random
/// sets of 1 k – 100 k-atom maps, the two cost the same at about a quarter.
pub(crate) const DENSE_PACKETS_RATIO: usize = 4;

/// The ordered map `M` of interval bounds to atom identifiers.
///
/// # Examples
///
/// ```
/// use deltanet::atoms::AtomMap;
/// use netmodel::interval::Interval;
///
/// // Table 1 of the paper: rH = [10:12), rL = [0:16) over 32-bit addresses.
/// let mut m = AtomMap::new(32);
/// let d1 = m.create_atoms(Interval::new(10, 12));
/// let d2 = m.create_atoms(Interval::new(0, 16));
/// assert!(d1.len() <= 2 && d2.len() <= 2);
/// assert_eq!(m.atom_count(), 4); // [0:10), [10:12), [12:16), [16:2^32)
/// ```
#[derive(Clone, Debug)]
pub struct AtomMap {
    /// `M`: bound ↦ atom id. Always contains `MIN` and `MAX`.
    map: BTreeMap<Bound, AtomId>,
    /// Interval currently denoted by each atom id (dense, indexed by id).
    /// Slots of reclaimed ids hold stale intervals until reuse.
    intervals: Vec<Interval>,
    /// Atom ids reclaimed by [`AtomMap::remove_bound`], awaiting reuse by
    /// the next split (the §3.2.2 garbage-collection remark).
    free: Vec<AtomId>,
    /// Exclusive upper bound of the whole field space (`MAX = 2^width`).
    max: Bound,
}

impl AtomMap {
    /// Creates the atom map for a `width`-bit header field, containing the
    /// single atom `[MIN : MAX)`.
    pub fn new(width: u8) -> Self {
        assert!(width > 0 && width <= 127, "unsupported field width {width}");
        let max = 1u128 << width;
        let mut map = BTreeMap::new();
        map.insert(0, AtomId(0));
        map.insert(max, AtomId::INF);
        AtomMap {
            map,
            intervals: vec![Interval::new(0, max)],
            free: Vec::new(),
            max,
        }
    }

    /// The exclusive upper bound `MAX = 2^width` of the field space.
    #[inline]
    pub fn max_bound(&self) -> Bound {
        self.max
    }

    /// The number of atoms currently represented (`|M| - 1`).
    #[inline]
    pub fn atom_count(&self) -> usize {
        self.map.len() - 1
    }

    /// Size of the atom-identifier table: the high-water mark of ids handed
    /// out since the last [`AtomMap::renumber`]. Dense structures indexed by
    /// atom id (the owner arena, label bitsets) scale with this, not with
    /// [`AtomMap::atom_count`], which is why long-running churn needs the
    /// compaction pass to bring it back down.
    #[inline]
    pub fn allocated_atoms(&self) -> usize {
        self.intervals.len()
    }

    /// The half-closed interval currently denoted by `atom`.
    ///
    /// # Panics
    ///
    /// Panics if `atom` is the `α∞` sentinel or has not been allocated.
    #[inline]
    pub fn atom_interval(&self, atom: AtomId) -> Interval {
        self.intervals[atom.index()]
    }

    /// The atom containing the single field value `x`.
    pub fn atom_of_value(&self, x: Bound) -> AtomId {
        assert!(x < self.max, "value {x} outside field space");
        let (_, &atom) = self
            .map
            .range(..=x)
            .next_back()
            .expect("MIN is always present");
        atom
    }

    /// The paper's `CREATE_ATOMS⁺`: ensures both bounds of `interval` are
    /// keys of `M`, allocating at most two new atoms, and returns the
    /// delta-pairs describing the splits (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or extends beyond the field space.
    pub fn create_atoms(&mut self, interval: Interval) -> Vec<DeltaPair> {
        let mut out = Vec::with_capacity(2);
        self.create_atoms_into(interval, &mut out);
        out
    }

    /// Allocation-free form of [`AtomMap::create_atoms`]: clears `out` and
    /// fills it with the delta-pairs. The engine's update loop calls this
    /// with a scratch buffer it owns, so the steady state (both bounds
    /// already in `M`, or `out` already at capacity 2) never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or extends beyond the field space.
    pub fn create_atoms_into(&mut self, interval: Interval, out: &mut Vec<DeltaPair>) {
        assert!(!interval.is_empty(), "rules must match at least one packet");
        assert!(
            interval.hi() <= self.max,
            "interval {interval} outside field space [0 : {})",
            self.max
        );
        out.clear();
        let lower = interval.lo();
        let upper = interval.hi();
        if let Some(pair) = self.insert_bound(lower) {
            out.push(pair);
        }
        if let Some(pair) = self.insert_bound(upper) {
            out.push(pair);
        }
        debug_assert!(out.len() <= 2);
    }

    /// Inserts a single bound, splitting the atom it falls into. Returns the
    /// delta-pair if a split happened, `None` if the bound was already a key.
    fn insert_bound(&mut self, bound: Bound) -> Option<DeltaPair> {
        if self.map.contains_key(&bound) {
            return None;
        }
        // The atom being split is the one whose key is the greatest key
        // strictly below `bound`.
        let (&_pred_key, &old) = self
            .map
            .range(..bound)
            .next_back()
            .expect("MIN is always present and bound > MIN here");
        let old_interval = self.intervals[old.index()];
        debug_assert!(old_interval.contains(bound));
        // Prefer a reclaimed id over growing the table, so churn with
        // compaction stays at a bounded high-water mark.
        let upper = Interval::new(bound, old_interval.hi());
        let new = match self.free.pop() {
            Some(id) => {
                self.intervals[id.index()] = upper;
                id
            }
            None => {
                let id = AtomId(self.intervals.len() as u32);
                assert!(id != AtomId::INF, "atom identifier space exhausted");
                self.intervals.push(upper);
                id
            }
        };
        // The old atom keeps the lower part; the new atom takes the upper.
        self.intervals[old.index()] = Interval::new(old_interval.lo(), bound);
        self.map.insert(bound, new);
        Some(DeltaPair { old, new })
    }

    /// The inverse of `AtomMap::insert_bound` — the merge step of the
    /// compaction pass (§3.2.2 remark): removes `bound` from `M`, so the
    /// atom starting at `bound` is absorbed by its lower neighbour, whose
    /// interval grows accordingly. The absorbed id goes onto the free list.
    ///
    /// Returns `None` if `bound` is not a key of `M`. The caller is
    /// responsible for ensuring no live rule references `bound` (otherwise
    /// the merged atom would no longer be a Boolean-combination building
    /// block of the rule set) and for erasing the freed id from the owner
    /// and label structures.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is the structural `MIN` or `MAX` key.
    pub fn remove_bound(&mut self, bound: Bound) -> Option<AtomMerge> {
        assert!(
            bound != 0 && bound != self.max,
            "cannot remove the structural MIN/MAX bound"
        );
        let freed = self.map.remove(&bound)?;
        let (_, &kept) = self
            .map
            .range(..bound)
            .next_back()
            .expect("MIN is always present and bound > MIN here");
        let freed_interval = self.intervals[freed.index()];
        let kept_interval = self.intervals[kept.index()];
        debug_assert_eq!(kept_interval.hi(), bound, "map and interval table diverged");
        debug_assert_eq!(
            freed_interval.lo(),
            bound,
            "map and interval table diverged"
        );
        self.intervals[kept.index()] = Interval::new(kept_interval.lo(), freed_interval.hi());
        self.free.push(freed);
        Some(AtomMerge { kept, freed })
    }

    /// Renumbers the surviving atoms densely (`0..atom_count()`) in
    /// increasing address order, truncating the interval table and clearing
    /// the free list. Returns the remap table `old id → new id`, with
    /// [`REMAP_DEAD`] marking reclaimed ids; callers must apply the same
    /// remapping to every structure indexed by atom id.
    pub fn renumber(&mut self) -> Vec<u32> {
        let mut remap = vec![REMAP_DEAD; self.intervals.len()];
        let mut new_intervals = Vec::with_capacity(self.atom_count());
        for atom in self.map.values_mut() {
            if *atom == AtomId::INF {
                continue;
            }
            let new = AtomId(new_intervals.len() as u32);
            remap[atom.index()] = new.0;
            new_intervals.push(self.intervals[atom.index()]);
            *atom = new;
        }
        self.intervals = new_intervals;
        self.free.clear();
        remap
    }

    /// Whether `bound` is neither the structural `MIN` nor `MAX` — only
    /// such a bound can ever be reclaimed.
    #[inline]
    fn is_interior(&self, bound: Bound) -> bool {
        bound != 0 && bound != self.max
    }

    /// All keys of `M` except the structural `MIN` and `MAX` — the bounds a
    /// compaction pass inspects for liveness.
    pub fn interior_bounds(&self) -> impl Iterator<Item = Bound> + '_ {
        self.map
            .keys()
            .copied()
            .filter(move |&b| self.is_interior(b))
    }

    /// The atoms whose union is exactly `interval` (the paper's
    /// `⟦interval(r)⟧`), in increasing address order.
    ///
    /// Both bounds of `interval` must already be keys of `M`, i.e.
    /// [`AtomMap::create_atoms`] must have been called for this interval (or
    /// intervals sharing its bounds) beforehand.
    pub fn atoms_of(&self, interval: Interval) -> Vec<AtomId> {
        self.iter_atoms_of(interval).collect()
    }

    /// Iterator form of [`AtomMap::atoms_of`], avoiding the intermediate
    /// allocation on the hot path.
    pub fn iter_atoms_of(&self, interval: Interval) -> impl Iterator<Item = AtomId> + '_ {
        debug_assert!(
            self.map.contains_key(&interval.lo()) && self.map.contains_key(&interval.hi()),
            "atoms_of called for an interval whose bounds are not in M: {interval}"
        );
        self.map
            .range(interval.lo()..interval.hi())
            .map(|(_, &atom)| atom)
    }

    /// The number of atoms covering `interval` without materializing them.
    pub fn atoms_of_count(&self, interval: Interval) -> usize {
        self.map.range(interval.lo()..interval.hi()).count()
    }

    /// All (atom, interval) pairs in increasing address order, excluding the
    /// `α∞` sentinel. Intended for reporting and tests, not the hot path.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, Interval)> + '_ {
        self.map
            .iter()
            .filter(|(_, &a)| a != AtomId::INF)
            .map(move |(_, &a)| (a, self.intervals[a.index()]))
    }

    /// The packets of the live atoms in `set` as normalized intervals
    /// (sorted, adjacent atoms merged) — how the reports of the write path
    /// (per-update checks, the monitor, scans) render an atom set. Atoms
    /// are disjoint, so only neighbours in address order can merge. A
    /// sparse set sorts its atoms' intervals; a set holding at least one in
    /// `DENSE_PACKETS_RATIO` of the atoms walks `M` in address order
    /// instead, testing membership, which needs no sort. The what-if query
    /// renders through an `AddressOrder` built once per plane version.
    pub fn packets_of(&self, set: &AtomSet) -> Vec<Interval> {
        let mut out: Vec<Interval> = Vec::new();
        let mut extend = |iv: Interval| match out.last_mut() {
            Some(last) if last.hi() == iv.lo() => *last = Interval::new(last.lo(), iv.hi()),
            _ => out.push(iv),
        };
        if set.len() * DENSE_PACKETS_RATIO >= self.atom_count() {
            for &atom in self.map.values() {
                if set.contains(atom) {
                    extend(self.intervals[atom.index()]);
                }
            }
        } else {
            let mut intervals: Vec<Interval> = set.iter().map(|a| self.atom_interval(a)).collect();
            intervals.sort_unstable_by_key(Interval::lo);
            intervals.into_iter().for_each(extend);
        }
        out
    }

    /// The address order of the current map ([`AddressOrder`]), in one walk
    /// of `M`.
    pub(crate) fn address_order(&self) -> AddressOrder {
        let mut rank = vec![REMAP_DEAD; self.intervals.len()];
        let mut lo = Vec::with_capacity(self.map.len());
        for (&bound, &atom) in &self.map {
            if atom != AtomId::INF {
                rank[atom.index()] = lo.len() as u32;
            }
            lo.push(bound);
        }
        AddressOrder { rank, lo }
    }

    /// Whether a bound is currently a key of `M` (used by tests and the
    /// garbage-collection books, [`BoundRefs`]).
    pub fn contains_bound(&self, bound: Bound) -> bool {
        self.map.contains_key(&bound)
    }

    /// Estimated heap usage in bytes of the map and the interval table.
    pub fn memory_bytes(&self) -> usize {
        // BTreeMap nodes: key + value + per-entry overhead (~2 words).
        let entry = std::mem::size_of::<Bound>() + std::mem::size_of::<AtomId>() + 16;
        self.map.len() * entry
            + self.intervals.capacity() * std::mem::size_of::<Interval>()
            + self.free.capacity() * std::mem::size_of::<AtomId>()
    }

    /// Heap bytes addressed by live entries (≤ [`AtomMap::memory_bytes`],
    /// which counts allocated capacity). A function of the logical state
    /// alone — two maps holding the same bounds, ids and free list report
    /// the same value regardless of how their allocations grew — which is
    /// what lets a snapshot-restored engine reproduce the byte accounting
    /// of an engine built fresh from the same rules exactly.
    pub fn live_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Bound>() + std::mem::size_of::<AtomId>() + 16;
        self.map.len() * entry
            + self.intervals.len() * std::mem::size_of::<Interval>()
            + self.free.len() * std::mem::size_of::<AtomId>()
    }
}

/// The live atoms of an [`AtomMap`] in address order, as of one version of
/// the map: `rank[id]` is an atom's position among the keys of `M`
/// ([`REMAP_DEAD`] for a freed id), and `lo[position]` is that key, the
/// atom's lower bound, with `MAX` last. Atoms tile the field, so a run of
/// consecutive ranks `[s, e)` is the interval `[lo[s] : lo[e])`. Any change
/// to `M` makes the order stale: whoever keeps one must drop it on every
/// split, merge and renumbering.
#[derive(Clone, Debug)]
pub(crate) struct AddressOrder {
    rank: Vec<u32>,
    lo: Vec<Bound>,
}

impl AddressOrder {
    /// [`AtomMap::packets_of`] of the live atoms `atoms`, with neither a
    /// sort nor a walk of `M`: each atom's rank bit is set in a bitset over
    /// the ranks, and each run of set bits is one interval. O(atoms given +
    /// atom count / 64).
    pub(crate) fn packets_of(&self, atoms: impl IntoIterator<Item = AtomId>) -> Vec<Interval> {
        // The last bit, `MAX`'s position, is never set: every run ends.
        let mut bits = vec![0u64; self.lo.len().div_ceil(64)];
        for atom in atoms {
            let rank = self.rank[atom.index()];
            debug_assert_ne!(rank, REMAP_DEAD, "{atom:?} is not a live atom");
            bits[rank as usize / 64] |= 1 << (rank % 64);
        }
        // One interval per run: a set bit whose lower neighbour is clear.
        let mut carry = 0;
        let runs = bits.iter().fold(0, |runs, &word| {
            let starts = word & !(word << 1 | carry);
            carry = word >> 63;
            runs + starts.count_ones() as usize
        });
        let mut out = Vec::with_capacity(runs);
        let mut from = 0;
        while let Some(start) = next_bit(&bits, from, 0) {
            let end = next_bit(&bits, start, !0).expect("MAX's bit is clear");
            out.push(Interval::new(self.lo[start], self.lo[end]));
            from = end;
        }
        out
    }

    /// Heap bytes of the two tables (allocated capacity).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.rank.capacity() * std::mem::size_of::<u32>()
            + self.lo.capacity() * std::mem::size_of::<Bound>()
    }
}

/// The first position at or after `from` whose bit in `bits`, XORed with
/// `flip`'s, is set: with `flip` 0 the next set bit, with `!0` the next
/// clear one.
fn next_bit(bits: &[u64], from: usize, flip: u64) -> Option<usize> {
    let mut w = from / 64;
    let mut word = (bits.get(w)? ^ flip) & (!0 << (from % 64));
    while word == 0 {
        w += 1;
        word = bits.get(w)? ^ flip;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// The §3.2.2 garbage-collection books of one [`AtomMap`]: how many holders
/// (live rules, plus the clip pins of a shard) reference each bound, and how
/// many interior bounds of `M` no holder references any more — the bounds a
/// compaction pass merges away.
///
/// The books sit *beside* the map rather than inside it: an engine keeps one
/// pair for the primary field and one per secondary field, and every
/// operation that needs both takes the map as an argument.
///
/// Invariant: [`BoundRefs::reclaimable`] equals the number of keys of `M`
/// that are neither `MIN`/`MAX` nor referenced. It holds as long as every
/// interval is [`acquire`](BoundRefs::acquire)d *before* its bounds are
/// created in the map and bounds leave the map only through
/// [`merge_dead`](BoundRefs::merge_dead).
#[derive(Clone, Debug, Default)]
pub struct BoundRefs {
    refs: HashMap<Bound, u32>,
    reclaimable: usize,
}

impl BoundRefs {
    /// Counts one more holder on both bounds of `interval`. Must run before
    /// [`AtomMap::create_atoms`] for the same interval: a bound that is
    /// already a key of `atoms` but had no holder was counted reclaimable,
    /// and this holder revives it. One hash probe per bound — the map is
    /// consulted only for a bound nobody referenced.
    #[inline]
    pub fn acquire(&mut self, atoms: &AtomMap, interval: Interval) {
        for bound in [interval.lo(), interval.hi()] {
            match self.refs.entry(bound) {
                Entry::Occupied(mut count) => *count.get_mut() += 1,
                Entry::Vacant(slot) => {
                    slot.insert(1);
                    if atoms.is_interior(bound) && atoms.contains_bound(bound) {
                        self.reclaimable -= 1;
                    }
                }
            }
        }
    }

    /// Drops one holder from both bounds of `interval`; a bound whose last
    /// holder left stays in `atoms` and is counted reclaimable.
    #[inline]
    pub fn release(&mut self, atoms: &AtomMap, interval: Interval) {
        for bound in [interval.lo(), interval.hi()] {
            if let Entry::Occupied(mut count) = self.refs.entry(bound) {
                *count.get_mut() -= 1;
                if *count.get() == 0 {
                    count.remove();
                    if atoms.is_interior(bound) {
                        self.reclaimable += 1;
                    }
                }
            }
        }
    }

    /// Phase 1 of a compaction pass: removes every unreferenced interior
    /// bound from `atoms`, handing each [`AtomMerge`] to `on_merge` (which
    /// erases the freed id from whatever is indexed by atom id), and returns
    /// how many atoms were merged away. The caller renumbers afterwards.
    pub fn merge_dead(
        &mut self,
        atoms: &mut AtomMap,
        mut on_merge: impl FnMut(AtomMerge),
    ) -> usize {
        let dead: Vec<Bound> = atoms
            .interior_bounds()
            .filter(|bound| !self.refs.contains_key(bound))
            .collect();
        debug_assert_eq!(dead.len(), self.reclaimable, "reclaimable counter drifted");
        for &bound in &dead {
            on_merge(atoms.remove_bound(bound).expect("dead bound is in M"));
        }
        self.reclaimable = 0;
        dead.len()
    }

    /// Interior bounds of the map no holder references. O(1).
    #[inline]
    pub fn reclaimable(&self) -> usize {
        self.reclaimable
    }

    /// Estimated heap usage in bytes (allocated capacity).
    pub fn memory_bytes(&self) -> usize {
        self.refs.capacity() * Self::ENTRY_BYTES
    }

    /// Heap bytes addressed by live entries — a function of the logical
    /// state alone, like [`AtomMap::live_bytes`].
    pub fn live_bytes(&self) -> usize {
        self.refs.len() * Self::ENTRY_BYTES
    }

    /// Key + count + per-entry hash-table overhead.
    const ENTRY_BYTES: usize = std::mem::size_of::<Bound>() + 4 + 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: Bound, hi: Bound) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn initial_state_has_one_atom() {
        let m = AtomMap::new(32);
        assert_eq!(m.atom_count(), 1);
        assert_eq!(m.atom_interval(AtomId(0)), iv(0, 1 << 32));
        assert_eq!(m.atom_of_value(0), AtomId(0));
        assert_eq!(m.atom_of_value((1 << 32) - 1), AtomId(0));
    }

    #[test]
    fn paper_table1_atoms() {
        // Figure 5: rH = [10:12), rL = [0:16) produce atoms
        // α-pieces [0:10), [10:12), [12:16) plus the remainder [16:2^32).
        let mut m = AtomMap::new(32);
        let d_h = m.create_atoms(iv(10, 12));
        assert_eq!(d_h.len(), 2);
        let d_l = m.create_atoms(iv(0, 16));
        // 0 is MIN (already present); 16 is new → one split.
        assert_eq!(d_l.len(), 1);
        assert_eq!(m.atom_count(), 4);

        // ⟦interval(rH)⟧ is a single atom, ⟦interval(rL)⟧ is three atoms.
        assert_eq!(m.atoms_of(iv(10, 12)).len(), 1);
        assert_eq!(m.atoms_of(iv(0, 16)).len(), 3);

        // The three rL atoms cover exactly [0:16).
        let atoms = m.atoms_of(iv(0, 16));
        let mut covered: Vec<Interval> = atoms.iter().map(|&a| m.atom_interval(a)).collect();
        covered.sort();
        assert_eq!(covered, vec![iv(0, 10), iv(10, 12), iv(12, 16)]);
    }

    #[test]
    fn paper_medium_rule_split_example() {
        // §3.2.1: after rH and rL, inserting rM = [8:12) splits [0:10) into
        // [0:8) and [8:10): exactly one delta-pair.
        let mut m = AtomMap::new(32);
        m.create_atoms(iv(10, 12));
        m.create_atoms(iv(0, 16));
        let before = m.atom_of_value(9);
        let delta = m.create_atoms(iv(8, 12));
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].old, before);
        assert_eq!(m.atom_interval(delta[0].old), iv(0, 8));
        assert_eq!(m.atom_interval(delta[0].new), iv(8, 10));
        // rM is now represented by exactly two atoms: [8:10) and [10:12).
        assert_eq!(m.atoms_of(iv(8, 12)).len(), 2);
    }

    #[test]
    fn same_lower_bound_yields_three_atoms() {
        // §3.1: 1.2.0.0/16 and 1.2.0.0/24 share a lower bound, so together
        // they yield only three atoms (including the surrounding remainder
        // pieces), not four: keys {0, lo, hi24, hi16, MAX} minus MAX.
        let mut m = AtomMap::new(32);
        let p16: netmodel::ip::IpPrefix = "1.2.0.0/16".parse().unwrap();
        let p24: netmodel::ip::IpPrefix = "1.2.0.0/24".parse().unwrap();
        m.create_atoms(p16.interval());
        m.create_atoms(p24.interval());
        // keys: MIN, lo(p16)=lo(p24), hi(p24), hi(p16), MAX → 4 atoms.
        assert_eq!(m.atom_count(), 4);
    }

    #[test]
    fn create_atoms_is_idempotent() {
        let mut m = AtomMap::new(32);
        assert_eq!(m.create_atoms(iv(10, 20)).len(), 2);
        assert!(m.create_atoms(iv(10, 20)).is_empty());
        assert_eq!(m.atom_count(), 3);
    }

    #[test]
    fn atom_set_is_order_invariant() {
        // §3.1: the set of atoms at the end is invariant under insertion
        // order (though the identifiers differ).
        let intervals = [iv(0, 100), iv(50, 80), iv(20, 60), iv(90, 200)];
        let mut m1 = AtomMap::new(32);
        for i in intervals {
            m1.create_atoms(i);
        }
        let mut m2 = AtomMap::new(32);
        for i in intervals.iter().rev() {
            m2.create_atoms(*i);
        }
        let set1: Vec<Interval> = {
            let mut v: Vec<_> = m1.iter().map(|(_, iv)| iv).collect();
            v.sort();
            v
        };
        let set2: Vec<Interval> = {
            let mut v: Vec<_> = m2.iter().map(|(_, iv)| iv).collect();
            v.sort();
            v
        };
        assert_eq!(set1, set2);
        assert_eq!(m1.atom_count(), m2.atom_count());
    }

    #[test]
    fn atoms_partition_the_field_space() {
        let mut m = AtomMap::new(16);
        for i in [iv(5, 9), iv(0, 32), iv(100, 2000), iv(7, 1000)] {
            m.create_atoms(i);
        }
        let mut intervals: Vec<Interval> = m.iter().map(|(_, iv)| iv).collect();
        intervals.sort();
        // Consecutive, non-overlapping, covering [0, 2^16).
        assert_eq!(intervals.first().unwrap().lo(), 0);
        assert_eq!(intervals.last().unwrap().hi(), 1 << 16);
        for w in intervals.windows(2) {
            assert_eq!(w[0].hi(), w[1].lo());
        }
    }

    #[test]
    fn atom_of_value_matches_intervals() {
        let mut m = AtomMap::new(16);
        m.create_atoms(iv(10, 20));
        m.create_atoms(iv(15, 40));
        for x in [0u128, 9, 10, 14, 15, 19, 20, 39, 40, 65535] {
            let a = m.atom_of_value(x);
            assert!(m.atom_interval(a).contains(x), "value {x} atom {a:?}");
        }
    }

    #[test]
    fn atoms_of_count_matches_atoms_of() {
        let mut m = AtomMap::new(16);
        m.create_atoms(iv(10, 20));
        m.create_atoms(iv(15, 40));
        m.create_atoms(iv(0, 100));
        for interval in [iv(10, 20), iv(15, 40), iv(0, 100)] {
            assert_eq!(m.atoms_of(interval).len(), m.atoms_of_count(interval));
        }
    }

    #[test]
    fn delta_pair_count_never_exceeds_two() {
        let mut m = AtomMap::new(16);
        let mut rng_state = 12345u64;
        for _ in 0..500 {
            // Simple LCG so the test needs no external crate.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lo = (rng_state >> 16) % 65_000;
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let span = 1 + (rng_state >> 16) % 500;
            let hi = (lo + span).min(65_536);
            let delta = m.create_atoms(iv(lo as Bound, hi as Bound));
            assert!(delta.len() <= 2);
        }
        // Atom count can never exceed 2 * rules + 1.
        assert!(m.atom_count() <= 2 * 500 + 1);
    }

    #[test]
    fn width_4_appendix_a_example() {
        // Appendix A uses 4-bit addresses: rules [10:12) and [0:16) over a
        // 4-bit space give exactly the three atoms of Figure 9.
        let mut m = AtomMap::new(4);
        m.create_atoms(iv(10, 12));
        m.create_atoms(iv(0, 16));
        assert_eq!(m.atom_count(), 3);
        let mut intervals: Vec<Interval> = m.iter().map(|(_, iv)| iv).collect();
        intervals.sort();
        assert_eq!(intervals, vec![iv(0, 10), iv(10, 12), iv(12, 16)]);
    }

    #[test]
    #[should_panic(expected = "outside field space")]
    fn interval_beyond_field_space_panics() {
        let mut m = AtomMap::new(4);
        m.create_atoms(iv(0, 17));
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn empty_interval_panics() {
        let mut m = AtomMap::new(4);
        m.create_atoms(iv(3, 3));
    }

    #[test]
    fn memory_bytes_grows_with_atoms() {
        let mut m = AtomMap::new(32);
        let before = m.memory_bytes();
        for i in 0..100u128 {
            m.create_atoms(iv(i * 10, i * 10 + 5));
        }
        assert!(m.memory_bytes() > before);
    }

    #[test]
    fn remove_bound_merges_into_lower_neighbour() {
        let mut m = AtomMap::new(16);
        m.create_atoms(iv(10, 20));
        m.create_atoms(iv(15, 40));
        // atoms: [0,10) [10,15) [15,20) [20,40) [40,2^16)
        assert_eq!(m.atom_count(), 5);
        let left = m.atom_of_value(14);
        let right = m.atom_of_value(15);
        let merge = m.remove_bound(15).unwrap();
        assert_eq!(
            merge,
            AtomMerge {
                kept: left,
                freed: right
            }
        );
        assert_eq!(m.atom_count(), 4);
        assert_eq!(m.atom_interval(left), iv(10, 20));
        assert_eq!(m.free.len(), 1);
        assert!(!m.contains_bound(15));
        // Removing an absent bound is a no-op.
        assert!(m.remove_bound(15).is_none());
        // Consecutive merges chain through the surviving neighbour.
        let first = m.atom_of_value(0);
        m.remove_bound(10);
        m.remove_bound(20);
        assert_eq!(m.atom_interval(first), iv(0, 40));
        assert_eq!(m.atom_count(), 2);
        assert_eq!(m.free.len(), 3);
    }

    #[test]
    fn packets_of_matches_the_normalized_gather_on_both_sides_of_the_cutover() {
        use netmodel::interval::normalize;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut m = AtomMap::new(10);
        for lo in (0..1000).step_by(3) {
            m.create_atoms(iv(lo, lo + 2));
        }
        // Merges free ids, leaving their old intervals stale in the table;
        // the splits after them reuse some of those ids.
        for bound in (30..600).step_by(9) {
            m.remove_bound(bound).expect("a multiple of 3 is a bound");
        }
        let freed = m.free.len();
        for lo in 1001..1020 {
            m.create_atoms(iv(lo, lo + 1));
        }
        assert!((1..freed).contains(&m.free.len()));
        let count = m.atom_count();
        let cutover = count.div_ceil(DENSE_PACKETS_RATIO);
        let mut live: Vec<AtomId> = m.iter().map(|(a, _)| a).collect();
        let mut rng = StdRng::seed_from_u64(0x9AC7);
        for size in [0, 1, 2, cutover - 1, cutover, cutover + 1, count / 2, count] {
            for _ in 0..8 {
                live.shuffle(&mut rng);
                let set: AtomSet = live[..size].iter().copied().collect();
                let gather = set.iter().map(|a| m.atom_interval(a)).collect();
                assert_eq!(
                    m.packets_of(&set),
                    normalize(gather),
                    "{size} of {count} atoms"
                );
            }
        }
        assert!((cutover - 1) * DENSE_PACKETS_RATIO < count);
        assert!(cutover * DENSE_PACKETS_RATIO >= count);
    }

    #[test]
    fn address_order_renders_like_packets_of_across_splits_merges_and_renumbering() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xAD0E);
        let mut m = AtomMap::new(12);
        for round in 0..60 {
            // Splits, then merges that free ids (some reused by the next
            // round's splits), and now and then a renumbering.
            for _ in 0..rng.gen_range(1..40) {
                let lo = rng.gen_range(0..4095);
                m.create_atoms(iv(lo, rng.gen_range(lo + 1..=4096)));
            }
            let mut bounds: Vec<Bound> = m.interior_bounds().collect();
            bounds.shuffle(&mut rng);
            for &bound in &bounds[..bounds.len() / 3] {
                m.remove_bound(bound).expect("an interior bound of M");
            }
            if round % 7 == 6 {
                m.renumber();
            }
            let order = m.address_order();
            let mut live: Vec<AtomId> = m.iter().map(|(a, _)| a).collect();
            let count = live.len();
            for size in [0, 1, 2, count / 8, count / 2, count - 1, count] {
                live.shuffle(&mut rng);
                let set: AtomSet = live[..size].iter().copied().collect();
                let at = format!("round {round}, {size} of {count} atoms");
                assert_eq!(order.packets_of(set.iter()), m.packets_of(&set), "{at}");
            }
        }
        assert!(!m.free.is_empty(), "the last rounds leave freed ids");
    }

    #[test]
    fn split_after_merge_reuses_freed_ids() {
        let mut m = AtomMap::new(16);
        m.create_atoms(iv(10, 20));
        let allocated = m.allocated_atoms();
        m.remove_bound(10);
        m.remove_bound(20);
        assert_eq!(m.free.len(), 2);
        // New splits pop the free list instead of growing the table.
        m.create_atoms(iv(100, 200));
        assert_eq!(m.allocated_atoms(), allocated);
        assert_eq!(m.free.len(), 0);
        assert_eq!(m.atoms_of(iv(100, 200)).len(), 1);
        // Point queries and partition stay correct with recycled ids.
        for x in [0u128, 99, 100, 199, 200, 65535] {
            assert!(m.atom_interval(m.atom_of_value(x)).contains(x));
        }
    }

    #[test]
    #[should_panic(expected = "structural MIN/MAX")]
    fn remove_bound_rejects_min() {
        let mut m = AtomMap::new(16);
        m.remove_bound(0);
    }

    #[test]
    fn renumber_makes_ids_dense_in_address_order() {
        let mut m = AtomMap::new(16);
        m.create_atoms(iv(20, 30));
        m.create_atoms(iv(5, 8)); // allocated after but lower in address order
        m.remove_bound(30);
        let remap = m.renumber();
        assert_eq!(m.atom_count(), 4); // [0,5) [5,8) [8,20) [20,2^16)
        assert_eq!(m.allocated_atoms(), m.atom_count());
        assert_eq!(m.free.len(), 0);
        assert_eq!(remap.iter().filter(|&&n| n == REMAP_DEAD).count(), 1);
        // Ids follow address order after the renumbering.
        let ids: Vec<u32> = m.iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let intervals: Vec<Interval> = m.iter().map(|(_, i)| i).collect();
        assert_eq!(
            intervals,
            vec![iv(0, 5), iv(5, 8), iv(8, 20), iv(20, 1 << 16)]
        );
        // The remap table maps every surviving old id onto its new id.
        for (old, &new) in remap.iter().enumerate() {
            if new != REMAP_DEAD {
                let _ = old;
                assert!((new as usize) < m.atom_count());
            }
        }
        // Splitting keeps working after a renumber.
        let delta = m.create_atoms(iv(6, 10));
        assert_eq!(delta.len(), 2);
    }

    /// The books against a first-principles model — the list of live
    /// holder intervals — through random acquire / release / compaction
    /// sequences, stand-alone and with a pinned clip range (which no
    /// removal ever releases, as on a shard).
    #[test]
    fn bound_refs_match_a_recount_through_random_churn() {
        for (seed, clip) in [(1u64, None), (2, Some(iv(64, 192))), (3, Some(iv(0, 256)))] {
            let mut state = seed;
            let mut next = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            let mut m = AtomMap::new(8);
            let mut books = BoundRefs::default();
            let mut holders: Vec<Interval> = Vec::new();
            let pinned = usize::from(clip.is_some());
            if let Some(clip) = clip {
                books.acquire(&m, clip);
                m.create_atoms(clip);
                holders.push(clip);
            }
            for step in 0..600 {
                match next(8) {
                    0 => {
                        let (atoms, dead) = (m.atom_count(), books.reclaimable());
                        assert_eq!(books.merge_dead(&mut m, |_| {}), dead);
                        m.renumber();
                        assert_eq!(m.atom_count(), atoms - dead, "seed {seed} step {step}");
                    }
                    1..=3 if holders.len() > pinned => {
                        let at = pinned + next((holders.len() - pinned) as u64) as usize;
                        books.release(&m, holders.swap_remove(at));
                    }
                    _ => {
                        let lo = next(255);
                        let hi = lo + 1 + next(256 - lo - 1).min(40);
                        let interval = iv(lo.into(), hi.into());
                        books.acquire(&m, interval);
                        m.create_atoms(interval);
                        holders.push(interval);
                    }
                }
                let held = |b: Bound| {
                    let holds = |h: &&Interval| h.lo() == b || h.hi() == b;
                    holders.iter().filter(holds).count()
                };
                let recount = m.interior_bounds().filter(|&b| held(b) == 0);
                assert_eq!(
                    books.reclaimable(),
                    recount.count(),
                    "seed {seed} step {step}"
                );
                for (&bound, &count) in &books.refs {
                    assert!(m.contains_bound(bound), "seed {seed} step {step}");
                    assert_eq!(count as usize, held(bound), "seed {seed} step {step}");
                }
                // The books of the same holders acquired afresh, with every
                // interior bound dead to start with.
                let mut rebuilt = BoundRefs {
                    refs: HashMap::new(),
                    reclaimable: m.interior_bounds().count(),
                };
                for &holder in &holders {
                    rebuilt.acquire(&m, holder);
                }
                assert_eq!(rebuilt.refs, books.refs, "seed {seed} step {step}");
                assert_eq!(rebuilt.reclaimable, books.reclaimable);
                assert_eq!(rebuilt.live_bytes(), books.live_bytes());
            }
        }
    }

    #[test]
    fn display_of_atom_ids() {
        assert_eq!(AtomId(3).to_string(), "α3");
        assert_eq!(AtomId::INF.to_string(), "α∞");
    }
}

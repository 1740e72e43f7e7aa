//! The `owner` structure: which rule owns each atom at each switch.
//!
//! Per §3.2, `owner` is "an array of hash tables, each of which stores a
//! balanced binary search tree containing rules ordered by priority": for
//! every atom `α` and source node `s`, `owner[α][s]` holds the rules
//! installed at `s` whose interval contains `α`, ordered by priority. The
//! highest-priority such rule *owns* the atom at that switch, and its link
//! is the one whose label carries `α`.
//!
//! A priority queue would not suffice because Algorithm 2 must remove
//! arbitrary rules, not just the highest-priority one. The paper prescribes
//! a BST; this implementation keeps the BST *semantics* (ordered by
//! `(priority, rule-id)`, arbitrary removal, O(log n) lookup) but flattens
//! the representation for the update hot path:
//!
//! * [`SourceRules`] stores the per-`(atom, switch)` rules as an **inline
//!   sorted small-vec**: up to [`INLINE_RULES`] entries live inside the
//!   struct itself, spilling to a heap vector only beyond that. Most cells
//!   hold a handful of rules, so cloning one is a flat `memcpy` instead of
//!   a tree-of-nodes clone, and lookups are branchless binary searches over
//!   contiguous memory.
//! * [`Owner`] is an arena of those cells: `per_atom[α]` is a dense,
//!   NodeId-sorted slot list rather than a hash table, so the copy step of
//!   Algorithm 1 (`owner[α'] ← owner[α]` on an atom split) is a single
//!   vector clone with no rehashing and no per-entry tree allocations.
//!
//! The differential tests in `tests/atom_invariants.rs` drive identical
//! traces through this arena and a `BTreeMap` model of the paper's
//! tree-of-trees (`testutil::OwnerModel`) and compare outcomes.

use crate::atoms::AtomId;
use netmodel::rule::{Priority, RuleId};
use netmodel::topology::{LinkId, NodeId};

/// Number of rule entries stored inline in a [`SourceRules`] cell before it
/// spills to the heap. Sized so the inline case covers the common fan-in of
/// overlapping rules per `(atom, switch)` cell while keeping the cell small
/// enough that `Owner::clone_atom` stays a flat copy.
pub const INLINE_RULES: usize = 4;

/// A rule entry as seen by the owner structure: enough to run Algorithms 1
/// and 2 without chasing a pointer to the full rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedRule {
    /// The rule's priority.
    pub priority: Priority,
    /// The rule's id.
    pub id: RuleId,
    /// The rule's link (`link(r)`).
    pub link: LinkId,
}

impl OwnedRule {
    const EMPTY: OwnedRule = OwnedRule {
        priority: 0,
        id: RuleId(0),
        link: LinkId(0),
    };

    #[inline]
    fn key(&self) -> (Priority, RuleId) {
        (self.priority, self.id)
    }
}

/// The rules of one switch that contain a given atom, ordered by priority.
///
/// Keys are `(priority, rule-id)` so that entries are unique even while two
/// *non-overlapping* rules share a priority; the paper's well-formedness
/// assumption (overlapping rules have distinct priorities) guarantees that
/// the maximum key is the unique highest-priority owner.
///
/// Entries are kept sorted in increasing `(priority, id)` order in an inline
/// buffer of [`INLINE_RULES`] slots, spilling to a heap vector only when the
/// cell outgrows it. A spilled cell stays spilled until it empties, avoiding
/// thrash at the boundary.
#[derive(Clone, Debug)]
pub struct SourceRules {
    /// Number of live entries in `inline`; `u8::MAX` marks a spilled cell.
    inline_len: u8,
    /// The inline buffer; only `inline[..inline_len]` is meaningful.
    inline: [OwnedRule; INLINE_RULES],
    /// Heap storage once the cell spills (empty and unallocated otherwise).
    spill: Vec<OwnedRule>,
}

const SPILLED: u8 = u8::MAX;

// `inline_len` must be able to distinguish every fill level from the
// sentinel.
const _: () = assert!(INLINE_RULES < SPILLED as usize);

impl Default for SourceRules {
    fn default() -> Self {
        SourceRules {
            inline_len: 0,
            inline: [OwnedRule::EMPTY; INLINE_RULES],
            spill: Vec::new(),
        }
    }
}

impl PartialEq for SourceRules {
    /// Logical equality: same rules in the same order, regardless of
    /// inline-vs-spilled representation.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SourceRules {}

impl SourceRules {
    /// The live entries as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[OwnedRule] {
        if self.inline_len == SPILLED {
            &self.spill
        } else {
            &self.inline[..self.inline_len as usize]
        }
    }

    /// Whether this cell has spilled to the heap (diagnostics / tests).
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.inline_len == SPILLED
    }

    /// Binary-searches the sorted entries for `(priority, id)`.
    #[inline]
    fn search(&self, priority: Priority, id: RuleId) -> Result<usize, usize> {
        self.as_slice()
            .binary_search_by_key(&(priority, id), OwnedRule::key)
    }

    fn spill_and_insert(&mut self, pos: usize, entry: OwnedRule) {
        debug_assert_eq!(self.inline_len as usize, INLINE_RULES);
        self.spill.reserve(INLINE_RULES + 1);
        self.spill.extend_from_slice(&self.inline);
        self.spill.insert(pos, entry);
        self.inline_len = SPILLED;
    }

    /// Estimated heap usage in bytes (the inline buffer is not heap memory).
    pub fn memory_bytes(&self) -> usize {
        self.spill.capacity() * std::mem::size_of::<OwnedRule>()
    }

    /// Heap bytes addressed by live entries: zero while inline, entry count
    /// times entry size once spilled. Unlike [`SourceRules::memory_bytes`]
    /// this depends only on the logical state (entries + spilled flag), so a
    /// snapshot-restored cell reports the same value as the live one.
    pub fn live_bytes(&self) -> usize {
        if self.inline_len == SPILLED {
            self.spill.len() * std::mem::size_of::<OwnedRule>()
        } else {
            0
        }
    }

    /// Rebuilds a cell from its sorted entries and spilled flag (the inverse
    /// of [`SourceRules::as_slice`] + [`SourceRules::is_spilled`]). Validates
    /// that entries are strictly increasing by `(priority, id)` and that the
    /// flag is representable — a non-spilled cell fits the inline buffer, a
    /// spilled cell is non-empty ("a spilled cell stays spilled until it
    /// empties") — returning a description of the violation otherwise.
    pub fn from_entries(entries: &[OwnedRule], spilled: bool) -> Result<SourceRules, String> {
        if entries.windows(2).any(|w| w[0].key() >= w[1].key()) {
            return Err("owner cell entries not strictly sorted".to_string());
        }
        if spilled {
            if entries.is_empty() {
                return Err("spilled owner cell cannot be empty".to_string());
            }
            Ok(SourceRules {
                inline_len: SPILLED,
                inline: [OwnedRule::EMPTY; INLINE_RULES],
                spill: entries.to_vec(),
            })
        } else {
            if entries.len() > INLINE_RULES {
                return Err(format!(
                    "inline owner cell holds {} entries (max {INLINE_RULES})",
                    entries.len()
                ));
            }
            let mut inline = [OwnedRule::EMPTY; INLINE_RULES];
            inline[..entries.len()].copy_from_slice(entries);
            Ok(SourceRules {
                inline_len: entries.len() as u8,
                inline,
                spill: Vec::new(),
            })
        }
    }

    /// Inserts a rule.
    #[inline]
    pub fn insert(&mut self, priority: Priority, id: RuleId, link: LinkId) {
        let entry = OwnedRule { priority, id, link };
        match self.search(priority, id) {
            // Same key: replace the link, matching BTreeMap::insert.
            Ok(pos) => {
                if self.inline_len == SPILLED {
                    self.spill[pos] = entry;
                } else {
                    self.inline[pos] = entry;
                }
            }
            Err(pos) => {
                if self.inline_len == SPILLED {
                    self.spill.insert(pos, entry);
                } else if (self.inline_len as usize) < INLINE_RULES {
                    let len = self.inline_len as usize;
                    self.inline.copy_within(pos..len, pos + 1);
                    self.inline[pos] = entry;
                    self.inline_len += 1;
                } else {
                    self.spill_and_insert(pos, entry);
                }
            }
        }
    }

    /// Removes a rule; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, priority: Priority, id: RuleId) -> bool {
        match self.search(priority, id) {
            Ok(pos) => {
                if self.inline_len == SPILLED {
                    self.spill.remove(pos);
                    if self.spill.is_empty() {
                        // Reclaim the empty cell's heap allocation.
                        self.spill = Vec::new();
                        self.inline_len = 0;
                    }
                } else {
                    let len = self.inline_len as usize;
                    self.inline.copy_within(pos + 1..len, pos);
                    self.inline_len -= 1;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// The highest-priority rule, if any (`bst.highest_priority_rule()`).
    #[inline]
    pub fn highest(&self) -> Option<OwnedRule> {
        self.as_slice().last().copied()
    }

    /// Whether the given rule is stored here (`r ∈ bst`).
    #[inline]
    pub fn contains(&self, priority: Priority, id: RuleId) -> bool {
        self.search(priority, id).is_ok()
    }

    /// Number of rules at this switch containing the atom.
    #[inline]
    pub fn len(&self) -> usize {
        if self.inline_len == SPILLED {
            self.spill.len()
        } else {
            self.inline_len as usize
        }
    }

    /// Whether no rule at this switch contains the atom.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(priority, id, link)` in increasing `(priority, id)` order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = OwnedRule> + '_ {
        self.as_slice().iter().copied()
    }
}

/// One slot of an atom's source list: a switch and its rules for the atom.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SourceSlot {
    source: NodeId,
    rules: SourceRules,
}

/// `owner[α][source]` for every allocated atom.
///
/// Layout: a dense arena indexed by atom id; `per_atom[α]` is a NodeId-sorted
/// vector of [`SourceSlot`]s (a *source-slot list*). Compared to the previous
/// `Vec<HashMap<NodeId, BTreeMap<..>>>`:
///
/// * lookup is a binary search over a contiguous slot list — no hashing;
/// * `clone_atom` (Algorithm 1 line 4) clones one vector whose elements are
///   flat cells — one allocation plus `memcpy` in the common all-inline case,
///   instead of a hash-table rebuild plus one tree clone per source;
/// * iteration over a split atom's sources walks contiguous memory in NodeId
///   order (deterministic, unlike hash iteration).
#[derive(Clone, Debug, Default)]
pub struct Owner {
    per_atom: Vec<Vec<SourceSlot>>,
}

impl Owner {
    /// Creates an empty owner structure.
    pub fn new() -> Self {
        Owner::default()
    }

    /// Makes sure `owner[atom]` exists (as an empty slot list). Called
    /// whenever a new atom id is allocated.
    pub fn ensure_atom(&mut self, atom: AtomId) {
        if atom.index() >= self.per_atom.len() {
            self.per_atom.resize_with(atom.index() + 1, Vec::new);
        }
    }

    /// `owner[new] ← owner[old]` — the copy step of Algorithm 1 (line 4)
    /// performed when atom `old` is split and `new` takes over its upper
    /// half: every rule containing the old atom also contains the new one.
    ///
    /// This is the hottest cloning site of the engine; with the arena layout
    /// it performs a single slot-list clone (plus a heap clone for the rare
    /// spilled cell) instead of a per-source tree-of-trees clone.
    pub fn clone_atom(&mut self, old: AtomId, new: AtomId) {
        self.ensure_atom(new.max(old));
        let copied = self.per_atom[old.index()].clone();
        self.per_atom[new.index()] = copied;
    }

    #[inline]
    fn find(&self, atom: AtomId, source: NodeId) -> Option<(usize, &Vec<SourceSlot>)> {
        let slots = self.per_atom.get(atom.index())?;
        let pos = slots.binary_search_by_key(&source, |s| s.source).ok()?;
        Some((pos, slots))
    }

    /// The rules containing `atom` at `source` (read-only); `None` when no
    /// rule at that switch contains the atom.
    pub fn get(&self, atom: AtomId, source: NodeId) -> Option<&SourceRules> {
        let (pos, slots) = self.find(atom, source)?;
        Some(&slots[pos].rules)
    }

    /// Mutable access, creating the slot on first use (Algorithm 1 inserts
    /// into the BST irrespective of ownership, line 22). A single binary
    /// search serves both the incumbent-owner read and the insert that
    /// follows — callers should hold on to the returned reference instead of
    /// looking the cell up twice.
    pub fn get_mut(&mut self, atom: AtomId, source: NodeId) -> &mut SourceRules {
        self.ensure_atom(atom);
        let slots = &mut self.per_atom[atom.index()];
        let pos = match slots.binary_search_by_key(&source, |s| s.source) {
            Ok(pos) => pos,
            Err(pos) => {
                if slots.capacity() == 0 {
                    // Skip the 1→2→4 growth chain: nearly every atom that
                    // gains one source slot gains a few.
                    slots.reserve(4);
                }
                slots.insert(
                    pos,
                    SourceSlot {
                        source,
                        rules: SourceRules::default(),
                    },
                );
                pos
            }
        };
        &mut slots[pos].rules
    }

    /// Iterates `(source, rules)` pairs for one atom in increasing NodeId
    /// order — the loop of Algorithm 1 lines 5–8.
    pub fn sources(&self, atom: AtomId) -> impl Iterator<Item = (NodeId, &SourceRules)> + '_ {
        self.per_atom
            .get(atom.index())
            .into_iter()
            .flat_map(|slots| slots.iter().map(|s| (s.source, &s.rules)))
    }

    /// Frees an atom's slot list entirely, releasing its heap storage — the
    /// counterpart of [`Owner::clone_atom`] used when a compaction pass
    /// merges the atom away.
    pub fn clear_atom(&mut self, atom: AtomId) {
        if let Some(slots) = self.per_atom.get_mut(atom.index()) {
            *slots = Vec::new();
        }
    }

    /// Applies the id remapping of a compaction pass: slot lists move from
    /// their old atom index to `remap[old]`, the arena shrinks to `new_len`
    /// entries, and reclaimed ids (marked [`crate::atoms::REMAP_DEAD`]) must
    /// have been cleared beforehand.
    pub fn remap(&mut self, remap: &[u32], new_len: usize) {
        let old = std::mem::take(&mut self.per_atom);
        self.per_atom.resize_with(new_len, Vec::new);
        for (old_index, slots) in old.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let new = remap
                .get(old_index)
                .copied()
                .unwrap_or(crate::atoms::REMAP_DEAD);
            assert!(
                new != crate::atoms::REMAP_DEAD,
                "owner slots survive for reclaimed atom α{old_index}"
            );
            self.per_atom[new as usize] = slots;
        }
    }

    /// Total number of `(atom, source, rule)` entries — the `O(R·K)` space
    /// term of the complexity analysis.
    pub fn total_entries(&self) -> usize {
        self.per_atom
            .iter()
            .flat_map(|slots| slots.iter())
            .map(|s| s.rules.len())
            .sum()
    }

    /// Number of cells that have spilled past the inline buffer.
    #[cfg(test)]
    fn spilled_cells(&self) -> usize {
        self.per_atom
            .iter()
            .flat_map(|slots| slots.iter())
            .filter(|s| s.rules.is_spilled())
            .count()
    }

    /// Estimated heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.per_atom.capacity() * std::mem::size_of::<Vec<SourceSlot>>();
        for slots in &self.per_atom {
            bytes += slots.capacity() * std::mem::size_of::<SourceSlot>();
            bytes += slots.iter().map(|s| s.rules.memory_bytes()).sum::<usize>();
        }
        bytes
    }

    /// Heap bytes addressed by live entries — the len-based counterpart of
    /// [`Owner::memory_bytes`], a function of the logical state alone so a
    /// snapshot round-trip reproduces it exactly.
    pub fn live_bytes(&self) -> usize {
        let mut bytes = self.per_atom.len() * std::mem::size_of::<Vec<SourceSlot>>();
        for slots in &self.per_atom {
            bytes += slots.len() * std::mem::size_of::<SourceSlot>();
            bytes += slots.iter().map(|s| s.rules.live_bytes()).sum::<usize>();
        }
        bytes
    }

    /// Exports the full arena for a snapshot: one entry per allocated atom,
    /// each a NodeId-sorted list of `(source, spilled, entries)` cells.
    /// Empty cells are included — the engine never prunes them, and the
    /// len-based byte accounting counts them — so the export is exactly what
    /// [`Owner::from_cells`] needs to rebuild a logically identical arena.
    pub fn export_cells(&self) -> Vec<Vec<(NodeId, bool, Vec<OwnedRule>)>> {
        self.per_atom
            .iter()
            .map(|slots| {
                slots
                    .iter()
                    .map(|s| (s.source, s.rules.is_spilled(), s.rules.as_slice().to_vec()))
                    .collect()
            })
            .collect()
    }

    /// Rebuilds an arena from the export of [`Owner::export_cells`],
    /// validating per-cell entry order (via [`SourceRules::from_entries`])
    /// and the NodeId-sorted slot invariant.
    pub fn from_cells(cells: Vec<Vec<(NodeId, bool, Vec<OwnedRule>)>>) -> Result<Owner, String> {
        let mut per_atom = Vec::with_capacity(cells.len());
        for atom_cells in cells {
            if atom_cells.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err("owner slots not strictly NodeId-sorted".to_string());
            }
            let mut slots = Vec::with_capacity(atom_cells.len());
            for (source, spilled, entries) in atom_cells {
                slots.push(SourceSlot {
                    source,
                    rules: SourceRules::from_entries(&entries, spilled)?,
                });
            }
            per_atom.push(slots);
        }
        Ok(Owner { per_atom })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u64) -> RuleId {
        RuleId(i)
    }

    #[test]
    fn source_rules_priority_order() {
        let mut s = SourceRules::default();
        s.insert(10, rid(1), LinkId(0));
        s.insert(30, rid(2), LinkId(1));
        s.insert(20, rid(3), LinkId(2));
        assert_eq!(s.len(), 3);
        let h = s.highest().unwrap();
        assert_eq!(h.id, rid(2));
        assert_eq!(h.priority, 30);
        assert_eq!(h.link, LinkId(1));
        // Iteration is by increasing priority.
        let prios: Vec<Priority> = s.iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![10, 20, 30]);
    }

    #[test]
    fn source_rules_remove_arbitrary() {
        let mut s = SourceRules::default();
        s.insert(10, rid(1), LinkId(0));
        s.insert(30, rid(2), LinkId(1));
        s.insert(20, rid(3), LinkId(2));
        // Remove a non-highest rule (the reason a BST is used, §3.2).
        assert!(s.remove(20, rid(3)));
        assert!(!s.remove(20, rid(3)));
        assert_eq!(s.highest().unwrap().id, rid(2));
        assert!(s.contains(10, rid(1)));
        assert!(!s.contains(20, rid(3)));
        // Remove the highest; ownership falls back to the next.
        assert!(s.remove(30, rid(2)));
        assert_eq!(s.highest().unwrap().id, rid(1));
        assert!(s.remove(10, rid(1)));
        assert!(s.is_empty());
        assert!(s.highest().is_none());
    }

    #[test]
    fn equal_priority_disjoint_rules_coexist() {
        // Non-overlapping rules may share a priority; the store must keep
        // both.
        let mut s = SourceRules::default();
        s.insert(10, rid(1), LinkId(0));
        s.insert(10, rid(2), LinkId(1));
        assert_eq!(s.len(), 2);
        // Ties are broken by rule id; the exact winner is irrelevant for
        // well-formed data planes but must be deterministic.
        assert_eq!(s.highest().unwrap().id, rid(2));
    }

    #[test]
    fn duplicate_key_insert_replaces_link() {
        // BTreeMap::insert semantics: same (priority, id) replaces the value.
        let mut s = SourceRules::default();
        s.insert(10, rid(1), LinkId(0));
        s.insert(10, rid(1), LinkId(5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.highest().unwrap().link, LinkId(5));
    }

    #[test]
    fn spill_past_inline_capacity_and_back() {
        let mut s = SourceRules::default();
        let n = INLINE_RULES as u32 + 3;
        for i in 0..n {
            s.insert(i + 1, rid(u64::from(i)), LinkId(i));
            assert_eq!(s.len(), (i + 1) as usize);
        }
        assert!(s.is_spilled());
        // Sorted order and highest survive the spill.
        let prios: Vec<Priority> = s.iter().map(|r| r.priority).collect();
        assert_eq!(prios, (1..=n).collect::<Vec<_>>());
        assert_eq!(s.highest().unwrap().priority, n);
        // Draining the cell returns it to (empty) inline storage.
        for i in 0..n {
            assert!(s.remove(i + 1, rid(u64::from(i))));
        }
        assert!(s.is_empty());
        assert!(!s.is_spilled());
        assert_eq!(s.memory_bytes(), 0);
        // And it is usable again afterwards.
        s.insert(7, rid(70), LinkId(1));
        assert_eq!(s.highest().unwrap().priority, 7);
    }

    #[test]
    fn owner_clone_atom_copies_all_sources() {
        let mut o = Owner::new();
        o.ensure_atom(AtomId(0));
        o.get_mut(AtomId(0), NodeId(1)).insert(5, rid(1), LinkId(0));
        o.get_mut(AtomId(0), NodeId(2)).insert(7, rid(2), LinkId(3));
        o.clone_atom(AtomId(0), AtomId(1));
        assert_eq!(
            o.get(AtomId(1), NodeId(1)).unwrap().highest().unwrap().id,
            rid(1)
        );
        assert_eq!(
            o.get(AtomId(1), NodeId(2)).unwrap().highest().unwrap().link,
            LinkId(3)
        );
        // The copy is independent of the original.
        o.get_mut(AtomId(1), NodeId(1)).insert(9, rid(9), LinkId(7));
        assert_eq!(o.get(AtomId(0), NodeId(1)).unwrap().len(), 1);
        assert_eq!(o.get(AtomId(1), NodeId(1)).unwrap().len(), 2);
    }

    #[test]
    fn owner_sources_iteration_and_entries() {
        let mut o = Owner::new();
        o.get_mut(AtomId(3), NodeId(1)).insert(2, rid(2), LinkId(1));
        o.get_mut(AtomId(3), NodeId(0)).insert(1, rid(1), LinkId(0));
        o.get_mut(AtomId(3), NodeId(1)).insert(3, rid(3), LinkId(2));
        // Sources iterate in NodeId order (deterministic, unlike the old
        // hash layout) regardless of insertion order.
        let sources: Vec<NodeId> = o.sources(AtomId(3)).map(|(n, _)| n).collect();
        assert_eq!(sources, vec![NodeId(0), NodeId(1)]);
        assert_eq!(o.total_entries(), 3);
        assert_eq!(o.sources(AtomId(99)).count(), 0);
        assert!(o.get(AtomId(3), NodeId(9)).is_none());
    }

    #[test]
    fn memory_accounting_is_monotone() {
        let mut o = Owner::new();
        let before = o.memory_bytes();
        for atom in 0..50u32 {
            for node in 0..4u32 {
                o.get_mut(AtomId(atom), NodeId(node)).insert(
                    node,
                    rid(u64::from(atom * 10 + node)),
                    LinkId(node),
                );
            }
        }
        assert!(o.memory_bytes() > before);
        assert_eq!(o.total_entries(), 200);
        assert_eq!(o.export_cells().len(), 50);
        assert_eq!(o.spilled_cells(), 0);
    }

    #[test]
    fn clone_atom_with_spilled_cell() {
        let mut o = Owner::new();
        for i in 0..(INLINE_RULES as u32 + 2) {
            o.get_mut(AtomId(0), NodeId(0))
                .insert(i + 1, rid(u64::from(i)), LinkId(0));
        }
        assert_eq!(o.spilled_cells(), 1);
        o.clone_atom(AtomId(0), AtomId(5));
        assert_eq!(o.spilled_cells(), 2);
        assert_eq!(o.get(AtomId(5), NodeId(0)).unwrap().len(), INLINE_RULES + 2);
        // ensure_atom extended the arena to cover atoms 1..=5 as well.
        assert_eq!(o.export_cells().len(), 6);
        assert_eq!(o.sources(AtomId(3)).count(), 0);
    }

    #[test]
    fn clear_atom_frees_slots_and_remap_moves_them() {
        let mut o = Owner::new();
        o.get_mut(AtomId(0), NodeId(1)).insert(5, rid(1), LinkId(0));
        o.get_mut(AtomId(2), NodeId(0)).insert(7, rid(2), LinkId(1));
        o.get_mut(AtomId(4), NodeId(3)).insert(9, rid(3), LinkId(2));
        // Merge α2 away, then renumber {α0 → 0, α4 → 1}.
        o.clear_atom(AtomId(2));
        assert_eq!(o.sources(AtomId(2)).count(), 0);
        let remap = [0, u32::MAX, u32::MAX, u32::MAX, 1];
        o.remap(&remap, 2);
        assert_eq!(o.export_cells().len(), 2);
        assert_eq!(
            o.get(AtomId(0), NodeId(1)).unwrap().highest().unwrap().id,
            rid(1)
        );
        assert_eq!(
            o.get(AtomId(1), NodeId(3)).unwrap().highest().unwrap().id,
            rid(3)
        );
        assert_eq!(o.total_entries(), 2);
    }

    #[test]
    #[should_panic(expected = "reclaimed atom")]
    fn remap_rejects_uncleaned_dead_atoms() {
        let mut o = Owner::new();
        o.get_mut(AtomId(1), NodeId(0)).insert(5, rid(1), LinkId(0));
        o.remap(&[0, u32::MAX], 1);
    }
}

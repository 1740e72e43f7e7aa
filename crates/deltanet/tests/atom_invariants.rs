//! Randomized engine-level invariant tests, below the workspace-level
//! integration suites: the atom map's partition invariant, `AtomSet`
//! round-trips against a `BTreeSet` model, and the owner BST's
//! highest-priority semantics against a sorted-vector model.

use deltanet::atoms::{AtomId, AtomMap};
use deltanet::atomset::AtomSet;
use deltanet::owner::{OwnedRule, Owner, SourceRules};
use netmodel::interval::Interval;
use netmodel::rule::RuleId;
use netmodel::topology::{LinkId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use testutil::{ModelCell, OwnerModel};

/// What the two cell representations under differential test have in
/// common: the arena's small-vec [`SourceRules`] (production) and the
/// `BTreeMap` cell of [`OwnerModel`] (the reference, which shares no code
/// with `deltanet::owner`).
trait Store: Default {
    fn insert(&mut self, priority: u32, id: RuleId, link: LinkId);
    fn remove(&mut self, priority: u32, id: RuleId) -> bool;
    fn highest(&self) -> Option<OwnedRule>;
    fn contains(&self, priority: u32, id: RuleId) -> bool;
    fn len(&self) -> usize;
    fn iter(&self) -> Vec<OwnedRule>;
}

impl Store for SourceRules {
    fn insert(&mut self, priority: u32, id: RuleId, link: LinkId) {
        SourceRules::insert(self, priority, id, link);
    }
    fn remove(&mut self, priority: u32, id: RuleId) -> bool {
        SourceRules::remove(self, priority, id)
    }
    fn highest(&self) -> Option<OwnedRule> {
        SourceRules::highest(self)
    }
    fn contains(&self, priority: u32, id: RuleId) -> bool {
        SourceRules::contains(self, priority, id)
    }
    fn len(&self) -> usize {
        SourceRules::len(self)
    }
    fn iter(&self) -> Vec<OwnedRule> {
        SourceRules::iter(self).collect()
    }
}

impl Store for ModelCell {
    fn insert(&mut self, priority: u32, id: RuleId, link: LinkId) {
        ModelCell::insert(self, (priority, id), link);
    }
    fn remove(&mut self, priority: u32, id: RuleId) -> bool {
        ModelCell::remove(self, &(priority, id)).is_some()
    }
    fn highest(&self) -> Option<OwnedRule> {
        Store::iter(self).pop()
    }
    fn contains(&self, priority: u32, id: RuleId) -> bool {
        self.contains_key(&(priority, id))
    }
    fn len(&self) -> usize {
        ModelCell::len(self)
    }
    fn iter(&self) -> Vec<OwnedRule> {
        let owned = |(&(priority, id), &link)| OwnedRule { priority, id, link };
        ModelCell::iter(self).map(owned).collect()
    }
}

/// After any sequence of `create_atoms` calls, the atoms are consecutive,
/// disjoint, cover the whole field space, and `atom_of_value` agrees with
/// `atom_interval` everywhere; `atoms_of` reproduces each inserted interval
/// exactly.
#[test]
fn atom_map_partitions_field_space_under_random_inserts() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = 10u8;
        let max = 1u128 << width;
        let mut m = AtomMap::new(width);
        let mut inserted: Vec<Interval> = Vec::new();
        for _ in 0..rng.gen_range(1..60) {
            let interval = testutil::random_interval(&mut rng, width);
            let delta = m.create_atoms(interval);
            assert!(delta.len() <= 2, "seed {seed}: more than two splits");
            inserted.push(interval);
        }

        // Partition: consecutive, disjoint, covering.
        let mut pieces: Vec<Interval> = m.iter().map(|(_, iv)| iv).collect();
        pieces.sort();
        assert_eq!(pieces.len(), m.atom_count());
        assert!(m.atom_count() <= 2 * inserted.len() + 1);
        assert_eq!(pieces.first().unwrap().lo(), 0, "seed {seed}");
        assert_eq!(pieces.last().unwrap().hi(), max, "seed {seed}");
        for w in pieces.windows(2) {
            assert_eq!(w[0].hi(), w[1].lo(), "seed {seed}: gap or overlap");
        }

        // ⟦interval⟧ is exact for every inserted interval.
        for iv in &inserted {
            let atoms = m.atoms_of(*iv);
            assert_eq!(atoms.len(), m.atoms_of_count(*iv));
            let total: u128 = atoms.iter().map(|&a| m.atom_interval(a).len()).sum();
            assert_eq!(total, iv.len(), "seed {seed}: {iv} not covered exactly");
            for &a in &atoms {
                assert!(iv.contains_interval(&m.atom_interval(a)));
            }
        }

        // Point queries agree with the interval table.
        for x in 0..max {
            let a = m.atom_of_value(x);
            assert!(m.atom_interval(a).contains(x), "seed {seed}: value {x}");
        }
    }
}

/// Building an `AtomSet` from any id sequence and iterating it back yields
/// the sorted deduplicated ids, and union/intersection/difference round-trip
/// through the `BTreeSet` model (both the allocating and in-place forms).
#[test]
fn atomset_set_algebra_round_trips_against_model() {
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0xA70_5E7 ^ seed);
        let draw = |rng: &mut StdRng| -> Vec<u32> {
            let n = rng.gen_range(0..80);
            (0..n).map(|_| rng.gen_range(0..400u32)).collect()
        };
        let a_ids = draw(&mut rng);
        let b_ids = draw(&mut rng);

        let a: AtomSet = a_ids.iter().map(|&x| AtomId(x)).collect();
        let b: AtomSet = b_ids.iter().map(|&x| AtomId(x)).collect();
        let model_a: BTreeSet<u32> = a_ids.iter().copied().collect();
        let model_b: BTreeSet<u32> = b_ids.iter().copied().collect();

        // Iteration yields sorted, deduplicated ids.
        let back: Vec<u32> = a.iter().map(|x| x.0).collect();
        let model_back: Vec<u32> = model_a.iter().copied().collect();
        assert_eq!(back, model_back, "seed {seed}");
        assert_eq!(a.len(), model_a.len());
        for &x in &model_a {
            assert!(a.contains(AtomId(x)));
        }

        // Allocating algebra.
        let pairs: [(AtomSet, Vec<u32>); 3] = [
            (a.union(&b), model_a.union(&model_b).copied().collect()),
            (
                a.intersection(&b),
                model_a.intersection(&model_b).copied().collect(),
            ),
            (
                a.difference(&b),
                model_a.difference(&model_b).copied().collect(),
            ),
        ];
        for (i, (got, want)) in pairs.iter().enumerate() {
            let got_ids: Vec<u32> = got.iter().map(|x| x.0).collect();
            assert_eq!(&got_ids, want, "seed {seed}: op {i}");
            assert_eq!(got.len(), want.len());
        }

        // In-place forms agree with the allocating forms.
        let mut u = a.clone();
        let grew = u.union_with(&b);
        assert_eq!(u, a.union(&b), "seed {seed}");
        assert_eq!(grew, u.len() > a.len(), "seed {seed}");
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, a.intersection(&b), "seed {seed}");
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b), "seed {seed}");

        // Predicates.
        assert_eq!(
            a.intersects(&b),
            model_a.intersection(&model_b).next().is_some()
        );
        assert_eq!(a.is_subset_of(&b), model_a.is_subset(&model_b));
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.intersection(&b).is_subset_of(&b));
        assert!(a.is_subset_of(&a.union(&b)));
    }
}

/// The owner store returns the highest-priority rule through arbitrary
/// interleavings of inserts and removals of non-highest entries, matching a
/// sorted-vector model keyed the same way (`(priority, rule-id)`). Run
/// against any [`Store`] implementation.
fn check_rule_store_against_model<S: Store>(tag: &str) {
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0x0B57 ^ seed);
        let mut bst = S::default();
        let mut model: Vec<(u32, u64)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..200 {
            let insert = model.is_empty() || rng.gen_bool(0.6);
            if insert {
                let priority = rng.gen_range(1..1000);
                let id = next_id;
                next_id += 1;
                bst.insert(priority, RuleId(id), LinkId((id % 7) as u32));
                model.push((priority, id));
            } else {
                // Remove an arbitrary (not necessarily highest) entry — the
                // operation that rules out a plain priority queue (§3.2).
                let victim = model.swap_remove(rng.gen_range(0..model.len()));
                assert!(bst.remove(victim.0, RuleId(victim.1)), "{tag} seed {seed}");
                assert!(!bst.remove(victim.0, RuleId(victim.1)), "{tag} seed {seed}");
            }
            assert_eq!(bst.len(), model.len(), "{tag} seed {seed}");
            match model.iter().max() {
                None => assert!(bst.highest().is_none(), "{tag} seed {seed}"),
                Some(&(priority, id)) => {
                    let h = bst.highest().expect("model non-empty");
                    assert_eq!((h.priority, h.id.0), (priority, id), "{tag} seed {seed}");
                    assert_eq!(h.link, LinkId((id % 7) as u32), "{tag} seed {seed}");
                    assert!(bst.contains(priority, RuleId(id)));
                }
            }
            // Iteration is by increasing (priority, id).
            let iterated: Vec<(u32, u64)> = Store::iter(&bst)
                .iter()
                .map(|r| (r.priority, r.id.0))
                .collect();
            let mut sorted = model.clone();
            sorted.sort_unstable();
            assert_eq!(iterated, sorted, "{tag} seed {seed}");
        }
    }
}

#[test]
fn owner_smallvec_store_highest_priority_matches_model() {
    check_rule_store_against_model::<SourceRules>("small-vec");
}

#[test]
fn owner_btree_store_highest_priority_matches_model() {
    check_rule_store_against_model::<ModelCell>("btree");
}

/// Differential test of the two rule-store representations: identical
/// randomized insert/remove traces through the BTreeMap-backed
/// [`ModelCell`] and the small-vec [`SourceRules`] must produce
/// identical `highest()`, `len()`, `contains()` and iteration outcomes after
/// every step — including traces that cross the inline→spill boundary in
/// both directions.
#[test]
fn smallvec_and_btree_stores_agree_on_random_traces() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed);
        let mut new_store = SourceRules::default();
        let mut old_store = ModelCell::default();
        let mut live: Vec<(u32, u64)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..300 {
            // Bias phases so the store repeatedly grows past the inline
            // capacity and drains back: mostly-insert for 100 steps,
            // mostly-remove for the next 50, and so on.
            let insert_bias = if (step / 100) % 3 == 2 { 0.25 } else { 0.75 };
            if live.is_empty() || rng.gen_bool(insert_bias) {
                // Occasionally reuse a live key to exercise the
                // replace-on-duplicate-key path of both stores.
                let (priority, id) = if !live.is_empty() && rng.gen_bool(0.05) {
                    live[rng.gen_range(0..live.len())]
                } else {
                    let p = rng.gen_range(1..50);
                    let id = next_id;
                    next_id += 1;
                    live.push((p, id));
                    (p, id)
                };
                let link = LinkId(rng.gen_range(0..5));
                new_store.insert(priority, RuleId(id), link);
                Store::insert(&mut old_store, priority, RuleId(id), link);
            } else {
                let (priority, id) = live.swap_remove(rng.gen_range(0..live.len()));
                let a = new_store.remove(priority, RuleId(id));
                let b = Store::remove(&mut old_store, priority, RuleId(id));
                assert_eq!(a, b, "seed {seed} step {step}");
            }
            assert_eq!(
                new_store.len(),
                Store::len(&old_store),
                "seed {seed} step {step}"
            );
            assert_eq!(
                new_store.highest(),
                Store::highest(&old_store),
                "seed {seed} step {step}"
            );
            let a: Vec<_> = new_store.iter().collect();
            let b = Store::iter(&old_store);
            assert_eq!(a, b, "seed {seed} step {step}");
            for &(p, id) in live.iter().take(5) {
                assert_eq!(
                    new_store.contains(p, RuleId(id)),
                    Store::contains(&old_store, p, RuleId(id)),
                    "seed {seed} step {step}"
                );
            }
        }
    }
}

/// Compaction differential for the two owner layouts: randomized traces of
/// splits (`clone_atom`), merges (`clear_atom`) and renumberings (`remap`)
/// through the arena [`Owner`] and the reference [`OwnerModel`] must keep every
/// `(atom, source)` cell identical.
#[test]
fn arena_and_hash_owner_agree_under_compaction_traces() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xC0417 ^ seed);
        let mut arena = Owner::new();
        let mut hash = OwnerModel::default();
        let sources = 4u32;
        let mut alive: Vec<u32> = vec![0]; // live atom ids
        let mut next_atom = 1u32;
        let mut live: Vec<(u32, u32, u32, u64)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..300 {
            match rng.gen_range(0..12) {
                // Split.
                0 | 1 if alive.len() < 40 => {
                    let old = alive[rng.gen_range(0..alive.len())];
                    let new = next_atom;
                    next_atom += 1;
                    alive.push(new);
                    arena.clone_atom(AtomId(old), AtomId(new));
                    hash.clone_atom(old, new);
                    let copied: Vec<_> = live
                        .iter()
                        .filter(|&&(a, ..)| a == old)
                        .map(|&(_, s, p, id)| (new, s, p, id))
                        .collect();
                    live.extend(copied);
                }
                // Merge: an atom dies; its cells are freed in both layouts.
                2 if alive.len() > 1 => {
                    let pos = rng.gen_range(0..alive.len());
                    let dead = alive.swap_remove(pos);
                    arena.clear_atom(AtomId(dead));
                    hash.clear_atom(dead);
                    live.retain(|&(a, ..)| a != dead);
                }
                // Renumber: dense ids for the survivors, in id order.
                3 => {
                    alive.sort_unstable();
                    let mut remap = vec![u32::MAX; next_atom as usize];
                    for (new, &old) in alive.iter().enumerate() {
                        remap[old as usize] = new as u32;
                    }
                    arena.remap(&remap, alive.len());
                    hash.remap(&remap);
                    for entry in &mut live {
                        entry.0 = remap[entry.0 as usize];
                    }
                    alive = (0..alive.len() as u32).collect();
                    next_atom = alive.len() as u32;
                }
                // Remove a live entry.
                4 | 5 if !live.is_empty() => {
                    let (atom, source, priority, id) =
                        live.swap_remove(rng.gen_range(0..live.len()));
                    let a = arena
                        .get_mut(AtomId(atom), NodeId(source))
                        .remove(priority, RuleId(id));
                    let b = Store::remove(hash.get_mut(atom, NodeId(source)), priority, RuleId(id));
                    assert_eq!(a, b, "seed {seed} step {step}");
                    assert!(a, "seed {seed} step {step}");
                }
                // Insert.
                _ => {
                    let atom = alive[rng.gen_range(0..alive.len())];
                    let source = rng.gen_range(0..sources);
                    let priority = rng.gen_range(1..20);
                    let id = next_id;
                    next_id += 1;
                    let link = LinkId(id as u32 % 5);
                    arena
                        .get_mut(AtomId(atom), NodeId(source))
                        .insert(priority, RuleId(id), link);
                    Store::insert(
                        hash.get_mut(atom, NodeId(source)),
                        priority,
                        RuleId(id),
                        link,
                    );
                    live.push((atom, source, priority, id));
                }
            }
            assert_eq!(
                arena.total_entries(),
                hash.total_entries(),
                "seed {seed} step {step}"
            );
        }
        for &atom in &alive {
            for source in 0..sources {
                let a = arena
                    .get(AtomId(atom), NodeId(source))
                    .and_then(|r| r.highest());
                let b = hash.get(atom, NodeId(source)).and_then(Store::highest);
                assert_eq!(a, b, "seed {seed}: owner[α{atom}][n{source}] differs");
            }
        }
    }
}

/// Equal-priority differential test: with priorities drawn from a tiny
/// range (collisions on nearly every step), the small-vec store, the BTree
/// store, and the sorted-vector model must still agree on `highest()` — the
/// `(priority, rule-id)` tie-break the engine's insert-time `wins` predicate
/// relies on for label/owner consistency.
#[test]
fn equal_priority_ties_agree_across_stores_and_model() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0x71E ^ seed);
        let mut small = SourceRules::default();
        let mut btree = ModelCell::default();
        let mut model: Vec<(u32, u64)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..150 {
            if model.is_empty() || rng.gen_bool(0.6) {
                let priority = rng.gen_range(1..4); // heavy collisions
                let id = next_id;
                next_id += 1;
                let link = LinkId((id % 3) as u32);
                small.insert(priority, RuleId(id), link);
                Store::insert(&mut btree, priority, RuleId(id), link);
                model.push((priority, id));
            } else {
                let (p, id) = model.swap_remove(rng.gen_range(0..model.len()));
                assert!(small.remove(p, RuleId(id)), "seed {seed} step {step}");
                assert!(
                    Store::remove(&mut btree, p, RuleId(id)),
                    "seed {seed} step {step}"
                );
            }
            let expected = model.iter().max().copied();
            let got_small = small.highest().map(|r| (r.priority, r.id.0));
            let got_btree = Store::highest(&btree).map(|r| (r.priority, r.id.0));
            assert_eq!(got_small, expected, "seed {seed} step {step}: small-vec");
            assert_eq!(got_btree, expected, "seed {seed} step {step}: btree");
        }
    }
}

/// Differential test of the two *owner* layouts: identical randomized traces
/// of `clone_atom` (atom splits), per-atom inserts and removals through the
/// arena [`Owner`] and the tree-of-trees [`OwnerModel`] must yield the
/// same ownership outcome (`highest()`) for every `(atom, source)` cell.
#[test]
fn arena_owner_and_hash_owner_agree_on_split_traces() {
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0xA2E4A ^ seed);
        let mut arena = Owner::new();
        let mut hash = OwnerModel::default();
        let sources = 6u32;
        let mut atoms = 1u32; // atom ids 0..atoms are allocated
        let mut live: Vec<(u32, u32, u32, u64)> = Vec::new(); // (atom, source, priority, id)
        let mut next_id = 0u64;
        for step in 0..400 {
            match rng.gen_range(0..10) {
                // Atom split: clone an existing atom's cells to a fresh id,
                // duplicating every live (atom, ...) entry — exactly what
                // Algorithm 1 line 4 does.
                0 | 1 if atoms < 60 => {
                    let old = rng.gen_range(0..atoms);
                    let new = atoms;
                    atoms += 1;
                    arena.clone_atom(AtomId(old), AtomId(new));
                    hash.clone_atom(old, new);
                    let copied: Vec<_> = live
                        .iter()
                        .filter(|&&(a, ..)| a == old)
                        .map(|&(_, s, p, id)| (new, s, p, id))
                        .collect();
                    live.extend(copied);
                }
                2 | 3 if !live.is_empty() => {
                    let (atom, source, priority, id) =
                        live.swap_remove(rng.gen_range(0..live.len()));
                    let a = arena
                        .get_mut(AtomId(atom), NodeId(source))
                        .remove(priority, RuleId(id));
                    let b = Store::remove(hash.get_mut(atom, NodeId(source)), priority, RuleId(id));
                    assert_eq!(a, b, "seed {seed} step {step}");
                    assert!(a, "seed {seed} step {step}: live entry missing");
                }
                _ => {
                    let atom = rng.gen_range(0..atoms);
                    let source = rng.gen_range(0..sources);
                    let priority = rng.gen_range(1..100);
                    let id = next_id;
                    next_id += 1;
                    let link = LinkId(id as u32 % 9);
                    arena
                        .get_mut(AtomId(atom), NodeId(source))
                        .insert(priority, RuleId(id), link);
                    Store::insert(
                        hash.get_mut(atom, NodeId(source)),
                        priority,
                        RuleId(id),
                        link,
                    );
                    live.push((atom, source, priority, id));
                }
            }
            assert_eq!(
                arena.total_entries(),
                hash.total_entries(),
                "seed {seed} step {step}"
            );
        }
        // Final sweep: every (atom, source) cell agrees between the layouts.
        for atom in 0..atoms {
            for source in 0..sources {
                let a = arena
                    .get(AtomId(atom), NodeId(source))
                    .and_then(|r| r.highest());
                let b = hash.get(atom, NodeId(source)).and_then(Store::highest);
                assert_eq!(a, b, "seed {seed}: owner[α{atom}][n{source}] differs");
                let a_all: Vec<_> = arena
                    .get(AtomId(atom), NodeId(source))
                    .map(|r| r.iter().collect())
                    .unwrap_or_default();
                let b_all = hash
                    .get(atom, NodeId(source))
                    .map(Store::iter)
                    .unwrap_or_default();
                assert_eq!(
                    a_all, b_all,
                    "seed {seed}: owner[α{atom}][n{source}] differs"
                );
            }
        }
    }
}

//! Randomized property tests for the core invariants, each run over
//! [`CASES`] seeded cases.
//!
//! Small field widths (6–8 bits) keep the address space exhaustively
//! checkable, so every property is validated against brute force rather than
//! against another clever data structure.

mod support;

use delta_net::prelude::*;
use deltanet::atoms::AtomMap;
use deltanet::PersistNet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use support::{config, run, Oracle, Shape, Stream, END};
use support::{conflict_free, engines, forwarding, label_intervals, random_vec, ring, spec_rules};

/// Cases per property.
const CASES: u64 = 256;

/// A half-closed interval inside an 8-bit space, at most 64 wide.
fn random_interval(rng: &mut StdRng) -> Interval {
    let lo: u32 = rng.gen_range(0..=255);
    let hi = (lo + rng.gen_range(1..=64)).min(256);
    Interval::new(u128::from(lo.min(hi - 1)), u128::from(hi))
}

/// A CIDR prefix over an 8-bit space.
fn random_prefix(rng: &mut StdRng) -> IpPrefix {
    IpPrefix::new(rng.gen_range(0..=255), rng.gen_range(0..=8), 8)
}

/// A plain 8-bit engine built from `ops` of the case seeded `seed`,
/// checked against the FIB at the end when `fib` is set.
fn engine8(seed: u64, topo: &Topology, ops: Vec<Op>, fib: bool) -> PersistNet {
    let shape = Shape::new(0, config(0, None, &[]));
    let oracles: &[_] = if fib { &[(Oracle::Fib, END)] } else { &[] };
    let case = format!("seed {seed:#x}");
    run(&case, topo, Stream::Ops(ops), &shape, oracles)
}

/// Atoms always partition the whole field space: consecutive, disjoint,
/// covering, regardless of which intervals were inserted.
#[test]
fn atoms_partition_field_space() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9a71 ^ case);
        let intervals = random_vec(&mut rng, 0..40, random_interval);
        let mut m = AtomMap::new(8);
        for iv in &intervals {
            let delta = m.create_atoms(*iv);
            assert!(delta.len() <= 2, "case {case}");
        }
        let mut pieces: Vec<Interval> = m.iter().map(|(_, iv)| iv).collect();
        pieces.sort();
        assert_eq!(pieces.first().unwrap().lo(), 0, "case {case}");
        assert_eq!(pieces.last().unwrap().hi(), 256, "case {case}");
        for w in pieces.windows(2) {
            assert_eq!(w[0].hi(), w[1].lo(), "case {case}");
        }
        // Atom count is bounded by 2 * intervals + 1 and matches the map.
        assert!(m.atom_count() <= 2 * intervals.len() + 1, "case {case}");
        assert_eq!(m.atom_count(), pieces.len(), "case {case}");
    }
}

/// ⟦interval⟧ is exact: the union of the atoms of an inserted interval
/// is the interval itself, and every atom is either fully inside or
/// fully outside it.
#[test]
fn interval_atom_representation_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1e7a ^ case);
        let intervals = random_vec(&mut rng, 1..30, random_interval);
        let mut m = AtomMap::new(8);
        for iv in &intervals {
            m.create_atoms(*iv);
        }
        for iv in &intervals {
            let atoms = m.atoms_of(*iv);
            let total: u128 = atoms.iter().map(|&a| m.atom_interval(a).len()).sum();
            assert_eq!(total, iv.len(), "case {case}");
            for &a in &atoms {
                assert!(iv.contains_interval(&m.atom_interval(a)), "case {case}");
            }
        }
        // Every value maps to the atom containing it.
        for x in 0u128..256 {
            let a = m.atom_of_value(x);
            assert!(m.atom_interval(a).contains(x), "case {case}");
        }
    }
}

/// The prefix → interval conversion agrees with bit-level matching.
#[test]
fn prefix_interval_matches_bitwise_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xb175 ^ case);
        let prefix = random_prefix(&mut rng);
        let value: u128 = rng.gen_range(0..=255);
        let by_interval = prefix.interval().contains(value);
        // Bit-level check: the top `len` bits agree.
        let shift = 8 - prefix.len();
        let by_bits = if prefix.len() == 0 {
            true
        } else {
            (value >> shift) == (prefix.value() >> shift)
        };
        assert_eq!(by_interval, by_bits, "case {case}: {prefix} vs {value}");
    }
}

/// Inserting rules in any order yields the same edge labels (the data
/// plane is fully determined by the rule set and priorities).
#[test]
fn label_state_is_insertion_order_independent() {
    let (topo, nodes) = ring(4);
    for case in 0..CASES {
        let seed = 0x0de7 ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        // Random, conflict-free rule set over the 8-bit space.
        let draws = (0..).map(|id| {
            let source = nodes[rng.gen_range(0..4)];
            let prefix = IpPrefix::new(rng.gen_range(0..256), rng.gen_range(0..=8), 8);
            let out = topo.out_links(source);
            let link = out[rng.gen_range(0..out.len())];
            Rule::forward(RuleId(id), prefix, rng.gen_range(1..=10_000), source, link)
        });
        let ops = conflict_free(draws, 20);
        let mut shuffled = ops.clone();
        shuffled.shuffle(&mut rng);
        let a = engine8(seed, &topo, ops, false);
        let b = engine8(seed, &topo, shuffled, false);
        // Compare per-link packet sets (atom ids differ, intervals must not).
        for link in topo.links().iter().map(|l| l.id) {
            let labels = |net| label_intervals(engines(net), link);
            assert_eq!(labels(&a), labels(&b), "case {case}");
        }
    }
}

/// Insert followed by remove is a no-op on the forwarding behaviour:
/// after removing everything that was added, every address at every
/// switch forwards exactly as before.
#[test]
fn insert_remove_roundtrip_restores_behaviour() {
    let (topo, nodes) = ring(4);
    for case in 0..CASES {
        let seed = 0x2e30 ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = |priorities: Range<u32>| {
            move |rng: &mut StdRng| {
                let prefix = random_prefix(rng);
                let priority = rng.gen_range(priorities.clone());
                (prefix, priority, rng.gen_range(0..4), rng.gen_range(0..2))
            }
        };
        let base = random_vec(&mut rng, 0..12, draw(1..100));
        let extra = random_vec(&mut rng, 1..8, draw(100..200));
        let specs = base.len() as u64;
        let mut ops = spec_rules(&topo, &nodes, base.into_iter().chain(extra), |_| true);
        let kept = ops.iter().filter(|op| op.rule_id().0 < specs).count();
        let before = forwarding(&engine8(seed, &topo, ops[..kept].to_vec(), false));
        let added: Vec<RuleId> = ops[kept..].iter().map(Op::rule_id).collect();
        ops.extend(added.into_iter().rev().map(Op::Remove));
        let after = forwarding(&engine8(seed, &topo, ops, false));
        assert_eq!(before, after, "case {case}");
    }
}

/// Delta-net's atoms agree with the reference FIB on the forwarding
/// behaviour of every address after the same rule sequence.
#[test]
fn both_checkers_respect_highest_priority_semantics() {
    let (topo, nodes) = ring(3);
    for case in 0..CASES {
        let seed = 0x4a1e ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        // Every rule takes its switch's first out-link.
        let specs = random_vec(&mut rng, 1..15, |rng| {
            let (prefix, priority) = (random_prefix(rng), rng.gen_range(1..1000));
            (prefix, priority, rng.gen_range(0..3), 0)
        });
        engine8(
            seed,
            &topo,
            spec_rules(&topo, &nodes, specs, |_| true),
            true,
        );
    }
}

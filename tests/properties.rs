//! Randomized property tests for the core invariants, each run over
//! [`CASES`] seeded cases.
//!
//! Small field widths (6–8 bits) keep the address space exhaustively
//! checkable, so every property is validated against brute force rather than
//! against another clever data structure.

use delta_net::prelude::*;
use deltanet::atoms::AtomMap;
use deltanet::loops::successor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;

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

/// A vector of `len` draws of `item`, its length drawn from `len`.
fn random_vec<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A bidirectional ring of `n` switches.
fn ring(n: usize) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let nodes = topo.add_nodes("s", n);
    for i in 0..n {
        topo.add_bidi_link(nodes[i], nodes[(i + 1) % n]);
    }
    (topo, nodes)
}

fn engine8(topo: &Topology) -> DeltaNet {
    DeltaNet::new(
        topo.clone(),
        DeltaNetConfig {
            field_width: 8,
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        },
    )
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
        let mut rng = StdRng::seed_from_u64(0x0de7 ^ case);
        // Random, conflict-free rule set over the 8-bit space.
        let mut rules: Vec<Rule> = Vec::new();
        let mut id = 0u64;
        while rules.len() < 20 {
            let source = nodes[rng.gen_range(0..4)];
            let prefix = IpPrefix::new(rng.gen_range(0..256), rng.gen_range(0..=8), 8);
            let out = topo.out_links(source);
            let link = out[rng.gen_range(0..out.len())];
            let priority = rng.gen_range(1..=10_000);
            let rule = Rule::forward(RuleId(id), prefix, priority, source, link);
            id += 1;
            if rules.iter().any(|r| r.conflicts_with(&rule)) {
                continue;
            }
            rules.push(rule);
        }
        let mut shuffled = rules.clone();
        shuffled.shuffle(&mut rng);

        let build = |ordered: &[Rule]| {
            let mut net = engine8(&topo);
            for r in ordered {
                net.insert_rule(*r);
            }
            net
        };
        let a = build(&rules);
        let b = build(&shuffled);
        // Compare per-link packet sets (atom ids differ, intervals must not).
        for link in topo.links() {
            let pa = netmodel::interval::normalize(
                a.label(link.id)
                    .iter()
                    .map(|x| a.atoms().atom_interval(x))
                    .collect(),
            );
            let pb = netmodel::interval::normalize(
                b.label(link.id)
                    .iter()
                    .map(|x| b.atoms().atom_interval(x))
                    .collect(),
            );
            assert_eq!(pa, pb, "case {case}");
        }
    }
}

/// Insert followed by remove is a no-op on the forwarding behaviour:
/// after removing everything that was added, every address at every
/// switch forwards exactly as before.
#[test]
fn insert_remove_roundtrip_restores_behaviour() {
    let (topo, nodes) = ring(4);
    // Per switch and address, the forwarding link.
    let behaviour = |net: &DeltaNet| -> Vec<Option<LinkId>> {
        let mut out = Vec::new();
        for node in net.topology().switch_nodes() {
            for addr in 0u128..256 {
                let atom = net.atoms().atom_of_value(addr);
                out.push(successor(net.topology(), net.labels(), node, atom));
            }
        }
        out
    };
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2e30 ^ case);
        let draw = |priorities: Range<u32>| {
            move |rng: &mut StdRng| {
                let prefix = random_prefix(rng);
                let priority = rng.gen_range(priorities.clone());
                (prefix, priority, rng.gen_range(0..4), rng.gen_range(0..2))
            }
        };
        let base = random_vec(&mut rng, 0..12, draw(1..100));
        let extra = random_vec(&mut rng, 1..8, draw(100..200));
        let mut net = engine8(&topo);
        let mut id = 0u64;
        let mut installed: Vec<Rule> = Vec::new();
        let mut install =
            |net: &mut DeltaNet,
             (prefix, priority, node_idx, link_idx): (IpPrefix, u32, usize, usize)|
             -> Option<Rule> {
                let source = nodes[node_idx];
                let out = topo.out_links(source);
                let link = out[link_idx % out.len()];
                let rule = Rule::forward(RuleId(id), prefix, priority, source, link);
                id += 1;
                if installed.iter().any(|r| r.conflicts_with(&rule)) {
                    return None;
                }
                net.insert_rule(rule);
                installed.push(rule);
                Some(rule)
            };
        for spec in base {
            install(&mut net, spec);
        }
        let before = behaviour(&net);
        let added: Vec<Rule> = extra
            .into_iter()
            .filter_map(|spec| install(&mut net, spec))
            .collect();
        for rule in added.iter().rev() {
            net.remove_rule(rule.id);
        }
        assert_eq!(before, behaviour(&net), "case {case}");
    }
}

/// Veriflow-RI's equivalence classes and Delta-net's atoms agree on the
/// *forwarding behaviour* of every address after the same rule sequence,
/// checked against the reference FIB.
#[test]
fn both_checkers_respect_highest_priority_semantics() {
    let (topo, nodes) = ring(3);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4a1e ^ case);
        let specs = random_vec(&mut rng, 1..15, |rng| {
            (
                random_prefix(rng),
                rng.gen_range(1..1000),
                rng.gen_range(0..3),
            )
        });
        let mut net = engine8(&topo);
        let mut fib = NetworkFib::new(topo.clone());
        let mut installed: Vec<Rule> = Vec::new();
        for (i, (prefix, priority, node_idx)) in specs.into_iter().enumerate() {
            let source = nodes[node_idx];
            let link = topo.out_links(source)[0];
            let rule = Rule::forward(RuleId(i as u64), prefix, priority, source, link);
            if installed.iter().any(|r| r.conflicts_with(&rule)) {
                continue;
            }
            net.insert_rule(rule);
            fib.insert(rule);
            installed.push(rule);
        }
        for node in topo.switch_nodes() {
            for addr in 0u128..256 {
                let expected = fib.table(node).lookup(addr).map(|r| r.link);
                let atom = net.atoms().atom_of_value(addr);
                let actual = successor(&topo, net.labels(), node, atom);
                assert_eq!(expected, actual, "case {case}: {node} at {addr}");
            }
        }
    }
}

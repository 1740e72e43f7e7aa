//! Additional randomized property tests, each run over [`CASES`] seeded
//! cases: the Veriflow-RI baseline against the brute-force oracle,
//! blackhole detection against exhaustive tracing, and the atom-set bitset
//! against a `BTreeSet` model.

use delta_net::prelude::*;
use deltanet::atomset::AtomSet;
use deltanet::AtomId;
use netmodel::fib::TraceOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 256;

/// A vector of draws of `item`, its length drawn from `len`.
fn random_vec<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// `len` rule specs `(prefix, priority, switch index, link index)` over an
/// 8-bit space, 4 switches and up to 2 out-links.
fn random_specs(rng: &mut StdRng, len: Range<usize>) -> Vec<(IpPrefix, u32, usize, usize)> {
    random_vec(rng, len, |rng| {
        let prefix = IpPrefix::new(rng.gen_range(0..=255), rng.gen_range(0..=8), 8);
        (
            prefix,
            rng.gen_range(1..1000),
            rng.gen_range(0..4),
            rng.gen_range(0..2),
        )
    })
}

/// Builds a 4-switch bidirectional ring over an 8-bit address space.
fn ring_topology() -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let nodes = topo.add_nodes("s", 4);
    for i in 0..4 {
        topo.add_bidi_link(nodes[i], nodes[(i + 1) % 4]);
    }
    (topo, nodes)
}

/// The atom-set bitset behaves exactly like a `BTreeSet<u32>` model for
/// insert/remove/union/intersection/difference/subset queries.
#[test]
fn atomset_matches_btreeset_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xa7e5 ^ case);
        let a = random_vec(&mut rng, 0..60, |rng| rng.gen_range(0u32..500));
        let b = random_vec(&mut rng, 0..60, |rng| rng.gen_range(0u32..500));
        let removals = random_vec(&mut rng, 0..20, |rng| rng.gen_range(0u32..500));
        let set_a: AtomSet = a.iter().map(|&x| AtomId(x)).collect();
        let set_b: AtomSet = b.iter().map(|&x| AtomId(x)).collect();
        let mut model_a: BTreeSet<u32> = a.iter().copied().collect();
        let model_b: BTreeSet<u32> = b.iter().copied().collect();

        assert_eq!(set_a.len(), model_a.len(), "case {case}");
        let union: Vec<u32> = set_a.union(&set_b).iter().map(|x| x.0).collect();
        let model_union: Vec<u32> = model_a.union(&model_b).copied().collect();
        assert_eq!(union, model_union, "case {case}");
        let inter: Vec<u32> = set_a.intersection(&set_b).iter().map(|x| x.0).collect();
        let model_inter: Vec<u32> = model_a.intersection(&model_b).copied().collect();
        assert_eq!(inter, model_inter, "case {case}");
        let diff: Vec<u32> = set_a.difference(&set_b).iter().map(|x| x.0).collect();
        let model_diff: Vec<u32> = model_a.difference(&model_b).copied().collect();
        assert_eq!(diff, model_diff, "case {case}");
        assert_eq!(
            set_a.intersects(&set_b),
            !model_inter_is_empty(&model_a, &model_b),
            "case {case}"
        );
        assert_eq!(set_a.is_subset_of(&set_b), model_a.is_subset(&model_b));

        // Removals keep the two in sync.
        let mut set_a = set_a;
        for r in removals {
            assert_eq!(set_a.remove(AtomId(r)), model_a.remove(&r), "case {case}");
        }
        let final_a: Vec<u32> = set_a.iter().map(|x| x.0).collect();
        let model_final: Vec<u32> = model_a.iter().copied().collect();
        assert_eq!(final_a, model_final, "case {case}");
    }
}

/// Veriflow-RI's per-update loop verdicts are sound: whenever it reports
/// a loop, exhaustively tracing every address through the reference FIB
/// finds one; whenever the FIB has a loop involving the updated prefix,
/// Veriflow-RI reports it on that update.
#[test]
fn veriflow_loop_reports_match_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5f10 ^ case);
        let specs = random_specs(&mut rng, 1..20);
        let (mut topo, nodes) = ring_topology();
        for &n in &nodes {
            topo.drop_link(n);
        }
        let mut vf = VeriflowRi::new(
            topo.clone(),
            VeriflowConfig {
                field_width: 8,
                check_loops_per_update: true,
            },
        );
        let mut fib = NetworkFib::new(topo.clone());
        let mut installed: Vec<Rule> = Vec::new();
        for (i, (prefix, priority, node_idx, link_idx)) in specs.into_iter().enumerate() {
            let source = nodes[node_idx];
            let out: Vec<LinkId> = topo
                .out_links(source)
                .iter()
                .copied()
                .filter(|&l| !topo.is_drop_link(l))
                .collect();
            let rule = Rule::forward(
                RuleId(i as u64),
                prefix,
                priority,
                source,
                out[link_idx % out.len()],
            );
            if installed.iter().any(|r| r.conflicts_with(&rule)) {
                continue;
            }
            let report = vf.insert_rule(rule);
            fib.insert(rule);
            installed.push(rule);

            // Oracle: does any address in the inserted prefix loop?
            let addrs: Vec<u128> = (prefix.interval().lo()..prefix.interval().hi()).collect();
            let oracle_loop = nodes.iter().any(|&start| {
                addrs.iter().any(|&a| {
                    matches!(
                        fib.trace(start, Packet::to(a)).outcome,
                        TraceOutcome::Loop(_)
                    )
                })
            });
            assert_eq!(
                report.has_loop(),
                oracle_loop,
                "case {case}: verdict mismatch after inserting {rule}"
            );
        }
    }
}

/// Blackhole detection agrees with exhaustive tracing: a switch is
/// reported iff some address arriving over an in-link dies there.
#[test]
fn blackhole_detection_matches_exhaustive_tracing() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xb1ac ^ case);
        let specs = random_specs(&mut rng, 1..15);
        let (topo, nodes) = ring_topology();
        let mut net = DeltaNet::new(
            topo.clone(),
            DeltaNetConfig {
                field_width: 8,
                check_loops_per_update: false,
                ..DeltaNetConfig::default()
            },
        );
        let mut fib = NetworkFib::new(topo.clone());
        let mut installed: Vec<Rule> = Vec::new();
        for (i, (prefix, priority, node_idx, link_idx)) in specs.into_iter().enumerate() {
            let source = nodes[node_idx];
            let out = topo.out_links(source).to_vec();
            let rule = Rule::forward(
                RuleId(i as u64),
                prefix,
                priority,
                source,
                out[link_idx % out.len()],
            );
            if installed.iter().any(|r| r.conflicts_with(&rule)) {
                continue;
            }
            net.insert_rule(rule);
            fib.insert(rule);
            installed.push(rule);
        }

        let reported: BTreeSet<NodeId> = net
            .check_all_blackholes()
            .into_iter()
            .filter_map(|v| match v {
                InvariantViolation::Blackhole { node, .. } => Some(node),
                _ => None,
            })
            .collect();

        // Oracle: for every switch, does some address forwarded *to* it by a
        // neighbour match no rule there?
        let mut expected: BTreeSet<NodeId> = BTreeSet::new();
        for &node in &nodes {
            'addrs: for addr in 0u128..256 {
                for &in_link in topo.in_links(node) {
                    let neighbour = topo.link(in_link).src;
                    let forwarded_here = fib
                        .table(neighbour)
                        .lookup(addr)
                        .map(|r| r.link == in_link)
                        .unwrap_or(false);
                    if forwarded_here && fib.table(node).lookup(addr).is_none() {
                        expected.insert(node);
                        continue 'addrs;
                    }
                }
            }
        }
        assert_eq!(reported, expected, "case {case}");
    }
}

fn model_inter_is_empty(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> bool {
    a.intersection(b).next().is_none()
}

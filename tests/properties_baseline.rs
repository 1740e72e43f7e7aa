//! Additional property-based tests: the Veriflow-RI baseline against the
//! brute-force oracle, blackhole detection against exhaustive tracing, and
//! the atom-set bitset against a `BTreeSet` model.

use delta_net::prelude::*;
use deltanet::atomset::AtomSet;
use deltanet::AtomId;
use netmodel::fib::TraceOutcome;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a CIDR prefix over an 8-bit space.
fn prefix_strategy() -> impl Strategy<Value = IpPrefix> {
    (0u32..=255, 0u8..=8).prop_map(|(value, len)| IpPrefix::new(u128::from(value), len, 8))
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

proptest! {
    /// The atom-set bitset behaves exactly like a `BTreeSet<u32>` model for
    /// insert/remove/union/intersection/difference/subset queries.
    #[test]
    fn atomset_matches_btreeset_model(
        a in prop::collection::vec(0u32..500, 0..60),
        b in prop::collection::vec(0u32..500, 0..60),
        removals in prop::collection::vec(0u32..500, 0..20),
    ) {
        let set_a: AtomSet = a.iter().map(|&x| AtomId(x)).collect();
        let set_b: AtomSet = b.iter().map(|&x| AtomId(x)).collect();
        let mut model_a: BTreeSet<u32> = a.iter().copied().collect();
        let model_b: BTreeSet<u32> = b.iter().copied().collect();

        prop_assert_eq!(set_a.len(), model_a.len());
        let union: Vec<u32> = set_a.union(&set_b).iter().map(|x| x.0).collect();
        let model_union: Vec<u32> = model_a.union(&model_b).copied().collect();
        prop_assert_eq!(union, model_union);
        let inter: Vec<u32> = set_a.intersection(&set_b).iter().map(|x| x.0).collect();
        let model_inter: Vec<u32> = model_a.intersection(&model_b).copied().collect();
        prop_assert_eq!(inter, model_inter);
        let diff: Vec<u32> = set_a.difference(&set_b).iter().map(|x| x.0).collect();
        let model_diff: Vec<u32> = model_a.difference(&model_b).copied().collect();
        prop_assert_eq!(diff, model_diff);
        prop_assert_eq!(set_a.intersects(&set_b), !model_inter_is_empty(&model_a, &model_b));
        prop_assert_eq!(
            set_a.is_subset_of(&set_b),
            model_a.is_subset(&model_b)
        );

        // Removals keep the two in sync.
        let mut set_a = set_a;
        for r in removals {
            prop_assert_eq!(set_a.remove(AtomId(r)), model_a.remove(&r));
        }
        let final_a: Vec<u32> = set_a.iter().map(|x| x.0).collect();
        let model_final: Vec<u32> = model_a.iter().copied().collect();
        prop_assert_eq!(final_a, model_final);
    }

    /// Veriflow-RI's per-update loop verdicts are sound: whenever it reports
    /// a loop, exhaustively tracing every address through the reference FIB
    /// finds one; whenever the FIB has a loop involving the updated prefix,
    /// Veriflow-RI reports it on that update.
    #[test]
    fn veriflow_loop_reports_match_oracle(
        specs in prop::collection::vec((prefix_strategy(), 1u32..1000, 0usize..4, 0usize..2), 1..20)
    ) {
        let (mut topo, nodes) = ring_topology();
        for &n in &nodes {
            topo.drop_link(n);
        }
        let mut vf = VeriflowRi::new(topo.clone(), VeriflowConfig {
            field_width: 8,
            check_loops_per_update: true,
        });
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
                    matches!(fib.trace(start, Packet::to(a)).outcome, TraceOutcome::Loop(_))
                })
            });
            prop_assert_eq!(
                report.has_loop(),
                oracle_loop,
                "verdict mismatch after inserting {}",
                rule
            );
        }
    }

    /// Blackhole detection agrees with exhaustive tracing: a switch is
    /// reported iff some address arriving over an in-link dies there.
    #[test]
    fn blackhole_detection_matches_exhaustive_tracing(
        specs in prop::collection::vec((prefix_strategy(), 1u32..1000, 0usize..4, 0usize..2), 1..15)
    ) {
        let (topo, nodes) = ring_topology();
        let mut net = DeltaNet::new(topo.clone(), DeltaNetConfig {
            field_width: 8,
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        });
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

        let reported: BTreeSet<NodeId> = net.check_all_blackholes()
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
        prop_assert_eq!(reported, expected);
    }
}

fn model_inter_is_empty(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> bool {
    a.intersection(b).next().is_none()
}

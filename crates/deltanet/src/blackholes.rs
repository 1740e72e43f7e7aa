//! Blackhole detection on the edge-labelled graph.
//!
//! A *blackhole* is a switch that receives packets it has no rule for: the
//! traffic dies silently instead of being forwarded or explicitly dropped.
//! The paper's evaluation checks forwarding loops, but its design goals
//! (§2.2) call for supporting the usual family of reachability invariants;
//! blackholes are the most common one after loops, and the edge-labelled
//! graph answers them directly: an atom arriving at a switch over some
//! in-link but not present on any of its out-links (including the drop link)
//! is blackholed there.
//!
//! Surfaced end-to-end through [`crate::DeltaNet::check_all_blackholes`]
//! (and its shard-wise counterpart on [`crate::shard::ShardedDeltaNet`]),
//! the incrementally maintained [`crate::monitor::ViolationMonitor`], and
//! the `deltanet replay --check blackholes` / `--monitor` / `audit` CLI
//! surfaces. A multi-field plane is answered by [`crate::multifield`]
//! instead: labels project away the secondary fields.
//!
//! ## Edge-case semantics (pinned by the regression tests below)
//!
//! The distinction that matters operationally is *silent* loss versus
//! *intended* loss:
//!
//! * **No rule at the switch** — an atom arrives over some in-link and no
//!   rule (of any kind) matches it there: a blackhole. The traffic vanishes
//!   without anyone having asked for it.
//! * **Explicit drop rule** — the atom's owner at the switch resolves to the
//!   switch's drop link. The drop link is an out-link like any other, so the
//!   atom counts as *handled* and is **not** a blackhole: dropping was a
//!   policy decision, and reporting it would bury real faults in noise.
//! * **[`Topology::is_drop_node`] sinks** — the synthetic node at the far
//!   end of every drop link. It is not a switch (`switch_nodes` excludes
//!   it), it is never evaluated for blackholes, and walks terminate there;
//!   atoms "arriving" at it are exactly the explicitly dropped ones.
//!
//! Packets originating *at* a switch (rather than arriving over a link) are
//! not considered, mirroring the usual formulation where traffic enters the
//! network at edge ports that are themselves modelled as links.

use crate::atoms::AtomMap;
use crate::atomset::AtomSet;
use crate::labels::Labels;
use netmodel::checker::InvariantViolation;
use netmodel::topology::{NodeId, Topology};

/// The atoms blackholed at `node`: arriving over some in-link but neither
/// forwarded nor explicitly dropped by any out-link (see the module docs for
/// the drop-rule / no-rule distinction).
pub(crate) fn blackholed_atoms_at(topology: &Topology, labels: &Labels, node: NodeId) -> AtomSet {
    // Atoms arriving at `node` over any in-link.
    let mut incoming = AtomSet::new();
    for &l in topology.in_links(node) {
        incoming.union_with(labels.get(l));
    }
    if incoming.is_empty() {
        return incoming;
    }
    // Atoms the switch handles: forwarded on some out-link or dropped.
    let mut handled = AtomSet::new();
    for &l in topology.out_links(node) {
        handled.union_with(labels.get(l));
    }
    incoming.difference_with(&handled);
    incoming
}

/// Whether the single atom `atom` is blackholed at `node` — the point form
/// of [`blackholed_atoms_at`] the monitor's window repair re-judges at each
/// switch around the updated ones.
pub(crate) fn is_blackholed_at(
    topology: &Topology,
    labels: &Labels,
    node: NodeId,
    atom: crate::atoms::AtomId,
) -> bool {
    // Out-links first: a switch that forwards the atom, the common case
    // on a routed plane, is decided by the first hit.
    !topology
        .out_links(node)
        .iter()
        .any(|&l| labels.contains(l, atom))
        && topology
            .in_links(node)
            .iter()
            .any(|&l| labels.contains(l, atom))
}

/// Renders per-node blackholed atom sets, given in node order, as
/// [`InvariantViolation`]s in their `Ord` order — shared by the full scan
/// and the monitor so their reports are bit-identical. Empty sets are
/// skipped.
pub(crate) fn render_blackholes<'a>(
    holes: impl IntoIterator<Item = (NodeId, &'a AtomSet)>,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let out: Vec<InvariantViolation> = holes
        .into_iter()
        .filter(|(_, set)| !set.is_empty())
        .map(|(node, set)| InvariantViolation::Blackhole {
            node,
            packets: atoms.packets_of(set),
        })
        .collect();
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "nodes out of order");
    out
}

/// Finds all blackholes in the current data plane: for every switch, the set
/// of atoms that can arrive there but match no rule.
pub fn find_blackholes(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let holes: Vec<(NodeId, AtomSet)> = topology
        .switch_nodes()
        .map(|node| (node, blackholed_atoms_at(topology, labels, node)))
        .collect();
    render_blackholes(holes.iter().map(|(n, s)| (*n, s)), atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DeltaNet, DeltaNetConfig};
    use netmodel::interval::Interval;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::Topology;

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn chain() -> (Topology, Vec<netmodel::topology::NodeId>) {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        topo.add_link(n[0], n[1]);
        topo.add_link(n[1], n[2]);
        (topo, n)
    }

    #[test]
    fn terminal_switch_without_rules_is_a_blackhole() {
        let (topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, n[1], l12));
        let holes = net.check_all_blackholes();
        assert_eq!(holes.len(), 1);
        match &holes[0] {
            InvariantViolation::Blackhole { node, packets } => {
                assert_eq!(*node, n[2]);
                assert_eq!(packets, &vec![prefix("10.0.0.0/8").interval()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_rule_is_not_a_blackhole() {
        let (mut topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let d1 = topo.drop_link(n[1]);
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/8"), 1, n[1], d1));
        assert!(net.check_all_blackholes().is_empty());
    }

    #[test]
    fn partial_coverage_blackholes_only_the_uncovered_part() {
        let (topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        // s0 forwards all of 10/8, but s1 only forwards the lower half.
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/9"), 1, n[1], l12));
        let holes = net.check_all_blackholes();
        // s1 blackholes the upper half; s2 blackholes the lower half.
        assert_eq!(holes.len(), 2);
        let at_s1 = holes
            .iter()
            .find_map(|h| match h {
                InvariantViolation::Blackhole { node, packets } if *node == n[1] => {
                    Some(packets.clone())
                }
                _ => None,
            })
            .expect("blackhole at s1");
        assert_eq!(at_s1, vec![prefix("10.128.0.0/9").interval()]);
    }

    #[test]
    fn fixing_the_gap_clears_the_blackhole() {
        let (mut topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let d2 = topo.drop_link(n[2]);
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/9"), 1, n[1], l12));
        assert_eq!(net.check_all_blackholes().len(), 2);
        // Cover the gap at s1 and terminate traffic at s2 explicitly.
        net.insert_rule(Rule::forward(
            RuleId(3),
            prefix("10.128.0.0/9"),
            1,
            n[1],
            l12,
        ));
        net.insert_rule(Rule::drop(RuleId(4), prefix("10.0.0.0/8"), 1, n[2], d2));
        assert!(net.check_all_blackholes().is_empty());
        // Removing the covering rule re-introduces exactly one blackhole.
        net.remove_rule(RuleId(3));
        assert_eq!(net.check_all_blackholes().len(), 1);
    }

    #[test]
    fn empty_network_has_no_blackholes() {
        let (topo, _) = chain();
        let net = DeltaNet::new(topo, DeltaNetConfig::default());
        assert!(net.check_all_blackholes().is_empty());
    }

    #[test]
    fn drop_rule_vs_no_rule_distinction_is_per_atom() {
        // The module-docs distinction, pinned: at the *same* switch, the
        // half of the traffic covered by an explicit drop rule is intended
        // loss (not reported), while the half matching no rule at all is a
        // blackhole — the boundary between them is exact.
        let (mut topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let d1 = topo.drop_link(n[1]);
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/9"), 1, n[1], d1));
        let holes = net.check_all_blackholes();
        assert_eq!(holes.len(), 1);
        match &holes[0] {
            InvariantViolation::Blackhole { node, packets } => {
                assert_eq!(*node, n[1]);
                // Only the undropped upper half is silently lost.
                assert_eq!(packets, &vec![prefix("10.128.0.0/9").interval()]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Covering the gap with a second drop rule silences the report —
        // everything that arrives is now explicitly handled.
        net.insert_rule(Rule::drop(
            RuleId(3),
            prefix("10.128.0.0/9"),
            1,
            n[1],
            topo_drop(&net, n[1]),
        ));
        assert!(net.check_all_blackholes().is_empty());
    }

    /// The (pre-created) drop link of `node` — read-only lookup for tests.
    fn topo_drop(net: &DeltaNet, node: netmodel::topology::NodeId) -> netmodel::topology::LinkId {
        net.topology()
            .out_links(node)
            .iter()
            .copied()
            .find(|&l| net.topology().is_drop_link(l))
            .expect("drop link pre-created")
    }

    #[test]
    fn drop_node_sinks_are_never_reported_as_blackholes() {
        // The virtual sink behind every drop link receives all explicitly
        // dropped traffic and, by design, has no rules of its own. It must
        // never be evaluated as a blackhole — only real switches are.
        let (mut topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let d1 = topo.drop_link(n[1]);
        let sink = topo.drop_node().unwrap();
        assert!(topo.is_drop_node(sink));
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/8"), 1, n[1], d1));
        // Traffic flows a -> b -> sink; nothing is a blackhole, and the
        // sink never appears in any report.
        let holes = net.check_all_blackholes();
        assert!(holes.is_empty());
        // Same verdict from the incrementally maintained monitor.
        let mut monitored = DeltaNet::new(
            net.topology().clone(),
            DeltaNetConfig {
                monitor_violations: true,
                ..DeltaNetConfig::default()
            },
        );
        monitored.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        monitored.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/8"), 1, n[1], d1));
        assert!(monitored.monitor().unwrap().is_clean());
    }

    #[test]
    fn node_with_no_rule_at_all_is_the_blackhole_case() {
        // The third leg of the distinction: a switch that receives traffic
        // and has *no* rule of any kind (the terminal s2 in the chain) is
        // exactly what the invariant exists to catch.
        let (topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let mut net = DeltaNet::new(
            topo,
            DeltaNetConfig {
                monitor_violations: true,
                ..DeltaNetConfig::default()
            },
        );
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, n[1], l12));
        let holes = net.check_all_blackholes();
        assert_eq!(holes.len(), 1);
        assert!(matches!(
            &holes[0],
            InvariantViolation::Blackhole { node, .. } if *node == n[2]
        ));
        // The monitor tracked it live, and full scan == live state.
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
    }

    #[test]
    fn violation_packets_are_normalized_intervals() {
        let (topo, n) = chain();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        // Two adjacent prefixes forwarded by s0, nothing at s1: the blackhole
        // report merges them into a single interval.
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/9"), 1, n[0], l01));
        net.insert_rule(Rule::forward(
            RuleId(2),
            prefix("10.128.0.0/9"),
            2,
            n[0],
            l01,
        ));
        let holes = net.check_all_blackholes();
        assert_eq!(holes.len(), 1);
        match &holes[0] {
            InvariantViolation::Blackhole { packets, .. } => {
                assert_eq!(packets, &vec![Interval::new(0x0a00_0000, 0x0b00_0000)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

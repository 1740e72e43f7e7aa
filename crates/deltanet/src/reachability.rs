//! Algorithm 3: all-pairs reachability of all atoms.
//!
//! §3.3 adapts the Floyd–Warshall algorithm to the edge-labelled graph by
//! replacing the usual (min, +) semiring with (∪, ∩) over sets of atoms:
//!
//! ```text
//! for k, i, j in V:
//!     label[i, j] ← label[i, j] ∪ (label[i, k] ∩ label[k, j])
//! ```
//!
//! After the triple loop, `label[i, j]` is the set of atoms — i.e. packets —
//! that can flow from node `i` to node `j` along *some* path, processing
//! whole packet equivalence classes per hop. The complexity is
//! `O(K · |V|³)`, which is intended for pre-deployment, Datalog-style
//! queries (design goal 3, §2.2) rather than the per-update hot path.
//!
//! A multi-field engine is refused ([`ReachabilityMatrix::compute`] returns
//! `None`): its labels are a primary-field projection, so the closure
//! would chain hops that no secondary class takes end to end.

use crate::atomset::AtomSet;
use crate::engine::DeltaNet;
use netmodel::interval::Interval;
use netmodel::topology::NodeId;

/// The all-pairs reachability matrix over atoms.
#[derive(Clone, Debug)]
pub struct ReachabilityMatrix {
    nodes: usize,
    /// Row-major `nodes × nodes` matrix of atom sets.
    cells: Vec<AtomSet>,
}

impl ReachabilityMatrix {
    /// Runs Algorithm 3 over a checker's current edge-labelled graph, or
    /// returns `None` for a multi-field engine (see the module docs).
    pub fn compute(net: &DeltaNet) -> Option<Self> {
        if net.is_multifield() {
            return None;
        }
        let (topology, labels) = (net.topology(), net.labels());
        let n = topology.node_count();
        let mut cells: Vec<AtomSet> = vec![AtomSet::new(); n * n];

        // Initialize with the one-hop labels.
        for (link_id, label) in labels.iter() {
            let link = topology.link(link_id);
            let idx = link.src.index() * n + link.dst.index();
            cells[idx].union_with(label);
        }

        // The triple nested loop of Algorithm 3.
        for k in 0..n {
            for i in 0..n {
                if i == k {
                    continue;
                }
                // Split the borrow: take label[i,k] out, combine, put back.
                let via = cells[i * n + k].clone();
                if via.is_empty() {
                    continue;
                }
                for j in 0..n {
                    if j == k || j == i {
                        continue;
                    }
                    let mut step = via.clone();
                    step.intersect_with(&cells[k * n + j]);
                    if !step.is_empty() {
                        cells[i * n + j].union_with(&step);
                    }
                }
            }
        }
        Some(ReachabilityMatrix { nodes: n, cells })
    }

    /// The atoms that can flow from `src` to `dst` (over one or more hops).
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> &AtomSet {
        &self.cells[src.index() * self.nodes + dst.index()]
    }

    /// Whether any packet at all can flow from `src` to `dst`.
    pub fn can_reach(&self, src: NodeId, dst: NodeId) -> bool {
        !self.reachable(src, dst).is_empty()
    }

    /// The packets that can flow from `src` to `dst`, as normalized
    /// destination-address intervals (resolved against the checker's atoms).
    pub fn reachable_packets(&self, net: &DeltaNet, src: NodeId, dst: NodeId) -> Vec<Interval> {
        net.atoms().packets_of(self.reachable(src, dst))
    }

    /// Number of nodes covered by the matrix.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Total number of `(src, dst)` pairs with at least one reachable atom.
    pub fn reachable_pair_count(&self) -> usize {
        self.cells.iter().filter(|s| !s.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeltaNetConfig;
    use netmodel::header::SecondaryMatch;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::Topology;

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// A 3-switch chain forwarding 10.0.0.0/8 from s0 to s2, and 10.1.0.0/16
    /// dropped at s1.
    fn chain() -> (DeltaNet, Vec<NodeId>) {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l12 = topo.add_link(n[1], n[2]);
        let d1 = topo.drop_link(n[1]);
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, n[1], l12));
        net.insert_rule(Rule::drop(RuleId(3), prefix("10.1.0.0/16"), 9, n[1], d1));
        (net, n)
    }

    #[test]
    fn one_hop_and_transitive_reachability() {
        let (net, n) = chain();
        let m = ReachabilityMatrix::compute(&net).unwrap();
        assert!(m.can_reach(n[0], n[1]));
        assert!(m.can_reach(n[1], n[2]));
        assert!(m.can_reach(n[0], n[2]), "transitive closure missing");
        assert!(!m.can_reach(n[2], n[0]));
        assert!(!m.can_reach(n[1], n[0]));
    }

    #[test]
    fn drop_rule_removes_packets_from_transitive_flow() {
        let (net, n) = chain();
        let m = ReachabilityMatrix::compute(&net).unwrap();
        // 10.1.0.0/16 is dropped at s1, so it reaches s1 but not s2.
        let to_s1 = m.reachable_packets(&net, n[0], n[1]);
        let to_s2 = m.reachable_packets(&net, n[0], n[2]);
        let dropped: Interval = prefix("10.1.0.0/16").interval();
        assert!(to_s1.iter().any(|iv| iv.contains_interval(&dropped)));
        assert!(to_s2.iter().all(|iv| !iv.overlaps(&dropped)));
        // The rest of 10.0.0.0/8 still reaches s2.
        let total: u128 = to_s2.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, (1 << 24) - (1 << 16));
    }

    #[test]
    fn reachability_matches_paper_example_shape() {
        let (net, n) = chain();
        let m = ReachabilityMatrix::compute(&net).unwrap();
        assert_eq!(m.node_count(), net.topology().node_count());
        // Pairs with flow: 0->1, 1->2, 0->2, 1->drop, 0->drop.
        assert_eq!(m.reachable_pair_count(), 5);
        let drop = net.topology().drop_node().unwrap();
        assert!(m.can_reach(n[0], drop));
        assert!(m.can_reach(n[1], drop));
        assert!(!m.can_reach(n[2], drop));
    }

    #[test]
    fn empty_network_has_empty_matrix() {
        let mut topo = Topology::new();
        topo.add_nodes("s", 4);
        let net = DeltaNet::with_topology(topo);
        let m = ReachabilityMatrix::compute(&net).unwrap();
        assert_eq!(m.reachable_pair_count(), 0);
    }

    #[test]
    fn cycle_reachability_is_symmetric_on_the_ring() {
        // A 3-node ring forwarding everything clockwise: every node reaches
        // every other node (including itself transitively, which Algorithm 3
        // does not record because i == j cells are skipped by convention).
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l12 = topo.add_link(n[1], n[2]);
        let l20 = topo.add_link(n[2], n[0]);
        let mut net = DeltaNet::new(
            topo,
            DeltaNetConfig {
                check_loops_per_update: false,
                ..Default::default()
            },
        );
        net.insert_rule(Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(2), prefix("0.0.0.0/0"), 1, n[1], l12));
        net.insert_rule(Rule::forward(RuleId(3), prefix("0.0.0.0/0"), 1, n[2], l20));
        let m = ReachabilityMatrix::compute(&net).unwrap();
        for &i in &n {
            for &j in &n {
                if i != j {
                    assert!(m.can_reach(i, j), "{i} should reach {j}");
                }
            }
        }
    }

    /// Diamond: s0 -> s1 -> s3 for 10.0.0.0/9, s0 -> s2 -> s3 for the other
    /// half 10.128.0.0/9, plus a drop rule at s1 for a /16 slice.
    fn diamond() -> (DeltaNet, Vec<NodeId>) {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 4);
        let l01 = topo.add_link(n[0], n[1]);
        let l02 = topo.add_link(n[0], n[2]);
        let l13 = topo.add_link(n[1], n[3]);
        let l23 = topo.add_link(n[2], n[3]);
        let d1 = topo.drop_link(n[1]);
        let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/9"), 1, n[0], l01));
        net.insert_rule(Rule::forward(
            RuleId(2),
            prefix("10.128.0.0/9"),
            1,
            n[0],
            l02,
        ));
        net.insert_rule(Rule::forward(RuleId(3), prefix("10.0.0.0/8"), 1, n[1], l13));
        net.insert_rule(Rule::forward(RuleId(4), prefix("10.0.0.0/8"), 1, n[2], l23));
        net.insert_rule(Rule::drop(RuleId(5), prefix("10.5.0.0/16"), 9, n[1], d1));
        (net, n)
    }

    #[test]
    fn diamond_labels_carry_each_branch_prefix() {
        // The constant-time flow API of §3.3: a link's label, rendered.
        let (net, n) = diamond();
        let on = |a: NodeId, b: NodeId| {
            let link = net.topology().link_between(a, b).unwrap();
            net.atoms().packets_of(net.label(link))
        };
        assert_eq!(on(n[0], n[1]), vec![prefix("10.0.0.0/9").interval()]);
        assert_eq!(on(n[0], n[2]), vec![prefix("10.128.0.0/9").interval()]);
    }

    #[test]
    fn diamond_carries_both_branches_but_the_dropped_slice() {
        let (net, n) = diamond();
        let m = ReachabilityMatrix::compute(&net).unwrap();
        // Everything in 10.0.0.0/8 except the dropped /16 reaches s3, half
        // of it through each branch.
        let to_s3 = m.reachable_packets(&net, n[0], n[3]);
        let total: u128 = to_s3.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, (1u128 << 24) - (1u128 << 16));
        assert!(n[1..].iter().all(|&x| m.can_reach(n[0], x)));
        // s3 forwards nothing, so no packet flows back from it.
        assert!(n.iter().all(|&x| !m.can_reach(n[3], x)));
    }

    #[test]
    fn diamond_dropped_slice_does_not_reach_s3() {
        let (net, n) = diamond();
        let m = ReachabilityMatrix::compute(&net).unwrap();
        let dropped = prefix("10.5.0.0/16").interval();
        let to_s3 = m.reachable_packets(&net, n[0], n[3]);
        assert!(to_s3.iter().all(|iv| !iv.overlaps(&dropped)));
        let to_s1 = m.reachable_packets(&net, n[0], n[1]);
        assert!(to_s1.iter().any(|iv| iv.contains_interval(&dropped)));
    }

    #[test]
    fn a_multifield_engine_is_refused() {
        // s0 sends sources [0, 8) to s1, and s1 sends only sources [8, 16)
        // on to s2: no packet reaches s2 from s0. The labels are a
        // primary-field projection and chain s0 -> s1 -> s2 anyway.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l12 = topo.add_link(n[1], n[2]);
        let all = IpPrefix::new(0, 0, 8);
        let sources = |lo, hi| SecondaryMatch::new(&[Interval::new(lo, hi)]);
        let config = DeltaNetConfig {
            field_width: 8,
            ..DeltaNetConfig::default()
        };
        let mut net = DeltaNet::new(topo, config.with_secondary(&[8]));
        net.insert_rule(Rule::forward(RuleId(1), all, 1, n[0], l01).with_secondary(sources(0, 8)));
        net.insert_rule(Rule::forward(RuleId(2), all, 1, n[1], l12).with_secondary(sources(8, 16)));
        assert!(!net.label(l01).is_empty() && !net.label(l12).is_empty());
        assert!(ReachabilityMatrix::compute(&net).is_none());
    }
}

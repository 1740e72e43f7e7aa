//! Flow queries over the persistent edge-labelled graph.
//!
//! Design goal 1 of the paper (§2.2): "efficiently find all packets that can
//! reach a node B from A", without repeated SAT/SMT solver calls and
//! irrespective of which rule was most recently updated. Because Delta-net
//! maintains `label[link]` persistently, these queries read the existing
//! state; they never recompute equivalence classes.
//!
//! Per atom the forwarding relation is a functional graph (each switch has
//! at most one owning rule per atom), so single-pair queries walk successor
//! chains; the all-pairs variant lives in [`crate::reachability`].
//!
//! In a multi-field configuration, atoms — and therefore query answers —
//! are the *primary-field projection*: the returned intervals cover every
//! packet whose primary field can flow, assuming its secondary fields
//! satisfy the owning rules along the path. Cross-field refinement (which
//! secondary value classes actually traverse a path) is the job of
//! [`crate::multifield`], which intersects secondary matches at check time.

use crate::atoms::AtomId;
use crate::atomset::AtomSet;
use crate::engine::DeltaNet;
use crate::loops::successor;
use netmodel::interval::{normalize, Interval};
use netmodel::topology::{LinkId, NodeId};

/// The answer to a single-pair flow query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowAnswer {
    /// The atoms that can flow from the query's source to its destination.
    pub atoms: Vec<AtomId>,
    /// The same packets as normalized destination-address intervals.
    pub packets: Vec<Interval>,
    /// For each reachable atom, the links of its path from source to
    /// destination (in hop order).
    pub paths: Vec<(AtomId, Vec<LinkId>)>,
}

impl FlowAnswer {
    /// Whether no packet can flow from the source to the destination.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// Query interface over a [`DeltaNet`] checker.
pub struct FlowQuery<'a> {
    net: &'a DeltaNet,
}

impl<'a> FlowQuery<'a> {
    /// Creates a query handle borrowing the checker's state.
    pub fn new(net: &'a DeltaNet) -> Self {
        FlowQuery { net }
    }

    /// The atoms leaving `node` on any link (the packets `node` forwards).
    pub fn atoms_leaving(&self, node: NodeId) -> AtomSet {
        let mut out = AtomSet::new();
        for &link in self.net.topology().out_links(node) {
            out.union_with(self.net.label(link));
        }
        out
    }

    /// All packets that can reach `dst` when injected at `src`, together
    /// with the per-atom paths (design goal 1 of §2.2).
    pub fn packets_from_to(&self, src: NodeId, dst: NodeId) -> FlowAnswer {
        let mut answer = FlowAnswer::default();
        let candidates = self.atoms_leaving(src);
        let topo = self.net.topology();
        let labels = self.net.labels();
        for atom in candidates.iter() {
            let mut cur = src;
            let mut path: Vec<LinkId> = Vec::new();
            let mut reached = false;
            for _ in 0..=topo.node_count() {
                if cur == dst && !path.is_empty() {
                    reached = true;
                    break;
                }
                match successor(topo, labels, cur, atom) {
                    Some(link) => {
                        path.push(link);
                        cur = topo.link(link).dst;
                        if topo.is_drop_node(cur) {
                            break;
                        }
                    }
                    None => break,
                }
            }
            if cur == dst && !path.is_empty() {
                reached = true;
            }
            if reached {
                answer.atoms.push(atom);
                answer.paths.push((atom, path));
            }
        }
        answer.packets = normalize(
            answer
                .atoms
                .iter()
                .map(|&a| self.net.atoms().atom_interval(a))
                .collect(),
        );
        answer
    }

    /// The switches reachable from `src` by at least one packet.
    pub fn reachable_nodes(&self, src: NodeId) -> Vec<NodeId> {
        let topo = self.net.topology();
        let labels = self.net.labels();
        let mut reachable = vec![false; topo.node_count()];
        for atom in self.atoms_leaving(src).iter() {
            let mut cur = src;
            for _ in 0..=topo.node_count() {
                match successor(topo, labels, cur, atom) {
                    Some(link) => {
                        let next = topo.link(link).dst;
                        // A node already reached for another atom is walked
                        // through anyway (this atom's path may diverge
                        // later); only a drop ends the walk.
                        if topo.is_drop_node(next) {
                            break;
                        }
                        reachable[next.index()] = true;
                        if next == src {
                            break; // looped back
                        }
                        cur = next;
                    }
                    None => break,
                }
            }
        }
        (0..topo.node_count() as u32)
            .map(NodeId)
            .filter(|n| reachable[n.index()] && !topo.is_drop_node(*n))
            .collect()
    }

    /// The packets (as intervals) currently forwarded along `link` — the
    /// constant-time edge-centric API of §3.3.
    pub fn packets_on_link(&self, link: LinkId) -> Vec<Interval> {
        normalize(
            self.net
                .label(link)
                .iter()
                .map(|a| self.net.atoms().atom_interval(a))
                .collect(),
        )
    }

    /// Whether traffic from `src` to `dst` always traverses `waypoint`
    /// (a simple waypointing / service-chaining invariant built from the
    /// per-atom paths).
    pub fn always_traverses(&self, src: NodeId, dst: NodeId, waypoint: NodeId) -> bool {
        let answer = self.packets_from_to(src, dst);
        if answer.is_empty() {
            return true; // vacuously
        }
        let topo = self.net.topology();
        answer.paths.iter().all(|(_, path)| {
            path.iter()
                .any(|&l| topo.link(l).src == waypoint || topo.link(l).dst == waypoint)
        })
    }

    /// Whether no packet injected at `src` can ever reach `dst`
    /// (a traffic-isolation invariant).
    pub fn isolated(&self, src: NodeId, dst: NodeId) -> bool {
        self.packets_from_to(src, dst).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeltaNetConfig;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::Topology;

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
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
    fn packets_from_to_covers_both_branches() {
        let (net, n) = diamond();
        let q = FlowQuery::new(&net);
        let answer = q.packets_from_to(n[0], n[3]);
        assert!(!answer.is_empty());
        // Everything in 10.0.0.0/8 except the dropped /16 reaches s3.
        let total: u128 = answer.packets.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, (1u128 << 24) - (1u128 << 16));
        // Paths have two hops each.
        for (_, path) in &answer.paths {
            assert_eq!(path.len(), 2);
        }
    }

    #[test]
    fn dropped_slice_does_not_reach() {
        let (net, n) = diamond();
        let q = FlowQuery::new(&net);
        let answer = q.packets_from_to(n[0], n[3]);
        let dropped = prefix("10.5.0.0/16").interval();
        assert!(answer.packets.iter().all(|iv| !iv.overlaps(&dropped)));
    }

    #[test]
    fn reachable_nodes_from_source() {
        let (net, n) = diamond();
        let q = FlowQuery::new(&net);
        let mut reach = q.reachable_nodes(n[0]);
        reach.sort();
        assert_eq!(reach, vec![n[1], n[2], n[3]]);
        // s3 forwards nothing, so nothing is reachable from it.
        assert!(q.reachable_nodes(n[3]).is_empty());
    }

    #[test]
    fn isolation_and_waypointing() {
        let (net, n) = diamond();
        let q = FlowQuery::new(&net);
        assert!(!q.isolated(n[0], n[3]));
        assert!(q.isolated(n[3], n[0]));
        // Traffic from s1 to s3 goes direct, so it trivially traverses s1
        // (the source endpoint of each path's first link).
        assert!(q.always_traverses(n[1], n[3], n[1]));
        // Not all traffic from s0 to s3 goes through s1 (half goes via s2).
        assert!(!q.always_traverses(n[0], n[3], n[1]));
        // Vacuous truth when no flow exists.
        assert!(q.always_traverses(n[3], n[0], n[2]));
    }

    #[test]
    fn packets_on_link_matches_labels() {
        let (net, n) = diamond();
        let q = FlowQuery::new(&net);
        let l01 = net.topology().link_between(n[0], n[1]).unwrap();
        let on_l01 = q.packets_on_link(l01);
        assert_eq!(on_l01, vec![prefix("10.0.0.0/9").interval()]);
        let l02 = net.topology().link_between(n[0], n[2]).unwrap();
        assert_eq!(
            q.packets_on_link(l02),
            vec![prefix("10.128.0.0/9").interval()]
        );
    }

    #[test]
    fn atoms_leaving_union_of_out_links() {
        let (net, n) = diamond();
        let q = FlowQuery::new(&net);
        let leaving = q.atoms_leaving(n[0]);
        let expected: u128 = normalize(
            leaving
                .iter()
                .map(|a| net.atoms().atom_interval(a))
                .collect(),
        )
        .iter()
        .map(|iv| iv.len())
        .sum();
        assert_eq!(expected, 1u128 << 24); // all of 10.0.0.0/8
    }
}

//! Forwarding rules.
//!
//! A rule matches packets by a prefix over the primary header field (the
//! destination address, §3.1), optionally intersected with per-field
//! interval constraints on the secondary fields of a multi-field
//! [`crate::header::HeaderSpace`]. It carries a priority that resolves
//! overlaps within a forwarding table (§3.2) and is associated with a
//! directed link `link(r)` along which matched packets are forwarded. Drop
//! rules point at the topology's per-node drop link, so the verification
//! engines need no special casing for them.
//!
//! A rule built by [`Rule::forward`] / [`Rule::drop`] constrains no
//! secondary field and behaves exactly as in the single-field engine;
//! [`Rule::with_secondary`] layers the extra constraints on.

use crate::header::SecondaryMatch;
use crate::interval::{Bound, Interval};
use crate::ip::IpPrefix;
use crate::packet::Packet;
use crate::topology::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Globally unique rule identifier.
///
/// Identifiers are assigned by the workload generators / controller
/// simulators and are stable across insertion and removal, which is what
/// lets a removal operation in a trace refer back to the rule it removes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RuleId(pub u64);

impl RuleId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Rule priority. Higher numeric value wins, as in OpenFlow.
///
/// The paper assumes that overlapping rules in the same table have pair-wise
/// distinct priorities; the reference [`crate::fib::ForwardingTable`] checks
/// this assumption and the workload generators guarantee it.
pub type Priority = u32;

/// What a rule does with a matched packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Forward along the rule's link towards the link's destination node.
    Forward,
    /// Drop the packet (the rule's link points at the virtual drop sink).
    Drop,
}

/// An IP-prefix forwarding rule installed on a switch.
///
/// `source(r)` in the paper is the source node of `link`, available through
/// the topology; it is also cached here (`source`) so that the hot insertion
/// and removal paths never need to consult the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rule {
    /// Stable identifier of the rule.
    pub id: RuleId,
    /// The destination IP prefix this rule matches.
    pub prefix: IpPrefix,
    /// The rule's priority within its forwarding table (higher wins).
    pub priority: Priority,
    /// The switch on which the rule is installed (`source(r)`).
    pub source: NodeId,
    /// The directed link along which matched packets are forwarded
    /// (`link(r)`); for [`Action::Drop`] rules this is the node's drop link.
    pub link: LinkId,
    /// The rule's action, kept for reporting purposes.
    pub action: Action,
    /// Per-field constraints on the secondary header fields; the default
    /// (no constraints) is the single-field shape.
    pub sec: SecondaryMatch,
}

impl Rule {
    /// Convenience constructor for a forwarding rule.
    pub fn forward(
        id: RuleId,
        prefix: IpPrefix,
        priority: Priority,
        source: NodeId,
        link: LinkId,
    ) -> Self {
        Rule {
            id,
            prefix,
            priority,
            source,
            link,
            action: Action::Forward,
            sec: SecondaryMatch::default(),
        }
    }

    /// Convenience constructor for a drop rule. `drop_link` must be the
    /// source node's drop link (see [`crate::topology::Topology::drop_link`]).
    pub fn drop(
        id: RuleId,
        prefix: IpPrefix,
        priority: Priority,
        source: NodeId,
        drop_link: LinkId,
    ) -> Self {
        Rule {
            id,
            prefix,
            priority,
            source,
            link: drop_link,
            action: Action::Drop,
            sec: SecondaryMatch::default(),
        }
    }

    /// The same rule with the given secondary-field constraints.
    pub fn with_secondary(mut self, sec: SecondaryMatch) -> Self {
        self.sec = sec;
        self
    }

    /// The half-closed interval of destination addresses matched by the rule
    /// (`interval(r)` in the paper, §3.1).
    #[inline]
    pub fn interval(&self) -> Interval {
        self.prefix.interval()
    }

    /// The inclusive lower bound of the rule's interval (`lower(r)`).
    #[inline]
    pub fn lower(&self) -> u128 {
        self.interval().lo()
    }

    /// The exclusive upper bound of the rule's interval (`upper(r)`).
    #[inline]
    pub fn upper(&self) -> u128 {
        self.interval().hi()
    }

    /// Whether this rule constrains any secondary header field.
    #[inline]
    pub fn is_multifield(&self) -> bool {
        !self.sec.is_empty()
    }

    /// Whether this rule matches a concrete header: the primary value must
    /// lie in the prefix and every constrained secondary field's value in
    /// its interval.
    #[inline]
    pub fn matches_values(&self, primary: Bound, secondary: &[Bound]) -> bool {
        self.interval().contains(primary) && self.sec.matches(secondary)
    }

    /// Whether this rule matches the given packet.
    #[inline]
    pub fn matches_packet(&self, packet: &Packet) -> bool {
        self.matches_values(packet.dst, &packet.sec)
    }

    /// Whether this rule and `other` live in the same forwarding table and
    /// their match conditions overlap **on every field** (in which case
    /// their priorities must differ for the data plane to be well defined).
    /// A secondary field unconstrained by either rule is a wildcard, so
    /// single-field rules conflict exactly as before.
    pub fn conflicts_with(&self, other: &Rule) -> bool {
        self.source == other.source
            && self.id != other.id
            && self.interval().overlaps(&other.interval())
            && self.sec.overlaps(&other.sec)
            && self.priority == other.priority
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @{}: {} prio={} via {} ({:?})",
            self.id, self.source, self.prefix, self.priority, self.link, self.action
        )?;
        if !self.sec.is_empty() {
            write!(f, " {}", self.sec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn two_node_topo() -> (Topology, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_link(a, b);
        (t, a, b, l)
    }

    #[test]
    fn forward_rule_fields() {
        let (_t, a, _b, l) = two_node_topo();
        let p: IpPrefix = "10.0.0.0/8".parse().unwrap();
        let r = Rule::forward(RuleId(1), p, 100, a, l);
        assert_eq!(r.action, Action::Forward);
        assert_eq!(r.source, a);
        assert_eq!(r.link, l);
        assert_eq!(r.interval(), p.interval());
        assert_eq!(r.lower(), p.interval().lo());
        assert_eq!(r.upper(), p.interval().hi());
    }

    #[test]
    fn drop_rule_uses_drop_link() {
        let (mut t, a, _b, _l) = two_node_topo();
        let dl = t.drop_link(a);
        let p: IpPrefix = "0.0.0.10/31".parse().unwrap();
        let r = Rule::drop(RuleId(2), p, 200, a, dl);
        assert_eq!(r.action, Action::Drop);
        assert!(t.is_drop_link(r.link));
    }

    #[test]
    fn conflict_detection() {
        let (_t, a, _b, l) = two_node_topo();
        let p1: IpPrefix = "10.0.0.0/8".parse().unwrap();
        let p2: IpPrefix = "10.1.0.0/16".parse().unwrap();
        let p3: IpPrefix = "192.168.0.0/16".parse().unwrap();
        let r1 = Rule::forward(RuleId(1), p1, 100, a, l);
        let r2_same_prio = Rule::forward(RuleId(2), p2, 100, a, l);
        let r2_diff_prio = Rule::forward(RuleId(2), p2, 200, a, l);
        let r3 = Rule::forward(RuleId(3), p3, 100, a, l);
        assert!(r1.conflicts_with(&r2_same_prio));
        assert!(!r1.conflicts_with(&r2_diff_prio));
        assert!(!r1.conflicts_with(&r3)); // disjoint prefixes never conflict
        assert!(!r1.conflicts_with(&r1)); // a rule does not conflict with itself
    }

    #[test]
    fn rule_id_display() {
        assert_eq!(RuleId(42).to_string(), "r42");
        assert_eq!(format!("{:?}", RuleId(42)), "r42");
    }

    #[test]
    fn secondary_constraints() {
        let (_t, a, _b, l) = two_node_topo();
        let p: IpPrefix = "10.0.0.0/8".parse().unwrap();
        let plain = Rule::forward(RuleId(1), p, 100, a, l);
        assert!(!plain.is_multifield());
        assert!(plain.matches_values(0x0a00_0001, &[999]));
        let r = plain.with_secondary(SecondaryMatch::new(&[Interval::new(100, 200)]));
        assert!(r.is_multifield());
        assert!(r.matches_values(0x0a00_0001, &[150]));
        assert!(!r.matches_values(0x0a00_0001, &[200]));
        assert!(!r.matches_values(0x0b00_0001, &[150]));
        assert!(r.matches_packet(&Packet::to(0x0a00_0001).with_field(0, 150)));
        assert!(!r.matches_packet(&Packet::to(0x0a00_0001)));
        assert_eq!(r.interval(), p.interval());
        assert!(r.to_string().contains("src=100:200"));
    }

    #[test]
    fn conflicts_respect_secondary_fields() {
        let (_t, a, _b, l) = two_node_topo();
        let p: IpPrefix = "10.0.0.0/8".parse().unwrap();
        let low = Rule::forward(RuleId(1), p, 100, a, l)
            .with_secondary(SecondaryMatch::new(&[Interval::new(0, 10)]));
        let high = Rule::forward(RuleId(2), p, 100, a, l)
            .with_secondary(SecondaryMatch::new(&[Interval::new(10, 20)]));
        // Same priority, overlapping prefixes, but disjoint src ranges:
        // no conflict.
        assert!(!low.conflicts_with(&high));
        let wild = Rule::forward(RuleId(3), p, 100, a, l);
        // A wildcard secondary overlaps both.
        assert!(low.conflicts_with(&wild));
        assert!(wild.conflicts_with(&high));
    }
}

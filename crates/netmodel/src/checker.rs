//! The common interface implemented by every data-plane checker.
//!
//! Both the Delta-net engine and the Veriflow-RI baseline implement
//! [`Checker`], which is what makes the paper-style head-to-head comparison
//! (Tables 3–5) and the differential property tests honest: the harness only
//! speaks this trait.
//!
//! A checker has two write methods: [`Checker::try_apply`] for one
//! operation and [`Checker::apply_window`] for a window of them. The
//! applied-prefix contract of a failing window is stated once, on
//! `apply_window`; a checker that applies windows its own way (the sharded
//! engine) overrides it and keeps that contract.

use crate::interval::Interval;
use crate::rule::RuleId;
use crate::topology::{LinkId, NodeId};
use crate::trace::Op;
use std::fmt;

/// Why a single update could not be applied.
///
/// Checkers historically panicked on malformed updates; the fallible
/// `try_*` entry points return this error instead, so trace replay can
/// report *which* operation was bad (a withdrawn-twice BGP route, a trace
/// referencing an unknown rule id) without tearing the process down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// A removal referenced a rule id that is not installed.
    UnknownRule(RuleId),
    /// An insertion reused a rule id that is already installed.
    DuplicateRule(RuleId),
    /// An insertion referenced a link outside the checker's topology.
    UnknownLink {
        /// The offending rule.
        rule: RuleId,
        /// The link the rule referenced.
        link: LinkId,
    },
    /// An insertion whose match interval does not intersect a clipped
    /// (shard) engine's address range. Only produced by engines created
    /// with a clip; a sharded front-end routes rules so this never fires.
    OutsideShard {
        /// The offending rule.
        rule: RuleId,
        /// The address range the engine owns.
        range: Interval,
    },
    /// An insertion constraining more secondary header fields than the
    /// checker's declared [`crate::header::HeaderSpace`] — e.g. a
    /// `[dst, src]` rule replayed into a single-field engine. Rules
    /// constraining *fewer* fields are fine (missing fields are wildcards).
    FieldMismatch {
        /// The offending rule.
        rule: RuleId,
        /// Secondary fields the checker's header space declares.
        declared: usize,
        /// Secondary fields the rule constrains.
        constrained: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownRule(id) => write!(f, "removal of unknown rule {id:?}"),
            UpdateError::DuplicateRule(id) => write!(f, "rule {id:?} inserted twice"),
            UpdateError::UnknownLink { rule, link } => {
                write!(f, "rule {rule:?} references unknown link {link:?}")
            }
            UpdateError::OutsideShard { rule, range } => {
                write!(f, "rule {rule:?} does not intersect shard range {range}")
            }
            UpdateError::FieldMismatch {
                rule,
                declared,
                constrained,
            } => {
                write!(
                    f,
                    "rule {rule:?} constrains {constrained} secondary header field(s) \
                     but the engine's header space declares {declared}"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// A failed trace replay: which operation failed, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// 0-based index of the failing operation in the replayed slice.
    pub index: usize,
    /// The underlying update error.
    pub error: UpdateError,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace op {}: {}", self.index, self.error)
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A violation of a network-wide invariant found while checking an update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A forwarding loop: packets in `packets` injected anywhere on the
    /// cycle revisit `nodes` forever.
    ForwardingLoop {
        /// The nodes on the cycle, in traversal order (first node repeated
        /// implicitly).
        nodes: Vec<NodeId>,
        /// The set of destination addresses (as normalized intervals) that
        /// traverse the cycle.
        packets: Vec<Interval>,
    },
    /// A blackhole: packets in `packets` arriving at `node` match no rule.
    ///
    /// Only reported by checkers configured to look for blackholes; the
    /// paper's evaluation checks forwarding loops.
    Blackhole {
        /// The switch where the packets die.
        node: NodeId,
        /// The affected destination addresses as normalized intervals.
        packets: Vec<Interval>,
    },
}

impl InvariantViolation {
    /// Whether this violation is a forwarding loop.
    pub fn is_loop(&self) -> bool {
        matches!(self, InvariantViolation::ForwardingLoop { .. })
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::ForwardingLoop { nodes, packets } => {
                write!(f, "forwarding loop through ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, " for {} packet interval(s)", packets.len())
            }
            InvariantViolation::Blackhole { node, packets } => {
                write!(
                    f,
                    "blackhole at {node} for {} packet interval(s)",
                    packets.len()
                )
            }
        }
    }
}

/// What a checker reports after applying one operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// The rule the operation concerned.
    pub rule_id: Option<RuleId>,
    /// Whether the operation was an insertion.
    pub was_insert: bool,
    /// How many packet classes the checker considered affected by the
    /// operation: atoms whose ownership changed (Delta-net) or equivalence
    /// classes recomputed (Veriflow-RI). This is the quantity Appendix C
    /// reports.
    pub affected_classes: usize,
    /// Links whose label / forwarding behaviour changed due to the update
    /// (the delta-graph's edge set for Delta-net).
    pub changed_links: Vec<LinkId>,
    /// Invariant violations found by the per-update property check.
    pub violations: Vec<InvariantViolation>,
}

impl UpdateReport {
    /// Whether any forwarding loop was reported.
    pub fn has_loop(&self) -> bool {
        self.violations.iter().any(InvariantViolation::is_loop)
    }
}

/// What a checker reports for a "what if this link failed?" query (§4.3.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WhatIfReport {
    /// The hypothetically failed link.
    pub link: Option<LinkId>,
    /// Packet classes (atoms / ECs) that were using the failed link.
    pub affected_classes: usize,
    /// The destination addresses using the failed link, as normalized
    /// intervals.
    pub affected_packets: Vec<Interval>,
    /// Links elsewhere in the network that carry any of the affected packet
    /// classes (i.e. the parts of the network touched by the failure).
    pub affected_links: Vec<LinkId>,
    /// Invariant violations found in the affected portion of the data plane
    /// (only populated when the query is asked to also run property checks).
    pub violations: Vec<InvariantViolation>,
}

/// A real-time data-plane checker: consumes a stream of rule insertions and
/// removals, maintains whatever internal representation it likes, and
/// answers per-update and what-if queries.
pub trait Checker {
    /// A short human-readable name ("delta-net", "veriflow-ri").
    fn name(&self) -> &'static str;

    /// Applies one operation and checks the configured invariants on the
    /// affected part of the data plane. A malformed operation (unknown rule
    /// removal, duplicate insertion) is reported as an [`UpdateError`]
    /// without mutating the checker.
    fn try_apply(&mut self, op: &Op) -> Result<UpdateReport, UpdateError>;

    /// Applies a window of operations in order, stopping at the first
    /// malformed one. The operations before it stay applied and their
    /// reports come back, one per applied operation, beside the failure,
    /// whose index is the failing operation's position in `ops`; the
    /// failing operation and everything after it are not applied.
    fn apply_window(&mut self, ops: &[Op]) -> (Vec<UpdateReport>, Option<ReplayError>) {
        let mut reports = Vec::with_capacity(ops.len());
        for (index, op) in ops.iter().enumerate() {
            match self.try_apply(op) {
                Ok(report) => reports.push(report),
                Err(error) => return (reports, Some(ReplayError { index, error })),
            }
        }
        (reports, None)
    }

    /// Answers the link-failure "what if" query of §4.3.2: which packets and
    /// which parts of the network are affected if `link` fails? When
    /// `check_loops` is true, also checks the affected portion for
    /// forwarding loops (the `+Loops` column of Table 4).
    fn what_if_link_failure(&self, link: LinkId, check_loops: bool) -> WhatIfReport;

    /// Number of rules currently installed.
    fn rule_count(&self) -> usize;

    /// Number of packet classes currently maintained (atoms for Delta-net,
    /// trie-induced classes for Veriflow-RI; used by Table 3).
    fn class_count(&self) -> usize;

    /// Estimated heap memory in bytes used by the checker's internal state
    /// (Table 5 / Appendix D).
    fn memory_bytes(&self) -> usize;

    /// The invariant violations currently active in the data plane, when
    /// the checker maintains them as live state (incremental violation
    /// monitoring). `None` — the default — means the checker does not
    /// monitor and callers must fall back to full-plane scans. A `Some`
    /// answer must equal what full loop + blackhole scans of the current
    /// data plane would report.
    fn active_violations(&self) -> Option<Vec<InvariantViolation>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_and_kind() {
        let v = InvariantViolation::ForwardingLoop {
            nodes: vec![NodeId(0), NodeId(1)],
            packets: vec![Interval::new(0, 10)],
        };
        assert!(v.is_loop());
        let s = v.to_string();
        assert!(s.contains("forwarding loop"));
        assert!(s.contains("n0 -> n1"));

        let b = InvariantViolation::Blackhole {
            node: NodeId(3),
            packets: vec![],
        };
        assert!(!b.is_loop());
        assert!(b.to_string().contains("blackhole at n3"));
    }

    #[test]
    fn update_report_has_loop() {
        let mut rep = UpdateReport::default();
        assert!(!rep.has_loop());
        rep.violations.push(InvariantViolation::Blackhole {
            node: NodeId(0),
            packets: vec![],
        });
        assert!(!rep.has_loop());
        rep.violations.push(InvariantViolation::ForwardingLoop {
            nodes: vec![NodeId(0)],
            packets: vec![],
        });
        assert!(rep.has_loop());
    }
}

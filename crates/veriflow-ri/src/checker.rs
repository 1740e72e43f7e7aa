//! The Veriflow-RI checker: the baseline Delta-net is compared against.
//!
//! Veriflow-RI re-implements Veriflow's core idea for a single packet-header
//! field (§4.3.1): rules live in a one-dimensional binary trie; on every
//! insertion or removal the checker collects the overlapping rules, computes
//! the affected equivalence classes, builds one forwarding graph per class,
//! and traverses each graph to find forwarding loops. Nothing is maintained
//! across updates beyond the trie and the rule set — which is exactly why
//! link-failure "what if" queries are so much more expensive than for
//! Delta-net (§4.3.2).

use crate::ec::equivalence_classes;
use crate::forwarding_graph::ForwardingGraph;
use crate::trie::PrefixTrie;
use netmodel::checker::{Checker, InvariantViolation, UpdateError, UpdateReport, WhatIfReport};
use netmodel::interval::{normalize, Interval};
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::Op;
use std::collections::{BTreeSet, HashMap};

/// Configuration of a [`VeriflowRi`] instance.
#[derive(Clone, Copy, Debug)]
pub struct VeriflowConfig {
    /// Width in bits of the matched header field (32 for IPv4).
    pub field_width: u8,
    /// Whether to run forwarding-loop detection on every affected
    /// equivalence class of every update.
    pub check_loops_per_update: bool,
}

impl Default for VeriflowConfig {
    fn default() -> Self {
        VeriflowConfig {
            field_width: 32,
            check_loops_per_update: true,
        }
    }
}

/// The Veriflow-RI data-plane checker.
#[derive(Clone, Debug)]
pub struct VeriflowRi {
    topology: Topology,
    config: VeriflowConfig,
    trie: PrefixTrie,
    rules: HashMap<RuleId, Rule>,
    rules_by_link: HashMap<LinkId, Vec<RuleId>>,
    /// Largest number of equivalence classes affected by a single update —
    /// the statistic reported in Appendix C.
    max_affected_ecs: usize,
}

impl VeriflowRi {
    /// Creates a checker over the given topology.
    pub fn new(topology: Topology, config: VeriflowConfig) -> Self {
        VeriflowRi {
            topology,
            trie: PrefixTrie::new(config.field_width),
            config,
            rules: HashMap::new(),
            rules_by_link: HashMap::new(),
            max_affected_ecs: 0,
        }
    }

    /// Creates a checker with the default configuration.
    pub fn with_topology(topology: Topology) -> Self {
        VeriflowRi::new(topology, VeriflowConfig::default())
    }

    /// The topology this checker verifies.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The rule with the given id, if installed.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id)
    }

    /// The largest number of equivalence classes a single update has
    /// affected so far (Appendix C).
    pub fn max_affected_ecs(&self) -> usize {
        self.max_affected_ecs
    }

    /// Collects the full [`Rule`]s overlapping `prefix_interval`, via the trie.
    fn overlapping_rules(&self, rule: &Rule) -> Vec<Rule> {
        self.trie
            .overlapping(&rule.prefix)
            .into_iter()
            .filter_map(|id| self.rules.get(&id).copied())
            .collect()
    }

    /// The Veriflow update procedure shared by insert and remove: compute
    /// the affected equivalence classes of `target` from `candidates`,
    /// build one forwarding graph per class, and (optionally) check loops.
    fn process_update(
        &mut self,
        target: Interval,
        candidates: &[Rule],
        changed_link: LinkId,
    ) -> (usize, Vec<InvariantViolation>) {
        let rule_intervals: Vec<Interval> = candidates.iter().map(Rule::interval).collect();
        let ecs = equivalence_classes(target, &rule_intervals);
        let affected = ecs.len();
        self.max_affected_ecs = self.max_affected_ecs.max(affected);
        let mut violations = Vec::new();
        if self.config.check_loops_per_update {
            for ec in &ecs {
                let graph = ForwardingGraph::build(*ec, candidates);
                violations.extend(graph.find_loops(&self.topology));
            }
        }
        let _ = changed_link;
        (affected, violations)
    }

    /// Inserts a rule, recomputing the affected equivalence classes and their
    /// forwarding graphs.
    ///
    /// # Panics
    ///
    /// Panics if a rule with the same id is already installed. Use
    /// [`VeriflowRi::try_insert_rule`] to get an error instead.
    pub fn insert_rule(&mut self, rule: Rule) -> UpdateReport {
        self.try_insert_rule(rule).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VeriflowRi::insert_rule`]: a duplicate rule id, or
    /// a link outside the topology or not leaving the rule's source, is
    /// reported as an [`UpdateError`] without touching the checker state.
    pub fn try_insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, UpdateError> {
        if self.rules.contains_key(&rule.id) {
            return Err(UpdateError::DuplicateRule(rule.id));
        }
        match self.topology.links().get(rule.link.index()) {
            Some(link) if link.src == rule.source => {}
            _ => {
                return Err(UpdateError::UnknownLink {
                    rule: rule.id,
                    link: rule.link,
                })
            }
        }
        self.trie.insert(&rule.prefix, rule.id);
        self.rules.insert(rule.id, rule);
        self.rules_by_link
            .entry(rule.link)
            .or_default()
            .push(rule.id);

        let candidates = self.overlapping_rules(&rule);
        let (affected, violations) = self.process_update(rule.interval(), &candidates, rule.link);
        Ok(UpdateReport {
            rule_id: Some(rule.id),
            was_insert: true,
            affected_classes: affected,
            changed_links: vec![rule.link],
            violations,
        })
    }

    /// Removes a rule, recomputing the affected equivalence classes.
    ///
    /// # Panics
    ///
    /// Panics if no rule with that id is installed. Use
    /// [`VeriflowRi::try_remove_rule`] to get an error instead.
    pub fn remove_rule(&mut self, id: RuleId) -> UpdateReport {
        self.try_remove_rule(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VeriflowRi::remove_rule`]: an unknown rule id is
    /// reported as an [`UpdateError`] without touching the checker state.
    pub fn try_remove_rule(&mut self, id: RuleId) -> Result<UpdateReport, UpdateError> {
        let rule = match self.rules.remove(&id) {
            Some(rule) => rule,
            None => return Err(UpdateError::UnknownRule(id)),
        };
        let removed = self.trie.remove(&rule.prefix, id);
        debug_assert!(removed, "trie out of sync for {id:?}");
        if let Some(ids) = self.rules_by_link.get_mut(&rule.link) {
            ids.retain(|&r| r != id);
        }

        let candidates = self.overlapping_rules(&rule);
        let (affected, violations) = self.process_update(rule.interval(), &candidates, rule.link);
        Ok(UpdateReport {
            rule_id: Some(id),
            was_insert: false,
            affected_classes: affected,
            changed_links: vec![rule.link],
            violations,
        })
    }

    /// The "what if" link-failure query: Veriflow has to construct the
    /// forwarding graphs of every equivalence class affected by the failed
    /// link, which means one EC computation per rule on the link and one
    /// graph per resulting class (§4.3.2).
    pub fn link_failure_impact(&self, link: LinkId, check_loops: bool) -> WhatIfReport {
        let rule_ids = self.rules_by_link.get(&link).cloned().unwrap_or_default();
        let mut affected_classes = 0usize;
        let mut affected_packets: Vec<Interval> = Vec::new();
        let mut affected_links: BTreeSet<LinkId> = BTreeSet::new();
        let mut violations: Vec<InvariantViolation> = Vec::new();

        for id in rule_ids {
            let Some(rule) = self.rules.get(&id).copied() else {
                continue;
            };
            affected_packets.push(rule.interval());
            let candidates = self.overlapping_rules(&rule);
            let intervals: Vec<Interval> = candidates.iter().map(Rule::interval).collect();
            let ecs = equivalence_classes(rule.interval(), &intervals);
            for ec in ecs {
                let graph = ForwardingGraph::build(ec, &candidates);
                // Only classes actually forwarded along the failed link are
                // affected by its failure.
                if !graph.uses_link(link) {
                    continue;
                }
                affected_classes += 1;
                for l in graph.links() {
                    if l != link {
                        affected_links.insert(l);
                    }
                }
                if check_loops {
                    violations.extend(graph.find_loops(&self.topology));
                }
            }
        }
        violations.sort_unstable();
        violations.dedup();
        WhatIfReport {
            link: Some(link),
            affected_classes,
            affected_packets: normalize(affected_packets),
            affected_links: affected_links.into_iter().collect(),
            violations,
        }
    }

    /// Estimated heap memory used by the checker's internal state.
    pub fn memory_estimate(&self) -> usize {
        self.trie.memory_bytes()
            + self.rules.capacity()
                * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8)
            + self
                .rules_by_link
                .values()
                .map(|v| v.capacity() * std::mem::size_of::<RuleId>() + 32)
                .sum::<usize>()
    }
}

impl Checker for VeriflowRi {
    fn name(&self) -> &'static str {
        "veriflow-ri"
    }

    fn try_apply(&mut self, op: &Op) -> Result<UpdateReport, UpdateError> {
        match op {
            Op::Insert(rule) => self.try_insert_rule(*rule),
            Op::Remove(id) => self.try_remove_rule(*id),
        }
    }

    fn what_if_link_failure(&self, link: LinkId, check_loops: bool) -> WhatIfReport {
        self.link_failure_impact(link, check_loops)
    }

    fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn class_count(&self) -> usize {
        self.max_affected_ecs
    }

    fn memory_bytes(&self) -> usize {
        self.memory_estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::ip::IpPrefix;
    use netmodel::topology::NodeId;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn square() -> (Topology, Vec<NodeId>) {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 4);
        topo.add_link(n[0], n[1]);
        topo.add_link(n[1], n[2]);
        topo.add_link(n[2], n[3]);
        topo.add_link(n[3], n[0]);
        topo.add_link(n[0], n[3]);
        (topo, n)
    }

    #[test]
    fn insert_reports_equivalence_classes() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        let rep = vf.insert_rule(Rule::forward(RuleId(1), p("10.0.0.0/8"), 1, n[0], l01));
        assert!(rep.was_insert);
        assert_eq!(rep.affected_classes, 1);
        // Overlapping narrower rule on a different switch splits the range.
        let rep = vf.insert_rule(Rule::forward(RuleId(2), p("10.1.0.0/16"), 5, n[1], l12));
        assert_eq!(rep.affected_classes, 1); // classes of the /16 range itself
        let rep = vf.insert_rule(Rule::forward(RuleId(3), p("10.0.0.0/9"), 3, n[1], l12));
        // The /9 overlaps both the /8 (covering it) and the /16 (inside it):
        // its range splits into [lo16), [16's range), [rest of /9).
        assert_eq!(rep.affected_classes, 3);
        assert_eq!(vf.max_affected_ecs(), 3);
        assert_eq!(vf.rule_count(), 3);
    }

    #[test]
    fn loop_detection_matches_deltanet_semantics() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let l23 = topo.link_between(n[2], n[3]).unwrap();
        let l30 = topo.link_between(n[3], n[0]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        for (i, (node, link)) in [(n[0], l01), (n[1], l12), (n[2], l23)].iter().enumerate() {
            let rep = vf.insert_rule(Rule::forward(
                RuleId(i as u64),
                p("10.0.0.0/8"),
                1,
                *node,
                *link,
            ));
            assert!(!rep.has_loop());
        }
        // Closing the ring creates a loop.
        let rep = vf.insert_rule(Rule::forward(RuleId(9), p("10.0.0.0/8"), 1, n[3], l30));
        assert!(rep.has_loop());
        // Removing one of the ring rules clears it; the removal update
        // itself reports the loop is gone (no violations).
        let rep = vf.remove_rule(RuleId(1));
        assert!(!rep.has_loop());
    }

    #[test]
    fn higher_priority_rule_masks_lower_one() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l03 = topo.link_between(n[0], n[3]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        vf.insert_rule(Rule::forward(RuleId(1), p("10.0.0.0/8"), 1, n[0], l01));
        vf.insert_rule(Rule::forward(RuleId(2), p("10.0.0.0/8"), 9, n[0], l03));
        // The what-if on l01 finds no affected class: everything is owned by
        // the higher-priority rule towards l03.
        let rep = vf.link_failure_impact(l01, false);
        assert_eq!(rep.affected_classes, 0);
        let rep = vf.link_failure_impact(l03, false);
        assert_eq!(rep.affected_classes, 1);
        assert_eq!(rep.affected_packets, vec![p("10.0.0.0/8").interval()]);
    }

    #[test]
    fn whatif_reports_downstream_links() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let l12 = topo.link_between(n[1], n[2]).unwrap();
        let l23 = topo.link_between(n[2], n[3]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        vf.insert_rule(Rule::forward(RuleId(1), p("10.0.0.0/8"), 1, n[0], l01));
        vf.insert_rule(Rule::forward(RuleId(2), p("10.0.0.0/8"), 1, n[1], l12));
        vf.insert_rule(Rule::forward(RuleId(3), p("10.0.0.0/8"), 1, n[2], l23));
        let rep = vf.link_failure_impact(l01, true);
        assert_eq!(rep.affected_classes, 1);
        assert!(rep.affected_links.contains(&l12));
        assert!(rep.affected_links.contains(&l23));
        assert!(!rep.affected_links.contains(&l01));
        assert!(rep.violations.is_empty());
        // A link with no rules is unaffected.
        let l30 = vf.topology().link_between(n[3], n[0]).unwrap();
        let rep = vf.link_failure_impact(l30, true);
        assert_eq!(rep.affected_classes, 0);
        assert!(rep.affected_links.is_empty());
    }

    #[test]
    fn remove_keeps_trie_and_indexes_consistent() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        vf.insert_rule(Rule::forward(RuleId(1), p("10.0.0.0/8"), 1, n[0], l01));
        vf.insert_rule(Rule::forward(RuleId(2), p("10.0.0.0/16"), 2, n[0], l01));
        assert_eq!(vf.rule_count(), 2);
        vf.remove_rule(RuleId(1));
        assert_eq!(vf.rule_count(), 1);
        assert!(vf.rule(RuleId(1)).is_none());
        assert!(vf.rule(RuleId(2)).is_some());
        let rep = vf.link_failure_impact(l01, false);
        assert_eq!(rep.affected_packets, vec![p("10.0.0.0/16").interval()]);
        vf.remove_rule(RuleId(2));
        assert_eq!(vf.rule_count(), 0);
        assert!(vf.memory_bytes() > 0);
        assert_eq!(vf.name(), "veriflow-ri");
    }

    #[test]
    fn a_rule_off_its_links_source_is_refused_untouched() {
        // Rule r at a forwards on b's link b -> c, which both Delta-net
        // engines refuse as an unknown link.
        let mut topo = Topology::new();
        let [a, b, c] = [topo.add_node("a"), topo.add_node("b"), topo.add_node("c")];
        let (ab, bc) = (topo.add_link(a, b), topo.add_link(b, c));
        let mut vf = VeriflowRi::with_topology(topo);
        let stray = Rule::forward(RuleId(1), p("10.0.0.0/8"), 10, a, bc);
        assert_eq!(
            vf.try_insert_rule(stray),
            Err(UpdateError::UnknownLink {
                rule: RuleId(1),
                link: bc
            })
        );
        assert_eq!(vf.rule_count(), 0);
        assert!(vf.rule(RuleId(1)).is_none());
        assert_eq!(vf.max_affected_ecs(), 0);
        // Nothing of it is left behind: the id is free for a valid rule.
        let rep = vf.insert_rule(Rule::forward(RuleId(1), p("10.0.0.0/8"), 10, a, ab));
        assert_eq!(rep.affected_classes, 1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        let r = Rule::forward(RuleId(1), p("10.0.0.0/8"), 1, n[0], l01);
        vf.insert_rule(r);
        vf.insert_rule(r);
    }

    #[test]
    #[should_panic(expected = "unknown rule")]
    fn unknown_removal_panics() {
        let (topo, _) = square();
        let mut vf = VeriflowRi::with_topology(topo);
        vf.remove_rule(RuleId(5));
    }

    #[test]
    fn try_paths_report_errors_without_mutation() {
        let (topo, n) = square();
        let l01 = topo.link_between(n[0], n[1]).unwrap();
        let mut vf = VeriflowRi::with_topology(topo);
        let r = Rule::forward(RuleId(1), p("10.0.0.0/8"), 1, n[0], l01);
        vf.insert_rule(r);
        assert!(vf
            .try_insert_rule(r)
            .unwrap_err()
            .to_string()
            .contains("inserted twice"));
        // An out-of-topology link must error instead of poisoning the trie
        // and panicking later inside forwarding-graph construction.
        let mut bad = r;
        bad.id = RuleId(2);
        bad.link = netmodel::topology::LinkId(9_999);
        assert!(vf
            .try_insert_rule(bad)
            .unwrap_err()
            .to_string()
            .contains("unknown link"));
        assert!(vf
            .try_remove_rule(RuleId(77))
            .unwrap_err()
            .to_string()
            .contains("unknown rule"));
        assert_eq!(vf.rule_count(), 1);
        // The checker still works after the rejected updates.
        assert!(vf.try_remove_rule(RuleId(1)).is_ok());
        assert_eq!(vf.rule_count(), 0);
    }
}

//! Compaction equivalence tests: randomized churn traces replayed with atom
//! compaction off (the paper's split-only behaviour) and on (threshold-
//! triggered [`DeltaNet::compact`]) must be observationally identical — the
//! same normalized-interval labels on every link, the same flow-query
//! answers, and the same loop / blackhole verdicts — while the compacting
//! engine's atom-id table stays bounded by the live atoms plus the
//! threshold.

use deltanet::{DeltaNet, DeltaNetConfig};
use netmodel::checker::{Checker, InvariantViolation};
use netmodel::interval::{normalize, Interval};
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const THRESHOLD: usize = 3;

/// A strongly connected 5-switch topology with drop links, over an 8-bit
/// address space (small enough to churn hard in a few hundred ops) — the
/// shared `testutil` generator.
fn churn_topology(rng: &mut StdRng) -> Topology {
    testutil::random_topology(rng, 5, true)
}

fn random_rule(rng: &mut StdRng, topo: &mut Topology, id: u64) -> Rule {
    testutil::random_rule(rng, topo, id, 8, 40)
}

fn link_intervals(net: &DeltaNet, link: LinkId) -> Vec<Interval> {
    normalize(
        net.label(link)
            .iter()
            .map(|a| net.atoms().atom_interval(a))
            .collect(),
    )
}

/// The looped address space, independent of atom numbering and cycle
/// enumeration order.
fn looped_packets(net: &DeltaNet) -> Vec<Interval> {
    normalize(
        net.check_all_loops()
            .iter()
            .flat_map(|v| match v {
                InvariantViolation::ForwardingLoop { packets, .. } => packets.clone(),
                InvariantViolation::Blackhole { .. } => Vec::new(),
            })
            .collect(),
    )
}

/// The blackholed address space per node, independent of atom numbering.
fn blackholes_by_node(net: &DeltaNet) -> BTreeMap<NodeId, Vec<Interval>> {
    let mut out: BTreeMap<NodeId, Vec<Interval>> = BTreeMap::new();
    for v in net.check_all_blackholes() {
        if let InvariantViolation::Blackhole { node, packets } = v {
            out.entry(node).or_default().extend(packets);
        }
    }
    for packets in out.values_mut() {
        *packets = normalize(std::mem::take(packets));
    }
    out
}

fn assert_observationally_equal(plain: &DeltaNet, compacting: &DeltaNet, tag: &str) {
    for link in plain.topology().links().to_vec() {
        assert_eq!(
            link_intervals(plain, link.id),
            link_intervals(compacting, link.id),
            "{tag}: labels diverge on {:?}",
            link.id
        );
        // Flow queries (the §4.3.2 what-if path) agree as well.
        let a = plain.link_failure_impact(link.id, false);
        let b = compacting.link_failure_impact(link.id, false);
        assert_eq!(
            a.affected_packets, b.affected_packets,
            "{tag}: what-if packets diverge on {:?}",
            link.id
        );
        assert_eq!(
            a.affected_links, b.affected_links,
            "{tag}: what-if links diverge on {:?}",
            link.id
        );
    }
    assert_eq!(
        looped_packets(plain),
        looped_packets(compacting),
        "{tag}: loop verdicts diverge"
    );
    assert_eq!(
        blackholes_by_node(plain),
        blackholes_by_node(compacting),
        "{tag}: blackhole verdicts diverge"
    );
}

#[test]
fn compaction_on_and_off_agree_under_random_churn() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_4AC7 ^ seed);
        let mut topo = churn_topology(&mut rng);
        let base = DeltaNetConfig {
            field_width: 8,
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        };
        let mut plain = DeltaNet::new(topo.clone(), base);
        let mut compacting = DeltaNet::new(
            topo.clone(),
            DeltaNetConfig {
                compact_threshold: Some(THRESHOLD),
                ..base
            },
        );
        let mut live: Vec<RuleId> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..250 {
            // Removal-heavy phases every third block of 50 steps, so bounds
            // die in bulk and the threshold fires repeatedly.
            let remove_bias = if (step / 50) % 3 == 2 { 0.7 } else { 0.3 };
            // Note: `affected_classes` legitimately differs between the two
            // engines — the plain one counts atoms split by long-dead
            // bounds — but the *links* whose labels change must agree.
            if !live.is_empty() && rng.gen_bool(remove_bias) {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                let a = plain.remove_rule(id);
                let b = compacting.remove_rule(id);
                assert_eq!(a.changed_links, b.changed_links, "seed {seed} step {step}");
            } else {
                let rule = random_rule(&mut rng, &mut topo, next_id);
                next_id += 1;
                let a = plain.insert_rule(rule);
                let b = compacting.insert_rule(rule);
                assert_eq!(a.changed_links, b.changed_links, "seed {seed} step {step}");
                live.push(rule.id);
            }
            // The compacting engine's id table never strays far beyond the
            // live atoms: at most the threshold's worth of garbage, each
            // dead bound merging away one atom.
            assert!(
                compacting.allocated_atoms() <= compacting.atom_count() + THRESHOLD + 2,
                "seed {seed} step {step}: allocated {} vs atoms {}",
                compacting.allocated_atoms(),
                compacting.atom_count()
            );
            if step % 25 == 24 {
                assert_observationally_equal(
                    &plain,
                    &compacting,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
        assert_observationally_equal(&plain, &compacting, &format!("seed {seed} final"));
    }
}

#[test]
fn removing_every_rule_and_compacting_resets_the_engine() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xE4A5E ^ seed);
        let mut topo = churn_topology(&mut rng);
        let mut net = DeltaNet::new(
            topo.clone(),
            DeltaNetConfig {
                field_width: 8,
                check_loops_per_update: false,
                compact_threshold: Some(THRESHOLD),
                ..DeltaNetConfig::default()
            },
        );
        let mut ids = Vec::new();
        for id in 0..40u64 {
            let rule = random_rule(&mut rng, &mut topo, id);
            net.insert_rule(rule);
            ids.push(rule.id);
        }
        while !ids.is_empty() {
            let id = ids.swap_remove(rng.gen_range(0..ids.len()));
            net.remove_rule(id);
        }
        net.compact();
        assert_eq!(net.atom_count(), 1, "seed {seed}");
        assert_eq!(net.allocated_atoms(), 1, "seed {seed}");
        assert_eq!(net.reclaimable_bounds(), 0, "seed {seed}");
        assert_eq!(net.rule_count(), 0, "seed {seed}");
        for link in net.topology().links().to_vec() {
            assert!(net.label(link.id).is_empty(), "seed {seed}: {:?}", link.id);
        }
        // A fresh wave of rules behaves as if the engine were new.
        let rule = random_rule(&mut rng, &mut topo, 10_000);
        let report = net.insert_rule(rule);
        assert!(report.affected_classes <= net.atom_count());
    }
}

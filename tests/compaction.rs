//! Compaction equivalence tests: randomized churn traces replayed with atom
//! compaction off (the paper's split-only behaviour) and on (threshold-
//! triggered [`DeltaNet::compact`]) must be observationally identical — the
//! same normalized-interval labels on every link, the same flow-query
//! answers, and the same loop / blackhole verdicts — while the compacting
//! engine's atom-id table stays bounded by the live atoms plus the
//! threshold ([`Oracle::Single`] of the driver in `tests/support/`, whose
//! plain engine never compacts on its own).
//!
//! [`DeltaNet::compact`]: deltanet::DeltaNet::compact

mod support;

use deltanet::PersistNet;
use netmodel::checker::Checker;
use netmodel::rule::RuleId;
use netmodel::topology::Topology;
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{config, run, Oracle, Shape, Stream, END};
use testutil::{random_rule, random_topology};

const THRESHOLD: usize = 3;

/// Ops as data: `steps` draws, removal-heavy every third block of 50 so
/// bounds die in bulk and the threshold fires repeatedly. Inserts are not
/// checked for same-priority conflicts; both engines break ties alike.
fn churn_ops(rng: &mut StdRng, topo: &Topology, steps: usize) -> Vec<Op> {
    let (mut live, mut ops, mut next_id) = (Vec::new(), Vec::new(), 0);
    for step in 0..steps {
        let remove_bias = if (step / 50) % 3 == 2 { 0.7 } else { 0.3 };
        if !live.is_empty() && rng.gen_bool(remove_bias) {
            ops.push(Op::Remove(live.swap_remove(rng.gen_range(0..live.len()))));
        } else {
            let rule = random_rule(rng, topo, next_id, 8, 40);
            next_id += 1;
            live.push(rule.id);
            ops.push(Op::Insert(rule));
        }
    }
    ops
}

/// `affected_classes` legitimately differs between the two engines — the
/// plain one counts atoms split by long-dead bounds — but the *links* whose
/// labels change must agree.
#[test]
fn compaction_on_and_off_agree_under_random_churn() {
    for seed in (0..8u64).map(|i| 0xC0_4AC7 ^ i) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, 5, true);
        let ops = Stream::Ops(churn_ops(&mut rng, &topo, 250));
        let shape = Shape::new(0, config(0, Some(THRESHOLD), &[]));
        let case = format!("seed {seed:#x}");
        run(&case, &topo, ops, &shape, &[(Oracle::Single, 25)]);
    }
}

#[test]
fn removing_every_rule_and_compacting_resets_the_engine() {
    for seed in (0..6u64).map(|i| 0xE4A5E ^ i) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, 5, true);
        let rule = |id| Op::Insert(random_rule(&mut rng, &topo, id, 8, 40));
        let mut ops: Vec<Op> = (0..40).map(rule).collect();
        let mut ids: Vec<RuleId> = (0..40).map(RuleId).collect();
        while !ids.is_empty() {
            ops.push(Op::Remove(ids.swap_remove(rng.gen_range(0..ids.len()))));
        }
        let shape = Shape {
            compact_every: Some(END),
            ..Shape::new(0, config(0, Some(THRESHOLD), &[]))
        };
        let (case, ops) = (format!("seed {seed:#x}"), Stream::Ops(ops));
        let net = run(&case, &topo, ops, &shape, &[(Oracle::Single, END)]);
        let PersistNet::Single(mut net) = net else {
            unreachable!("a single-engine shape")
        };
        assert_eq!(net.atom_count(), 1, "seed {seed:#x}");
        assert_eq!(net.allocated_atoms(), 1, "seed {seed:#x}");
        assert_eq!(net.reclaimable_bounds(), 0, "seed {seed:#x}");
        assert_eq!(net.rule_count(), 0, "seed {seed:#x}");
        for link in topo.links().iter().map(|l| l.id) {
            assert!(net.label(link).is_empty(), "seed {seed:#x}: {link:?}");
        }
        // A fresh wave of rules behaves as if the engine were new.
        let report = net.insert_rule(random_rule(&mut rng, &topo, 10_000, 8, 40));
        assert!(report.affected_classes <= net.atom_count());
    }
}

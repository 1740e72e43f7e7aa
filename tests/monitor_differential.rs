//! Randomized differential-oracle suite for incremental violation
//! monitoring: after **every** operation or window of a random churn
//! trace — insertions, removals, batched windows, explicit and
//! threshold-triggered compaction, on one engine and at 1/2/4/7 shards —
//! the incrementally maintained [`ViolationMonitor`] state must equal the
//! full-scan oracle (`check_all_loops` + `check_all_blackholes` recomputed
//! from scratch), and its loop verdicts must agree with the independent
//! Veriflow-RI baseline on the shared workloads.
//!
//! Every run goes through the differential driver in `tests/support/`:
//! seeded (failures name the seed, op, shape and oracle) and shrink-friendly
//! (the batched test consumes a well-formed trace-as-data whose prefixes are
//! themselves well-formed traces).

mod support;

use delta_net::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::Oracle::{Monitor, Single, Veriflow};
use support::{config, run, Shape, Stream, END, LOOPS, MONITOR};
use testutil::{random_ops, random_topology, OpGen};

#[test]
fn monitor_equals_full_scan_oracle_after_every_op_including_compaction() {
    for i in 0..6u64 {
        let seed = 0x404170 ^ i;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, 5, true);
        // Odd cases run with aggressive threshold-triggered compaction, so
        // the equality is also pinned across automatic id renumbering; an
        // explicit pass after draw 125 renumbers every atom id the monitor
        // holds, and the active set must not flicker.
        let threshold = if i % 2 == 1 { Some(3) } else { None };
        let shape = Shape {
            compact_every: Some(126),
            ..Shape::new(0, config(LOOPS | MONITOR, threshold, &[]))
        };
        let stream = Stream::Churn(&mut rng, OpGen::new(8, 40, 0.35), 250);
        let case = format!("seed {seed:#x}");
        run(&case, &topo, stream, &shape, &[(Monitor, 1)]);
    }
}

/// One engine in windows of 16: the live state equals the full scans after
/// every window, and the window's events — recorded by its one repair, at
/// the close — are the diff of the scans around it, while every op's
/// report matches a plain engine's. Odd seeds compact at a threshold, so
/// passes also land inside windows (which repair what came before them
/// first).
#[test]
fn one_engine_window_events_are_the_diff_of_the_scans_around_it() {
    for i in 0..4u64 {
        let seed = 0x0E_0416 ^ i;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, 5, true);
        let threshold = if i % 2 == 1 { Some(3) } else { None };
        let shape = Shape {
            window: 16,
            compact_every: Some(END),
            ..Shape::new(0, config(LOOPS | MONITOR, threshold, &[]))
        };
        let stream = Stream::Churn(&mut rng, OpGen::new(8, 40, 0.35), 240);
        let oracles = [(Monitor, 1), (Single, 16)];
        run(&format!("seed {seed:#x}"), &topo, stream, &shape, &oracles);
    }
}

/// The shard-merged live state equals the shard-merged scans after every
/// window, the window's events (folded from its busy shards' repairs) are
/// the diff of the merged scans around it, and the sharded engine is
/// observationally the single engine; shard-wise compaction renumbers every
/// shard independently, and the merged active set must survive it
/// unchanged.
#[test]
fn sharded_monitor_equals_oracle_under_batched_churn() {
    for shards in [1, 2, 4, 7] {
        let seed = 0x5EED ^ (shards as u64) << 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, 5, true);
        let ops = Stream::Ops(random_ops(&mut rng, &topo, 160, OpGen::new(8, 40, 0.35)));
        let shape = Shape {
            window: 16,
            compact_every: Some(END),
            ..Shape::new(shards, config(LOOPS | MONITOR, None, &[]))
        };
        let oracles = [(Monitor, 1), (Single, 16)];
        run(&format!("seed {seed:#x}"), &topo, ops, &shape, &oracles);
    }
}

/// Any per-update loop alarm — from either independent checker — is
/// visible in the maintained live state at that moment, and the live state
/// never claims a loop the full-plane audit cannot confirm.
#[test]
fn monitor_agrees_with_veriflow_on_shared_workloads() {
    for seed in (0..4u64).map(|i| 0xF10E ^ i) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, 4, true);
        let stream = Stream::Churn(&mut rng, OpGen::new(8, 40, 0.3), 120);
        let shape = Shape::new(0, config(LOOPS | MONITOR, None, &[]));
        let oracles = [(Veriflow, END), (Monitor, 1)];
        run(&format!("seed {seed:#x}"), &topo, stream, &shape, &oracles);
    }
}

#[test]
fn checker_trait_surfaces_active_violations() {
    let mut rng = StdRng::seed_from_u64(0x7A17);
    let topo = random_topology(&mut rng, 4, true);
    let monitored = DeltaNet::new(topo.clone(), config(LOOPS | MONITOR, None, &[]));
    let unmonitored = DeltaNet::with_topology(topo.clone());
    let sharded = ShardedDeltaNet::new(topo.clone(), config(LOOPS | MONITOR, None, &[]), 3);
    let veriflow = VeriflowRi::new(topo.clone(), VeriflowConfig::default());
    // Through the trait: monitored engines answer, the rest decline.
    let checkers: Vec<(&dyn Checker, bool)> = vec![
        (&monitored, true),
        (&unmonitored, false),
        (&sharded, true),
        (&veriflow, false),
    ];
    for (checker, monitored) in checkers {
        assert_eq!(
            checker.active_violations().is_some(),
            monitored,
            "{} monitoring surface",
            checker.name()
        );
    }
    // And a monitored engine's answer through the trait matches the scans.
    let stream = Stream::Churn(&mut rng, OpGen::new(8, 40, 0.3), 40);
    let shape = Shape::new(0, config(LOOPS | MONITOR, None, &[]));
    run("seed 0x7a17", &topo, stream, &shape, &[(Monitor, END)]);
}

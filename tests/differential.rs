//! Differential tests: Delta-net vs Veriflow-RI vs the brute-force
//! reference FIB.
//!
//! The two checkers implement completely different algorithms (atoms and an
//! incrementally maintained edge-labelled graph vs a trie with per-update
//! equivalence classes and forwarding graphs), so agreement between them —
//! and with the obviously-correct `NetworkFib` oracle — on randomly
//! generated workloads is strong evidence that both are faithful to the data
//! plane semantics. Every churn runs on each of [`shapes`], replaying the
//! same seeded stream; the FIB oracles also run it in windows.

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{config, run, Oracle, Shape, Stream, END, LOOPS};
use testutil::{random_ops, random_topology, OpGen};

/// The plain single engine the suite began with, 2 shards, and threshold
/// compaction on one engine and on 7 shards (7 aligns with no prefix, so
/// wide rules straddle); unless `oracle` checks op by op (Veriflow), also
/// windows of 8 on one engine and on 2 shards, so both `apply_window`
/// implementations meet it.
fn shapes(oracle: Oracle) -> Vec<Shape> {
    let (plain, compacting) = (config(LOOPS, None, &[]), config(LOOPS, Some(3), &[]));
    let mut shapes = vec![
        Shape::new(0, plain),
        Shape::new(2, plain),
        Shape::new(0, compacting),
        Shape::new(7, compacting),
    ];
    if oracle != Oracle::Veriflow {
        let window = |shards| Shape {
            window: 8,
            ..Shape::new(shards, plain)
        };
        shapes.extend([window(0), window(2)]);
    }
    shapes
}

/// `trials` churns of `draws` draws each from the stream seeded `seed`, on
/// `n`-switch topologies with drop links, 8-bit rules and priorities up to
/// 1000, checked by `check`.
fn churn(seed: u64, trials: usize, n: usize, draws: usize, bias: f64, check: (Oracle, usize)) {
    for shape in shapes(check.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..trials {
            let topo = random_topology(&mut rng, n, true);
            let stream = Stream::Churn(&mut rng, OpGen::new(8, 1000, bias), draws);
            let case = format!("seed {seed:#x} trial {trial}");
            run(&case, &topo, stream, &shape, &[check]);
        }
    }
}

/// Every address, at every switch, is forwarded along the same link by the
/// reference FIB and by Delta-net's edge labels.
#[test]
fn deltanet_labels_match_reference_fib_under_random_churn() {
    churn(0xD1FF, 10, 5, 120, 0.35, (Oracle::Fib, 20));
}

/// The full-data-plane loop check vs exhaustive tracing of all 256
/// addresses from every switch, after every op.
#[test]
fn loop_reports_agree_with_exhaustive_packet_tracing() {
    churn(0x100F, 8, 4, 60, 0.3, (Oracle::FibLoops, 1));
}

#[test]
fn veriflow_and_deltanet_agree_on_per_update_loops() {
    churn(0xBEEF, 6, 4, 80, 0.3, (Oracle::Veriflow, END));
}

/// For every link, the packets Delta-net says are *using* the link are
/// covered by the classes Veriflow-RI finds using it, and the loops its
/// what-if reports are exactly the loops tracing the FIB finds among those
/// packets (the full scan's, cut): an insert-only stream on one engine and
/// on 2 and 7 shards, then churn with removals on every shape, threshold
/// compaction included.
#[test]
fn whatif_affected_packets_agree_between_checkers() {
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let topo = random_topology(&mut rng, 5, true);
    let ops = random_ops(&mut rng, &topo, 40, OpGen::new(8, 1000, 0.0));
    let shape = |shards| Shape::new(shards, config(0, None, &[]));
    for shards in [0, 2, 7] {
        let (stream, check) = (Stream::Ops(ops.clone()), (Oracle::WhatIf, END));
        run("seed 0xfa11", &topo, stream, &shape(shards), &[check]);
    }
    churn(0xFA11, 4, 5, 200, 0.3, (Oracle::WhatIf, 10));
}

//! Sharded-vs-single differential tests: identical randomized traces —
//! inserts, removals, compaction passes, and rules straddling shard
//! boundaries — replayed through a plain [`DeltaNet`] and a
//! [`ShardedDeltaNet`] at several shard counts (including a non-power-of-two
//! count, so boundaries fall at non-prefix positions and straddling is
//! common) must be observationally identical: the same per-update changed
//! links, the same loop and blackhole verdicts, the same labels and what-if
//! answers as normalized intervals, and atom counts that agree exactly once
//! the interior shard boundaries are accounted for ([`Single`] of the
//! driver in `tests/support/`).
//!
//! [`DeltaNet`]: deltanet::DeltaNet
//! [`ShardedDeltaNet`]: deltanet::ShardedDeltaNet

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use support::Oracle::{Monitor, Single};
use support::{config, run, Shape, Stream, END, LOOPS, MONITOR};
use testutil::{random_ops, random_topology, OpGen};

/// Shard counts exercised by every test; 7 is deliberately not a power of
/// two, so its boundaries align with no prefix and wide rules straddle.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Per-op applies (`try_apply`, one shard group at a time). Odd cases churn
/// with per-shard automatic compaction on, so the equivalence also covers
/// threshold-triggered passes; monitoring is on throughout, so the suite
/// also pins the shard-merged live violation state against the full scans.
/// An explicit pass after draw 120 and a final one on every engine: the
/// final one erases all dead bounds, so the atom-count sum is exact again
/// even after divergent threshold-triggered compaction timing.
#[test]
fn sharded_engine_matches_single_engine_under_random_churn() {
    for i in 0..4u64 {
        for shards in SHARD_COUNTS {
            let seed = 0x5AAD ^ (i << 8) ^ shards as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_topology(&mut rng, 5, true);
            let threshold = if i % 2 == 1 { Some(3) } else { None };
            let shape = Shape {
                compact_every: Some(121),
                ..Shape::new(shards, config(LOOPS | MONITOR, threshold, &[]))
            };
            let stream = Stream::Churn(&mut rng, OpGen::new(8, 40, 0.35), 200);
            let oracles = [(Single, 25), (Monitor, 25)];
            run(&format!("seed {seed:#x}"), &topo, stream, &shape, &oracles);
        }
    }
}

/// `apply_window` in windows of 16 against the plain engine's per-op
/// reports, with compaction off (atom counts exact at the end) and with
/// per-shard threshold compaction (exact after the final pass).
#[test]
fn batched_application_matches_single_engine() {
    for threshold in [None, Some(3)] {
        for shards in SHARD_COUNTS {
            let seed = 0xBA7C ^ shards as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_topology(&mut rng, 5, true);
            let ops = Stream::Ops(random_ops(&mut rng, &topo, 160, OpGen::new(8, 40, 0.35)));
            let shape = Shape {
                window: 16,
                compact_every: Some(END),
                ..Shape::new(shards, config(LOOPS | MONITOR, threshold, &[]))
            };
            let case = format!("seed {seed:#x}");
            run(&case, &topo, ops, &shape, &[(Single, END)]);
        }
    }
}

//! Persistence round-trip differential tests: randomized traces are
//! snapshotted every few operations (single engine and 1/2/4 shards); the
//! restored twin must match the live engine on atom counts, `live_bytes`,
//! the monitor's `active_violations()` bit-for-bit, full loop/blackhole
//! rescans and `state_digest` — and must stay identical when both keep
//! applying the same ops afterwards ([`Restore`] of the driver in
//! `tests/support/`). Runs through a `Session` (a journal beside the
//! engine) recover from nearest snapshot + log tail, time-travel queries
//! agree with a fresh replay, and corrupted or truncated artifacts fail with
//! clean errors, never panics.

mod support;

use std::fs;

use deltanet::persist::{self, read_log, PersistError};
use deltanet::{DeltaNetConfig, Session, Snapshot};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::Topology;
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::Oracle::Restore;
use support::{assert_state_eq, config, flat_journal, run, temp_dir, Shape, Stream, END, MONITOR};
use testutil::{random_ops, random_topology, OpGen};

/// `0` builds a plain single engine; `n > 0` builds `n` shards.
const ENGINE_KINDS: [usize; 4] = [0, 1, 2, 4];

/// A monitored engine snapshotted and restored every `k` draws and once
/// more before the last `tail`, each twin fed the stream from there, with
/// an occasional explicit pass so snapshots also cover post-compaction
/// (renumbered) states — a faithful restore must also replay identically
/// (atom free lists, owner spill states and monitor contents all influence
/// future behaviour).
fn roundtrip(seed: u64, sec: &[u8], draws: usize, (k, tail): (usize, usize)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_topology(&mut rng, 5, true);
    for kind in ENGINE_KINDS {
        let shape = Shape {
            compact_every: Some(37),
            restore: Some((k, tail)),
            ..Shape::new(kind, config(MONITOR, None, sec))
        };
        let gen = OpGen::new(8, 40, 0.35).with_secondary(sec);
        let (stream, oracles) = (Stream::Churn(&mut rng, gen, draws), [(Restore, k)]);
        run(&format!("seed {seed:#x}"), &topo, stream, &shape, &oracles);
    }
}

#[test]
fn snapshot_roundtrip_differential() {
    roundtrip(0x6e5d_1701, &[], 160, (25, 40));
}

/// The round trip over a dst × src header space: format v3 must carry the
/// secondary lattices, the per-rule secondary matches, and a monitor whose
/// restore verification runs the cross-field scan (the label-based scan
/// would reject correct multi-field states).
#[test]
fn multifield_snapshot_roundtrip_differential() {
    roundtrip(0x6e5d_1702, &[6], 120, (30, 30));
}

/// A mid-run snapshot (never ahead of the durable log) after op 40 of 80:
/// recovery replays the other 40 from the log — single-field, then over a
/// dst × src header space. Each run is journaled op by op and, on the same
/// ops, in windows of 8 (40 is a window boundary).
#[test]
fn logged_run_recovers_from_snapshot_plus_log_tail() {
    let mut rng = StdRng::seed_from_u64(0xdec0de);
    let topo = random_topology(&mut rng, 5, true);
    for sec in [&[][..], &[6]] {
        for kind in ENGINE_KINDS {
            let gen = OpGen::new(8, 40, 0.3).with_secondary(sec);
            let ops = random_ops(&mut rng, &topo, 80, gen);
            for window in [0, 8] {
                let shape = Shape {
                    window,
                    journal: Some(40),
                    ..Shape::new(kind, config(MONITOR, None, sec))
                };
                let stream = Stream::Ops(ops.clone());
                run("seed 0xdec0de", &topo, stream, &shape, &[(Restore, END)]);
            }
        }
    }
}

#[test]
fn violations_at_matches_fresh_replay() {
    let mut rng = StdRng::seed_from_u64(0x71e7);
    let topo = random_topology(&mut rng, 5, true);
    let log = random_ops(&mut rng, &topo, 60, OpGen::new(8, 40, 0.3));
    // Reference: a fresh monitored engine replaying the log head.
    let shape = Shape::new(0, config(MONITOR, None, &[]));
    let replay = |n: usize| {
        let ops = Stream::Ops(log[..n].to_vec());
        run("seed 0x71e7", &topo, ops, &shape, &[])
    };
    let snap_bytes = Snapshot::of_net(&replay(30), 30).to_bytes();
    for op_n in [0usize, 10, 30, 45, 60] {
        let want = replay(op_n).checker().active_violations().unwrap();
        // With the snapshot (used when it lies at or before `op_n`,
        // rebuilt from scratch otherwise) …
        let snap = Snapshot::from_bytes(&snap_bytes).unwrap();
        let got = persist::violations_at(&topo, Some(snap), &log, op_n, shape.config).unwrap();
        assert_eq!(got, want, "violations_at({op_n}) with snapshot");
        // … and without one.
        let got = persist::violations_at(&topo, None, &log, op_n, shape.config).unwrap();
        assert_eq!(got, want, "violations_at({op_n}) without snapshot");
    }
    // Asking past the end of the log is a clean error.
    let err = persist::violations_at(&topo, None, &log, log.len() + 1, shape.config);
    assert!(matches!(err, Err(PersistError::Mismatch(_))));
}

#[test]
fn corrupted_and_truncated_artifacts_fail_cleanly() {
    let dir = temp_dir("corrupt");
    let mut rng = StdRng::seed_from_u64(0xbadbad);
    let topo = random_topology(&mut rng, 5, true);
    let ops = Stream::Ops(random_ops(&mut rng, &topo, 20, OpGen::new(8, 40, 0.2)));
    let shape = Shape::new(2, config(MONITOR, None, &[]));
    let net = run("seed 0xbadbad", &topo, ops, &shape, &[]);
    let bytes = Snapshot::of_net(&net, 20).to_bytes();
    assert!(Snapshot::from_bytes(&bytes).is_ok());

    let corrupt = |b: &[u8]| matches!(Snapshot::from_bytes(b), Err(PersistError::Corrupt(_)));
    // Any single flipped byte fails the checksum.
    for i in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(corrupt(&bad), "flipped byte {i} must be detected");
    }
    // Truncation — mid-body and shorter than the trailer itself.
    for keep in [bytes.len() - 5, 7, 0] {
        assert!(
            corrupt(&bytes[..keep]),
            "truncation to {keep} bytes must be detected"
        );
    }
    // A structurally valid snapshot restored against the wrong topology is
    // a mismatch, not a crash.
    let other = random_topology(&mut rng, 7, true);
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert!(matches!(
        snap.restore(&other),
        Err(PersistError::Mismatch(_))
    ));

    // A log truncated mid-record surfaces as a clean corruption error.
    let log_path = dir.join("truncated.dnlog");
    let src = topo.links()[0].src;
    let link = topo.links()[0].id;
    let net = Shape::new(0, config(MONITOR, None, &[])).build(&topo);
    let mut session = Session::new(net, Some(flat_journal(&log_path)));
    let r1 = Rule::forward(RuleId(1), IpPrefix::new(16, 4, 8), 5, src, link);
    let r2 = Rule::forward(RuleId(2), IpPrefix::new(32, 4, 8), 5, src, link);
    let batch = [Op::Insert(r1), Op::Insert(r2)];
    assert_eq!(session.apply(&batch).1, None);
    session.close().unwrap();
    assert_eq!(read_log(&log_path).unwrap().len(), 2);
    let log_bytes = fs::read(&log_path).unwrap();
    fs::write(&log_path, &log_bytes[..log_bytes.len() - 3]).unwrap();
    assert!(matches!(read_log(&log_path), Err(PersistError::Corrupt(_))));
    // And so does a log with the wrong magic.
    fs::write(&log_path, b"NOPE....").unwrap();
    assert!(matches!(read_log(&log_path), Err(PersistError::Corrupt(_))));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn logged_batch_failure_logs_exactly_the_applied_prefix() {
    // The pinned mid-batch semantics must hold through the session's
    // journal too: a batch failing at op k returns the reports of ops[..k]
    // and leaves exactly ops[..k] in the log, so recovery reproduces the
    // engine's actual post-failure state.
    let dir = temp_dir("midbatch");
    let log_path = dir.join("batch.dnlog");
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let ab = topo.add_link(a, b);
    let shape = Shape::new(2, DeltaNetConfig::default());
    let mut session = Session::new(shape.build(&topo), Some(flat_journal(&log_path)));
    let rule = |id, prefix: &str, priority| {
        let prefix: IpPrefix = prefix.parse().unwrap();
        Op::Insert(Rule::forward(RuleId(id), prefix, priority, a, ab))
    };
    let ops = [
        rule(1, "0.0.0.0/2", 1),
        rule(2, "128.0.0.0/2", 2),
        Op::Remove(RuleId(99)),
        rule(3, "64.0.0.0/2", 3),
    ];
    let (reports, failure) = session.apply(&ops);
    assert_eq!(failure.unwrap().index, 2);
    let applied: Vec<_> = reports.iter().map(|r| (r.rule_id, r.was_insert)).collect();
    assert_eq!(
        applied,
        [(Some(RuleId(1)), true), (Some(RuleId(2)), true)],
        "the failed window returns the prefix's reports"
    );
    assert_eq!(session.journal().unwrap().ops_applied(), 2);
    session.close().unwrap();
    let replayable = read_log(&log_path).unwrap();
    assert_eq!(replayable, ops[..2]);
    // Replaying the log into a fresh engine reproduces the engine's state.
    let fresh = run("mid-batch", &topo, Stream::Ops(replayable), &shape, &[]);
    assert_state_eq(session.net(), &fresh, "post-failure log replay");
    fs::remove_dir_all(&dir).ok();
}

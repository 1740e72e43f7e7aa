//! Persistence round-trip differential tests: randomized traces are
//! snapshotted every few operations (single engine and 1/2/4 shards); the
//! restored engine must match the live one on atom counts, `live_bytes`,
//! the monitor's `active_violations()` bit-for-bit, and full loop/blackhole
//! rescans — and must stay observationally identical when both keep
//! applying the same ops afterwards. Runs through a [`Session`] (a journal
//! beside the engine) recover from nearest snapshot + log tail, time-travel queries
//! agree with a fresh replay, and corrupted or truncated artifacts fail
//! with clean errors, never panics.

use std::fs;
use std::path::{Path, PathBuf};

use deltanet::persist::{self, read_log, PersistError};
use deltanet::{
    DeltaNet, DeltaNetConfig, Durability, FsBackend, Journal, PersistNet, Session, ShardedDeltaNet,
    Snapshot,
};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::Topology;
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::SeedableRng;
use testutil::{blackholes_by_node, loops_by_cycle, random_topology, OpGen};

/// `0` builds a plain single engine; `n > 0` builds `n` shards.
const ENGINE_KINDS: [usize; 4] = [0, 1, 2, 4];

fn config8() -> DeltaNetConfig {
    DeltaNetConfig {
        field_width: 8,
        check_loops_per_update: false,
        compact_threshold: None,
        monitor_violations: true,
        ..DeltaNetConfig::default()
    }
}

fn build(topo: &Topology, shards: usize) -> PersistNet {
    if shards == 0 {
        PersistNet::Single(Box::new(DeltaNet::new(topo.clone(), config8())))
    } else {
        PersistNet::Sharded(Box::new(ShardedDeltaNet::new(
            topo.clone(),
            config8(),
            shards,
        )))
    }
}

/// A flat journal over a real log file at the default durability.
fn flat_journal(path: &Path) -> Journal {
    Journal::flat(Box::new(FsBackend), path, 0, Durability::default()).unwrap()
}

fn live_bytes(net: &PersistNet) -> usize {
    match net {
        PersistNet::Single(n) => n.live_bytes(),
        PersistNet::Sharded(n) => n.live_bytes(),
    }
}

fn compact(net: &mut PersistNet) {
    match net {
        PersistNet::Single(n) => {
            n.compact();
        }
        PersistNet::Sharded(n) => {
            n.compact();
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltanet-persist-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full restore contract: logical state, memory accounting, the live
/// monitor set, and from-scratch rescans all agree.
fn assert_state_eq(live: &PersistNet, restored: &PersistNet, ctx: &str) {
    let (checker, live_checker) = (restored.checker(), live.checker());
    assert_eq!(
        checker.rule_count(),
        live_checker.rule_count(),
        "{ctx}: rule_count"
    );
    assert_eq!(
        checker.class_count(),
        live_checker.class_count(),
        "{ctx}: atom count"
    );
    assert_eq!(live_bytes(restored), live_bytes(live), "{ctx}: live_bytes");
    assert_eq!(
        checker.active_violations(),
        live_checker.active_violations(),
        "{ctx}: monitor violation set"
    );
    let mut live_all = live.check_all_loops();
    live_all.extend(live.check_all_blackholes());
    let mut restored_all = restored.check_all_loops();
    restored_all.extend(restored.check_all_blackholes());
    assert_eq!(
        loops_by_cycle(&restored_all),
        loops_by_cycle(&live_all),
        "{ctx}: loop rescan"
    );
    assert_eq!(
        blackholes_by_node(&restored_all),
        blackholes_by_node(&live_all),
        "{ctx}: blackhole rescan"
    );
}

#[test]
fn snapshot_roundtrip_differential() {
    let mut rng = StdRng::seed_from_u64(0x6e5d_1701);
    let topo = random_topology(&mut rng, 5, true);
    for kind in ENGINE_KINDS {
        let ctx = |step: usize| format!("kind {kind}, step {step}");
        let mut net = build(&topo, kind);
        net.enable_monitor();
        let mut gen = OpGen::new(8, 40, 0.35);
        let mut ops_done = 0u64;
        for step in 0..120 {
            let Some(op) = gen.next_op(&mut rng, &topo) else {
                continue;
            };
            net.checker_mut().try_apply(&op).unwrap();
            ops_done += 1;
            // An occasional explicit pass so snapshots also cover
            // post-compaction (renumbered) states.
            if step % 37 == 36 {
                compact(&mut net);
            }
            if step % 25 == 24 {
                let bytes = Snapshot::of_net(&net, ops_done).to_bytes();
                let snap = Snapshot::from_bytes(&bytes).unwrap();
                assert_eq!(snap.ops_applied(), ops_done);
                let restored = snap.restore(&topo).unwrap();
                assert_state_eq(&net, &restored, &ctx(step));
            }
        }
        // Restore the final state and keep churning both engines with the
        // same ops: a faithful restore must also replay identically (atom
        // free lists, owner spill states and monitor contents all influence
        // future behaviour).
        let bytes = Snapshot::of_net(&net, ops_done).to_bytes();
        let mut restored = Snapshot::from_bytes(&bytes)
            .unwrap()
            .restore(&topo)
            .unwrap();
        assert_state_eq(&net, &restored, &format!("kind {kind}, final"));
        for _ in 0..40 {
            let Some(op) = gen.next_op(&mut rng, &topo) else {
                continue;
            };
            net.checker_mut().try_apply(&op).unwrap();
            restored.checker_mut().try_apply(&op).unwrap();
        }
        compact(&mut net);
        compact(&mut restored);
        assert_state_eq(&net, &restored, &format!("kind {kind}, post-restore churn"));
    }
}

/// The snapshot round-trip differential over a dst × src header space:
/// format v3 must carry the secondary lattices, the per-rule secondary
/// matches, and a monitor whose restore verification runs the cross-field
/// scan (the label-based scan would reject correct multi-field states).
#[test]
fn multifield_snapshot_roundtrip_differential() {
    const SEC: [u8; 1] = [6];
    let mut rng = StdRng::seed_from_u64(0x6e5d_1702);
    let topo = random_topology(&mut rng, 5, true);
    for kind in ENGINE_KINDS {
        let config = config8().with_secondary(&SEC);
        let mut net = if kind == 0 {
            PersistNet::Single(Box::new(DeltaNet::new(topo.clone(), config)))
        } else {
            PersistNet::Sharded(Box::new(ShardedDeltaNet::new(topo.clone(), config, kind)))
        };
        net.enable_monitor();
        let mut gen = OpGen::new(8, 40, 0.35).with_secondary(&SEC);
        let mut ops_done = 0u64;
        for step in 0..90 {
            let Some(op) = gen.next_op(&mut rng, &topo) else {
                continue;
            };
            net.checker_mut().try_apply(&op).unwrap();
            ops_done += 1;
            if step % 37 == 36 {
                compact(&mut net);
            }
            if step % 30 == 29 {
                let bytes = Snapshot::of_net(&net, ops_done).to_bytes();
                let snap = Snapshot::from_bytes(&bytes).unwrap();
                assert_eq!(snap.config().secondary_count(), SEC.len());
                let restored = snap.restore(&topo).unwrap();
                assert_state_eq(&net, &restored, &format!("mf kind {kind}, step {step}"));
            }
        }
        // Restored multi-field engines must keep replaying identically.
        let bytes = Snapshot::of_net(&net, ops_done).to_bytes();
        let mut restored = Snapshot::from_bytes(&bytes)
            .unwrap()
            .restore(&topo)
            .unwrap();
        for _ in 0..30 {
            let Some(op) = gen.next_op(&mut rng, &topo) else {
                continue;
            };
            net.checker_mut().try_apply(&op).unwrap();
            restored.checker_mut().try_apply(&op).unwrap();
        }
        compact(&mut net);
        compact(&mut restored);
        assert_state_eq(
            &net,
            &restored,
            &format!("mf kind {kind}, post-restore churn"),
        );
        assert_eq!(
            persist::state_digest(&net),
            persist::state_digest(&restored),
            "mf kind {kind}: serialized states diverge"
        );
    }
}

#[test]
fn logged_run_recovers_from_snapshot_plus_log_tail() {
    let dir = temp_dir("recover");
    let mut rng = StdRng::seed_from_u64(0xdec0de);
    let topo = random_topology(&mut rng, 5, true);
    for kind in ENGINE_KINDS {
        let log_path = dir.join(format!("{kind}.dnlog"));
        let snap_path = dir.join(format!("{kind}.dnsnap"));
        let mut net = build(&topo, kind);
        net.enable_monitor();
        let mut session = Session::new(net, Some(flat_journal(&log_path)));
        let mut gen = OpGen::new(8, 40, 0.3);
        while session.ops_applied() < 80 {
            let Some(op) = gen.next_op(&mut rng, &topo) else {
                continue;
            };
            assert_eq!(session.apply(std::slice::from_ref(&op)).1, None);
            if session.ops_applied() == 40 {
                // Mid-run snapshot (never ahead of the durable log):
                // recovery replays the other 40 from the log.
                session.journal_mut().unwrap().sync().unwrap();
                Snapshot::of_net(session.net(), 40)
                    .write_to(&snap_path)
                    .unwrap();
            }
        }
        session.close().unwrap();
        let (recovered, total) = persist::recover(&topo, &snap_path, &log_path).unwrap();
        assert_eq!(total, 80);
        assert_state_eq(
            session.net(),
            &recovered,
            &format!("kind {kind}, recovered"),
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn violations_at_matches_fresh_replay() {
    let mut rng = StdRng::seed_from_u64(0x71e7);
    let topo = random_topology(&mut rng, 5, true);
    let mut net = build(&topo, 0);
    let mut gen = OpGen::new(8, 40, 0.3);
    let mut log: Vec<Op> = Vec::new();
    let mut snap_bytes = Vec::new();
    while log.len() < 60 {
        let Some(op) = gen.next_op(&mut rng, &topo) else {
            continue;
        };
        net.checker_mut().try_apply(&op).unwrap();
        log.push(op);
        if log.len() == 30 {
            snap_bytes = Snapshot::of_net(&net, 30).to_bytes();
        }
    }
    for op_n in [0usize, 10, 30, 45, 60] {
        // Reference: a fresh monitored engine replaying the log head.
        let mut reference = build(&topo, 0);
        reference.enable_monitor();
        for op in &log[..op_n] {
            reference.checker_mut().try_apply(op).unwrap();
        }
        let want = reference.checker().active_violations().unwrap();
        // With the snapshot (used when it lies at or before `op_n`,
        // rebuilt from scratch otherwise) …
        let snap = Snapshot::from_bytes(&snap_bytes).unwrap();
        let got = persist::violations_at(&topo, Some(snap), &log, op_n, config8()).unwrap();
        assert_eq!(got, want, "violations_at({op_n}) with snapshot");
        // … and without one.
        let got = persist::violations_at(&topo, None, &log, op_n, config8()).unwrap();
        assert_eq!(got, want, "violations_at({op_n}) without snapshot");
    }
    // Asking past the end of the log is a clean error.
    let err = persist::violations_at(&topo, None, &log, log.len() + 1, config8());
    assert!(matches!(err, Err(PersistError::Mismatch(_))));
}

#[test]
fn corrupted_and_truncated_artifacts_fail_cleanly() {
    let dir = temp_dir("corrupt");
    let mut rng = StdRng::seed_from_u64(0xbadbad);
    let topo = random_topology(&mut rng, 5, true);
    let mut net = build(&topo, 2);
    net.enable_monitor();
    let mut gen = OpGen::new(8, 40, 0.2);
    let mut n = 0;
    while n < 20 {
        let Some(op) = gen.next_op(&mut rng, &topo) else {
            continue;
        };
        net.checker_mut().try_apply(&op).unwrap();
        n += 1;
    }
    let bytes = Snapshot::of_net(&net, 20).to_bytes();
    assert!(Snapshot::from_bytes(&bytes).is_ok());

    // Any single flipped byte fails the checksum.
    for i in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            matches!(Snapshot::from_bytes(&bad), Err(PersistError::Corrupt(_))),
            "flipped byte {i} must be detected"
        );
    }
    // Truncation — mid-body and shorter than the trailer itself.
    for keep in [bytes.len() - 5, 7, 0] {
        assert!(
            matches!(
                Snapshot::from_bytes(&bytes[..keep]),
                Err(PersistError::Corrupt(_))
            ),
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
    let mut session = Session::new(build(&topo, 0), Some(flat_journal(&log_path)));
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
    let net = PersistNet::Sharded(Box::new(ShardedDeltaNet::new(
        topo.clone(),
        DeltaNetConfig::default(),
        2,
    )));
    let mut session = Session::new(net, Some(flat_journal(&log_path)));
    let ops = [
        Op::Insert(Rule::forward(
            RuleId(1),
            "0.0.0.0/2".parse().unwrap(),
            1,
            a,
            ab,
        )),
        Op::Insert(Rule::forward(
            RuleId(2),
            "128.0.0.0/2".parse().unwrap(),
            2,
            a,
            ab,
        )),
        Op::Remove(RuleId(99)),
        Op::Insert(Rule::forward(
            RuleId(3),
            "64.0.0.0/2".parse().unwrap(),
            3,
            a,
            ab,
        )),
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
    let mut fresh = PersistNet::Sharded(Box::new(ShardedDeltaNet::new(
        topo,
        DeltaNetConfig::default(),
        2,
    )));
    for op in &replayable {
        fresh.checker_mut().try_apply(op).unwrap();
    }
    assert_state_eq(session.net(), &fresh, "post-failure log replay");
    fs::remove_dir_all(&dir).ok();
}

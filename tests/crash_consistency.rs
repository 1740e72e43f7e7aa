//! Crash consistency. Three rows of the differential harness in
//! `tests/support/` ([`Oracle::Crash`]) cut journals at a byte and recover
//! them: every record boundary of flat logs at one engine and 1/2/4 shards,
//! of a dst × src plane, of 2 shards in windows and of an engine compacting
//! at a threshold; a checkpoint directory's final segment, with a fallback
//! past a corrupt newest snapshot, at 1 shard and at 7 shards compacting;
//! and a disk that dies mid-run ([`FaultPlan::crash_at_byte`]).
//!
//! The scenarios below are not stream properties: `FsyncPerBatch` surfaces
//! fsync failures as `PersistError::Io` and the durability ladder fsyncs
//! when it promises; snapshot writes are atomic under a crash at rename; a
//! deferred log-flush error surfaces from `close()` and is reported, never
//! panicked on, by a drop; a checkpoint directory rotates, retains and
//! time-travels, refuses a second history and answers a cut non-final
//! segment with a clean `Mismatch`; and flat and checkpointing journals
//! write the same records.
//!
//! Every run drives a [`Session`] — the engine with its [`Journal`] — as
//! the daemon and `deltanet replay` do.

mod support;

use std::path::{Path, PathBuf};

use deltanet::fault::{FaultPlan, FaultyBackend, StorageBackend};
use deltanet::persist::{
    self, encode_record, read_log_with, state_digest, CheckpointConfig, Durability, Journal,
    PersistError, PersistNet, RecoveryPolicy, RecoveryReport, Snapshot,
};
use deltanet::Session;
use netmodel::checker::InvariantViolation;
use netmodel::rule::RuleId;
use netmodel::topology::Topology;
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::Oracle::{Crash, Restore};
use support::{checkpoints, config, run, Log, Shape, Stream, END, MONITOR};
use testutil::{random_ops, random_topology, OpGen};

/// Length of the delta-log header (magic + format version).
const HEADER: u64 = 5;

/// A monitored engine shape: one engine (`0`) or `shards` shards.
fn shape(shards: usize) -> Shape {
    Shape::new(shards, config(MONITOR, None, &[]))
}

/// `n` ops of the suites' churn, over `sec` secondary fields, from `seed`.
fn churn(seed: u64, topo: &Topology, n: usize, sec: &[u8]) -> Vec<Op> {
    let gen = OpGen::new(8, 40, 0.35).with_secondary(sec);
    random_ops(&mut StdRng::seed_from_u64(seed), topo, n, gen)
}

/// A session over a fresh [`shape`] at op 0 with a flat journal at `path`
/// on `backend`.
fn flat(
    topo: &Topology,
    shards: usize,
    backend: &FaultyBackend,
    path: &Path,
    durability: Durability,
) -> Session {
    let (net, to) = (shape(shards).build(topo), Box::new(backend.clone()));
    Session::with_backend(net, to, path, 0, durability).unwrap()
}

/// A session over a fresh 2-shard [`shape`] at op 0 journaling into the
/// fresh checkpoint `dir` on `backend`.
fn in_dir(
    topo: &Topology,
    backend: &FaultyBackend,
    dir: &Path,
    config: CheckpointConfig,
) -> Result<Session, PersistError> {
    let (net, to) = (shape(2).build(topo), Box::new(backend.clone()));
    let journal = Journal::checkpointed(to, dir, &Snapshot::of_net(&net, 0), config)?;
    Ok(Session::new(net, Some(journal)))
}

/// `Strict` recovery of the checkpoint `dir` on `backend`.
fn recover(
    backend: &FaultyBackend,
    dir: &Path,
    topo: &Topology,
    config: CheckpointConfig,
) -> (PersistNet, Journal, RecoveryReport) {
    let (to, policy) = (Box::new(backend.clone()), RecoveryPolicy::Strict);
    persist::recover_dir(to, dir, topo, policy, config).unwrap()
}

/// `Strict` time travel to op `n` of the checkpoint `dir` on `backend`.
fn violations_at(
    backend: &FaultyBackend,
    dir: &Path,
    topo: &Topology,
    n: u64,
) -> Result<Vec<InvariantViolation>, PersistError> {
    persist::violations_at_dir(&mut backend.clone(), dir, topo, n, RecoveryPolicy::Strict)
}

/// The violations of a 2-shard [`shape`] fed `ops`.
fn violations_after(topo: &Topology, ops: &[Op]) -> Vec<InvariantViolation> {
    let net = run("oracle", topo, Stream::Ops(ops.to_vec()), &shape(2), &[]);
    net.checker().active_violations().unwrap()
}

/// The ops of the log at `path` on `backend`, read `Strict`.
fn ops_in(backend: &FaultyBackend, path: &Path) -> Vec<Op> {
    read_log_with(&mut backend.clone(), path, RecoveryPolicy::Strict)
        .unwrap()
        .ops
}

/// Fails the append that crosses `extra` more bytes with a short write.
fn fail_append(backend: &FaultyBackend, extra: u64) {
    backend.inject(FaultPlan {
        fail_append_at_byte: Some(backend.bytes_appended() + extra),
        ..Default::default()
    });
}

/// Applies `ops` to `session` in windows of `window`; every op applies.
fn feed(session: &mut Session, ops: &[Op], window: usize) {
    for chunk in ops.chunks(window) {
        assert_eq!(session.apply(chunk).1, None);
    }
}

/// The session's journal.
fn journal(session: &mut Session) -> &mut Journal {
    session.journal_mut().expect("a journal is mounted")
}

fn p(s: &str) -> PathBuf {
    PathBuf::from(s)
}

/// A flat log with a snapshot after op 60, in windows of 5, cut at a torn
/// header, every record boundary and sampled mid-record bytes: `Strict`
/// fails naming each tear, and `RepairTail` lands on exactly the salvaged
/// prefix. The cells after the first four are also cut inside a window
/// every 16 ops.
#[test]
fn crash_point_sweep_recovers_the_salvaged_prefix() {
    let mut rng = StdRng::seed_from_u64(0xc4a5_4001);
    let topo = random_topology(&mut rng, 5, true);
    let case = "seed 0xfeed_beef";
    for shards in [0, 1, 2, 4] {
        let shape = Shape {
            window: 5,
            journal: Some(Log::Flat { snapshot: 60 }),
            ..shape(shards)
        };
        let ops = Stream::Ops(churn(0xfeed_beef, &topo, 120, &[]));
        run(case, &topo, ops, &shape, &[(Crash, END), (Restore, END)]);
    }
    // A dst × src plane op by op, 2 shards in windows of 8, and one engine
    // compacting at a threshold of 4.
    for (shards, window, compact, sec) in [
        (0, 0, None, &[6][..]),
        (2, 8, None, &[]),
        (0, 0, Some(4), &[]),
    ] {
        let shape = Shape {
            window,
            journal: Some(Log::Flat { snapshot: 40 }),
            ..Shape::new(shards, config(MONITOR, compact, sec))
        };
        let ops = Stream::Ops(churn(0xfeed_beef, &topo, 80, sec));
        run(case, &topo, ops, &shape, &[(Crash, 16), (Restore, END)]);
    }
}

/// A live crash (the disk dies at byte N mid-run, not a staged artifact):
/// the run dies partway through a window's flush, the sync reports
/// `PersistError::Io` and the backend has crashed; after reboot,
/// `RepairTail` recovery lands on an applied prefix at least as long as the
/// last acknowledged sync.
#[test]
fn live_crash_mid_run_recovers_to_acknowledged_prefix() {
    let mut rng = StdRng::seed_from_u64(0x11fe_cafe);
    let topo = random_topology(&mut rng, 5, true);
    for (shards, crash_at) in [(0, 700), (2, 1100), (4, 401)] {
        let shape = Shape {
            window: 5,
            journal: Some(Log::Flat { snapshot: 0 }),
            crash_at_byte: Some(crash_at),
            ..shape(shards)
        };
        let ops = Stream::Ops(churn(0x0dd_f00d, &topo, 100, &[]));
        let oracles = [(Crash, END), (Restore, END)];
        run("seed 0x0dd_f00d", &topo, ops, &shape, &oracles);
    }
}

/// A checkpoint directory (a segment and a snapshot every 25 ops, three
/// kept) in windows of 8, so rotations land inside windows: its final
/// segment is cut at every record boundary and sampled bytes, a corrupt
/// newest snapshot (op 104 at one shard) falls back to exactly the newest
/// intact one (op 80), and a torn non-final segment is corruption even
/// under `RepairTail`. The second cell runs 7 shards compacting at a
/// threshold of 4, also cut inside a window every 16 ops.
#[test]
fn checkpoint_crash_sweep_with_snapshot_fallback() {
    let mut rng = StdRng::seed_from_u64(0xc4fa);
    let topo = random_topology(&mut rng, 5, true);
    let journal = Some(Log::Checkpointed {
        every: 25,
        retain: 3,
    });
    for (shards, compact, every) in [(1, None, END), (7, Some(4), 16)] {
        let shape = Shape {
            window: 8,
            journal,
            ..Shape::new(shards, config(MONITOR, compact, &[]))
        };
        let ops = Stream::Ops(churn(0xc4fa_0007, &topo, 120, &[]));
        let oracles = [(Crash, every), (Restore, END)];
        run("seed 0xc4fa_0007", &topo, ops, &shape, &oracles);
    }
}

/// `FsyncPerBatch` surfaces fsync failures as `PersistError::Io` instead of
/// silently succeeding, and the durability ladder fsyncs exactly when it
/// promises to.
#[test]
fn durability_ladder_honors_fsync_and_surfaces_failures() {
    let mut rng = StdRng::seed_from_u64(0xf5ac);
    let topo = random_topology(&mut rng, 4, true);
    let trace = churn(0xf5ac_0002, &topo, 20, &[]);

    // fsync failure at FsyncPerBatch: deferred by the window's flush,
    // surfaced as Io by the next flush().
    let backend = FaultyBackend::with_plan(FaultPlan {
        fail_fsyncs: 1,
        ..Default::default()
    });
    let fsync_log = p("/vd/fsync.dnlog");
    let mut session = flat(&topo, 0, &backend, &fsync_log, Durability::FsyncPerBatch);
    assert_eq!(session.apply(&trace[..5]).1, None);
    let err = journal(&mut session)
        .flush()
        .expect_err("fsync failure must surface");
    assert!(
        matches!(err, PersistError::Io(_)),
        "fsync failure must be PersistError::Io, got: {err}"
    );
    journal(&mut session).sync().unwrap(); // the injected failure was one-shot
    drop(session);

    // Sync counts across the ladder: Buffered and FlushPerBatch never
    // fsync on flush; FsyncPerBatch fsyncs once per batch.
    for (durability, expect_syncs) in [
        (Durability::Buffered, 0u64),
        (Durability::FlushPerBatch, 0),
        (Durability::FsyncPerBatch, 4),
    ] {
        let backend = FaultyBackend::new();
        let log_path = p("/vd/ladder.dnlog");
        let mut session = flat(&topo, 0, &backend, &log_path, durability);
        feed(&mut session, &trace, 5);
        assert_eq!(
            backend.sync_count(),
            expect_syncs,
            "{durability:?}: fsyncs after 4 batches"
        );
        // Buffered writes nothing until an explicit sync.
        if durability == Durability::Buffered {
            assert_eq!(backend.surviving(&log_path).unwrap().len() as u64, HEADER);
        }
        journal(&mut session).sync().unwrap();
        assert_eq!(backend.sync_count(), expect_syncs + 1);
        let logged = ops_in(&backend, &log_path);
        assert_eq!(logged.len(), trace.len(), "{durability:?}: all logged");
        drop(session);
    }
}

/// Snapshot writes are atomic — a crash at the rename leaves the previous
/// good snapshot byte-for-byte intact and restorable.
#[test]
fn atomic_snapshot_survives_crash_at_rename() {
    let mut rng = StdRng::seed_from_u64(0xa70a);
    let topo = random_topology(&mut rng, 5, true);
    let trace = churn(0xa70a_0003, &topo, 40, &[]);
    let backend = FaultyBackend::new();
    let snap_path = p("/vd/state.dnsnap");

    let mut net = shape(2).build(&topo);
    for op in &trace[..20] {
        net.checker_mut().try_apply(op).unwrap();
    }
    let digest20 = state_digest(&net);
    Snapshot::of_net(&net, 20)
        .write_to_backend(&mut backend.clone(), &snap_path)
        .unwrap();
    let good_bytes = backend.surviving(&snap_path).unwrap();

    for op in &trace[20..] {
        net.checker_mut().try_apply(op).unwrap();
    }
    backend.inject(FaultPlan {
        crash_on_rename: true,
        ..Default::default()
    });
    let err = Snapshot::of_net(&net, 40)
        .write_to_backend(&mut backend.clone(), &snap_path)
        .expect_err("crash at rename must surface");
    assert!(matches!(err, PersistError::Io(_)));
    assert!(backend.crashed());

    backend.reboot();
    assert_eq!(
        backend.surviving(&snap_path).unwrap(),
        good_bytes,
        "old snapshot must be untouched"
    );
    let snap = Snapshot::read_from_backend(&mut backend.clone(), &snap_path).unwrap();
    assert_eq!(snap.ops_applied(), 20);
    let restored = snap.restore(&topo).unwrap();
    assert_eq!(state_digest(&restored), digest20);
}

/// A deferred log-flush error is impossible to lose — `Journal::close`
/// surfaces it — and dropping a journal with one pending reports it instead
/// of panicking, still making its best-effort final sync. A transient short
/// write heals via truncate-then-retry without duplicating records.
#[test]
fn deferred_flush_errors_cannot_be_dropped_and_short_writes_heal() {
    let mut rng = StdRng::seed_from_u64(0xdefe);
    let topo = random_topology(&mut rng, 4, true);
    let trace = churn(0xdefe_0004, &topo, 20, &[]);
    let log_path = p("/vd/deferred.dnlog");

    // A session whose second window of 5 has its append cut short `short`
    // bytes in (the flush failure is deferred), and the log's length after
    // the first.
    let wounded = |short: u64| {
        let backend = FaultyBackend::new();
        let mut session = flat(&topo, 0, &backend, &log_path, Durability::FlushPerBatch);
        assert_eq!(session.apply(&trace[..5]).1, None);
        let committed = backend.surviving(&log_path).unwrap().len();
        fail_append(&backend, short);
        assert_eq!(session.apply(&trace[5..10]).1, None);
        (backend, session, committed)
    };

    // (a) close surfaces the deferred error instead of dropping it.
    let (_, mut session, _) = wounded(10);
    match session.close() {
        Err(PersistError::Io(_)) => {}
        Err(e) => panic!("deferred error surfaced with the wrong kind: {e}"),
        Ok(()) => panic!("deferred error must surface from close"),
    }

    // (b) dropping with a pending deferred error does not panic, and its
    // final sync still heals the log.
    let (backend, session, _) = wounded(10);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(session)))
        .expect("drop with a pending deferred error must not panic");
    let logged = ops_in(&backend, &log_path);
    assert_eq!(logged, trace[..10].to_vec(), "the final sync ran");

    // (c) wounded truncate-then-retry: the short write lands a partial
    // record; the retry truncates back and re-appends, leaving a log that
    // parses cleanly with every op exactly once.
    let (backend, mut session, committed) = wounded(7);
    let surviving = backend.surviving(&log_path).unwrap().len();
    assert!(
        surviving > committed,
        "the short write must have landed a partial record"
    );
    assert!(matches!(
        journal(&mut session).flush(),
        Err(PersistError::Io(_))
    )); // surface it
    journal(&mut session).flush().unwrap(); // retry: truncate + re-append succeeds
    let logged = ops_in(&backend, &log_path);
    assert_eq!(logged, trace[..10].to_vec(), "no duplicate records");
    drop(session);
}

/// The snapshot and log-segment file names in the checkpoint `dir`.
fn dir_artifacts(backend: &FaultyBackend, dir: &Path) -> (Vec<String>, Vec<String>) {
    let paths = backend.clone().list_dir(dir).unwrap().into_iter();
    let names = paths.map(|path| path.file_name().unwrap().to_str().unwrap().to_string());
    names.partition(|name| name.starts_with("snap-"))
}

/// Recovery and `violations_at` over a rotated multi-segment log with a
/// checkpoint mid-history, including a segment boundary that falls inside a
/// batch (aggregation) window, plus retention pruning.
#[test]
fn checkpoint_manager_rotates_retains_and_recovers_multi_segment() {
    let mut rng = StdRng::seed_from_u64(0xc4ec);
    let topo = random_topology(&mut rng, 5, true);
    let trace = churn(0xc4ec_0005, &topo, 120, &[]);
    let backend = FaultyBackend::new();
    let dir = p("/vd/ckpt");

    let mut session = in_dir(&topo, &backend, &dir, checkpoints(25, 2)).unwrap();
    // Batches of 8 against a 25-op cadence: every rotation lands inside a
    // batch window, so a batch's records straddle two segments.
    feed(&mut session, &trace, 8);
    assert_eq!(journal(&mut session).ops_applied(), 120);
    assert_eq!(journal(&mut session).segment_start(), 100);
    assert_eq!(journal(&mut session).last_checkpoint(), 104);

    // Rotation at exact multiples; snapshots at the commit after each
    // crossing; retention keeps the newest two snapshots and only the
    // segments needed to replay from the oldest retained one.
    let (snaps, segs) = dir_artifacts(&backend, &dir);
    assert_eq!(
        snaps,
        vec!["snap-000000000080.dnsnap", "snap-000000000104.dnsnap"]
    );
    assert_eq!(
        segs,
        vec!["log-000000000075.dnlog", "log-000000000100.dnlog"]
    );

    session.close().unwrap();
    let live_digest = state_digest(session.net());

    // Clean recovery (Strict: nothing is torn).
    let (net2, journal2, report) = recover(&backend, &dir, &topo, checkpoints(25, 2));
    assert_eq!(report.baseline_ops, 104);
    assert_eq!(report.replayed_ops, 16);
    assert_eq!(report.ops_incorporated, 120);
    assert_eq!(report.segments_replayed, 1);
    assert!(report.torn.is_none());
    assert_eq!(state_digest(&net2), live_digest);
    let mut session2 = Session::new(net2, Some(journal2));

    // Time-travel across the retained window, including op 102 — past a
    // segment boundary (100) that fell inside a batch window — and op 85,
    // which needs the snapshot at 80 plus a partial segment replay.
    for op_n in [80u64, 85, 100, 102, 104, 110, 120] {
        let got = violations_at(&backend, &dir, &topo, op_n).unwrap();
        let want = violations_after(&topo, &trace[..op_n as usize]);
        assert_eq!(got, want, "violations_at({op_n})");
    }
    // History before the oldest retained checkpoint is gone — clean error.
    let err = violations_at(&backend, &dir, &topo, 27);
    assert!(matches!(err, Err(PersistError::Mismatch(_))));

    // The recovered journal keeps appending into the same segment; a
    // subsequent recovery sees the extended history.
    let extra = churn(0xc4ec_0006, &topo, 10, &[]);
    feed(&mut session2, &extra, 5);
    journal(&mut session2).sync().unwrap();
    let after_digest = state_digest(session2.net());
    drop(session2);
    let (net3, journal3, report3) = recover(&backend, &dir, &topo, checkpoints(25, 2));
    assert_eq!(report3.ops_incorporated, 130);
    assert_eq!(state_digest(&net3), after_digest);
    drop(journal3);
}

/// Regression: retention vs. time-travel at the exact segment boundary.
/// With batches aligned to the cadence every snapshot lands exactly at a
/// segment start, so the segment *ending* at the oldest retained snapshot
/// satisfies retention's `end <= oldest_kept` and is deleted on every
/// rotation. Time-traveling to the ops just after the oldest retained
/// snapshot must still succeed from the surviving segments — retention must
/// never delete a segment the oldest snapshot needs.
#[test]
fn retention_never_strands_time_travel_just_after_oldest_snapshot() {
    let mut rng = StdRng::seed_from_u64(0xc4fb);
    let topo = random_topology(&mut rng, 5, true);
    let trace = churn(0xc4fb_0008, &topo, 24, &[]);
    let backend = FaultyBackend::new();
    let dir = p("/vd/retention");

    let mut session = in_dir(&topo, &backend, &dir, checkpoints(4, 2)).unwrap();
    // Batches of 4 against a 4-op cadence: six rotations, each snapshot at
    // a segment start, each rotation making one more segment deletable.
    feed(&mut session, &trace, 4);
    assert_eq!(journal(&mut session).ops_applied(), 24);
    assert_eq!(journal(&mut session).checkpoints_written(), 7); // initial + one per rotation
    session.close().unwrap();

    // Retention kept the newest two snapshots and exactly the segments
    // needed to replay forward from the oldest one — everything older,
    // including the segment whose end equals the oldest retained snapshot,
    // is gone.
    let (snaps, segs) = dir_artifacts(&backend, &dir);
    assert_eq!(
        snaps,
        vec!["snap-000000000020.dnsnap", "snap-000000000024.dnsnap"]
    );
    assert_eq!(
        segs,
        vec!["log-000000000020.dnlog", "log-000000000024.dnlog"]
    );

    // Time-travel to the oldest retained snapshot and every op just after
    // it: baseline snap-20 plus a replay that starts at the first record of
    // segment log-20 (the `end == oldest_kept` equality boundary).
    for op_n in [20u64, 21, 22, 23, 24] {
        let got = violations_at(&backend, &dir, &topo, op_n).unwrap();
        let want = violations_after(&topo, &trace[..op_n as usize]);
        assert_eq!(got, want, "violations_at({op_n})");
    }
    // One op before the horizon has no snapshot at or before it: a clean
    // error, not a bogus replay.
    let err = violations_at(&backend, &dir, &topo, 19);
    assert!(matches!(err, Err(PersistError::Mismatch(_))));
}

/// Regression: a checkpoint directory that already holds an earlier run's
/// artifacts is refused. Starting a second history beside the first used to
/// interleave the two: retention deleted the *new* run's snapshots (they
/// sort below the old ones) and recovery silently returned the older run.
#[test]
fn starting_in_a_used_checkpoint_dir_is_refused() {
    let mut rng = StdRng::seed_from_u64(0xc4fc);
    let topo = random_topology(&mut rng, 5, true);
    let trace = churn(0xc4fc_0009, &topo, 60, &[]);
    let backend = FaultyBackend::new();
    let dir = p("/vd/reuse");

    let mut first = in_dir(&topo, &backend, &dir, checkpoints(8, 2)).unwrap();
    feed(&mut first, &trace, 8);
    first.close().unwrap();
    let first_digest = state_digest(first.net());
    let before = dir_artifacts(&backend, &dir);

    let err = in_dir(&topo, &backend, &dir, checkpoints(8, 2))
        .err()
        .expect("a used checkpoint dir must be refused");
    match &err {
        PersistError::Mismatch(msg) => assert!(msg.contains("/vd/reuse"), "{msg}"),
        other => panic!("expected a Mismatch naming the directory, got: {other}"),
    }
    // The refusal wrote nothing, and the first run still recovers whole.
    assert_eq!(dir_artifacts(&backend, &dir), before);
    let (recovered, _journal, report) = recover(&backend, &dir, &topo, checkpoints(8, 2));
    assert_eq!(report.ops_incorporated, 60);
    assert_eq!(state_digest(&recovered), first_digest);

    // A directory holding only a stray segment (no snapshot to recover
    // from) is just as used.
    let stray = FaultyBackend::new();
    stray.plant(&p("/vd/stray/log-000000000000.dnlog"), b"DNLG\x03".to_vec());
    let err = in_dir(&topo, &stray, &p("/vd/stray"), checkpoints(8, 2));
    assert!(matches!(err, Err(PersistError::Mismatch(_))));
}

/// Regression: time-travel whose replay crosses a non-final segment cut
/// short at a record boundary (so it still parses under `Strict`) is a
/// clean `Mismatch` — the answer `recover_dir` gives for the same
/// directory. It used to panic: the replay position fell behind the next
/// segment's start and the skip count underflowed.
#[test]
fn time_travel_across_a_cut_non_final_segment_is_a_clean_mismatch() {
    let mut rng = StdRng::seed_from_u64(0xc4fd);
    let topo = random_topology(&mut rng, 5, true);
    let trace = churn(0xc4fd_000a, &topo, 120, &[]);
    let backend = FaultyBackend::new();
    let dir = p("/vd/cut");

    let mut session = in_dir(&topo, &backend, &dir, checkpoints(25, 4)).unwrap();
    feed(&mut session, &trace, 8);
    session.close().unwrap();

    // Keep the first 10 of log-50's 25 records: ops 50..60.
    let seg_path = p("/vd/cut/log-000000000050.dnlog");
    let records = trace[50..60]
        .iter()
        .map(|op| encode_record(op).len() as u64);
    let keep = HEADER + records.sum::<u64>();
    let seg = backend.surviving(&seg_path).unwrap();
    backend.plant(&seg_path, seg[..keep as usize].to_vec());

    // Op 70 restores snap-56 and needs log-50's records 56..70.
    let err = violations_at(&backend, &dir, &topo, 70);
    assert!(
        matches!(err, Err(PersistError::Mismatch(_))),
        "cut middle segment must be a clean mismatch"
    );
    // Points the cut segment does not sit under still answer.
    let got = violations_at(&backend, &dir, &topo, 110).unwrap();
    assert_eq!(got, violations_after(&topo, &trace[..110]));
}

/// There is one write path. The same op stream, in windows of 1 / 8 / 128
/// with a mid-stream op the engine rejects, goes through a flat journal and
/// through a checkpointing one whose cadence divides none of the larger
/// windows; the segments' records, concatenated, are the flat log's records
/// byte for byte, both hold exactly the applied prefix, and recovery from
/// either layout lands on the same state.
#[test]
fn flat_and_checkpointing_journals_write_the_same_records() {
    let mut rng = StdRng::seed_from_u64(0x10c5);
    let topo = random_topology(&mut rng, 5, true);
    let mut trace = churn(0x10c5_000b, &topo, 300, &[]);
    trace.insert(137, Op::Remove(RuleId(u64::MAX))); // unknown rule: rejected
    let log_path = p("/vd/one/flat.dnlog");
    let snap_path = p("/vd/one/flat.dnsnap");
    let dir = p("/vd/one/ckpt");

    for window in [1usize, 8, 128] {
        let backend = FaultyBackend::new();
        Snapshot::of_net(&shape(2).build(&topo), 0)
            .write_to_backend(&mut backend.clone(), &snap_path)
            .unwrap();
        let mut flat_log = flat(&topo, 2, &backend, &log_path, Durability::FsyncPerBatch);
        let mut rotated = in_dir(&topo, &backend, &dir, checkpoints(25, usize::MAX)).unwrap();
        // A failing window keeps its applied prefix and drops its rest.
        let mut applied: Vec<Op> = Vec::new();
        let mut rejected = 0;
        for chunk in trace.chunks(window) {
            let (a, a_failure) = flat_log.apply(chunk);
            let (b, b_failure) = rotated.apply(chunk);
            let n = a.len();
            assert_eq!(a_failure.map_or(chunk.len(), |e| e.index), n);
            assert_eq!((b.len(), b_failure), (n, a_failure));
            rejected += usize::from(a_failure.is_some());
            applied.extend_from_slice(&chunk[..n]);
        }
        assert!(
            rejected >= 1,
            "window {window}: the bad op must be rejected"
        );
        assert_eq!(journal(&mut flat_log).ops_applied(), applied.len() as u64);
        assert_eq!(journal(&mut rotated).ops_applied(), applied.len() as u64);
        let live_digest = state_digest(flat_log.net());
        assert_eq!(state_digest(rotated.net()), live_digest);
        flat_log.close().unwrap();
        rotated.close().unwrap();

        // Byte for byte: header-stripped segments, in order == flat log.
        let flat_bytes = backend.surviving(&log_path).unwrap();
        let (_, segs) = dir_artifacts(&backend, &dir);
        assert_eq!(segs.len(), applied.len() / 25 + 1, "window {window}");
        let mut joined = Vec::new();
        for name in &segs {
            let bytes = backend.surviving(&dir.join(name)).unwrap();
            joined.extend_from_slice(&bytes[HEADER as usize..]);
        }
        assert_eq!(joined, flat_bytes[HEADER as usize..], "window {window}");
        let logged = ops_in(&backend, &log_path);
        assert_eq!(
            logged, applied,
            "window {window}: exactly the applied prefix"
        );

        // Both layouts recover to the live state.
        let (from_pair, total, _) = persist::recover_with(
            &topo,
            &mut backend.clone(),
            &snap_path,
            &log_path,
            RecoveryPolicy::Strict,
        )
        .unwrap();
        assert_eq!(total, applied.len() as u64);
        assert_eq!(state_digest(&from_pair), live_digest, "window {window}");
        let (from_dir, _journal, report) =
            recover(&backend, &dir, &topo, checkpoints(25, usize::MAX));
        assert_eq!(report.ops_incorporated, applied.len() as u64);
        assert_eq!(state_digest(&from_dir), live_digest, "window {window}");
    }

    // Two I/O failures in a row — a short append, then (the retry having
    // healed the file) a failed fsync — surface the first: the second is
    // usually cascade and must not displace the root cause.
    let backend = FaultyBackend::new();
    let mut session = flat(&topo, 2, &backend, &log_path, Durability::FsyncPerBatch);
    fail_append(&backend, 7);
    assert_eq!(session.apply(&trace[..8]).1, None);
    backend.inject(FaultPlan {
        fail_fsyncs: 1,
        ..Default::default()
    });
    assert_eq!(session.apply(&trace[8..16]).1, None);
    let err = journal(&mut session)
        .flush()
        .expect_err("the deferred failure must surface");
    assert!(err.to_string().contains("short write"), "{err}");
    journal(&mut session).sync().unwrap(); // one error was pending, not two
    let logged = ops_in(&backend, &log_path);
    assert_eq!(logged, trace[..16].to_vec());
}

//! Crash-consistency differential suite (crashmonkey-style): randomized
//! traces run through the fault-injecting [`FaultyBackend`], a crash is
//! simulated at every record boundary (and sampled mid-record bytes) of the
//! delta log, recovery runs under both [`RecoveryPolicy`]s, and the
//! recovered state is compared — via [`state_digest`], the monitor's
//! `active_violations()`, and full rescans — against a fresh oracle engine
//! replayed to exactly the salvaged prefix, at single/1/2/4 shards.
//!
//! Invariants proved here: `RepairTail` recovery always lands bit-identical
//! to some applied prefix (never panics, never invents ops); `Strict` fails
//! with a clean error naming the torn offset; `FsyncPerBatch` surfaces
//! fsync failures as `PersistError::Io`; snapshot writes are atomic under a
//! crash at rename; a deferred log-flush error surfaces from `close()` and
//! is reported, never panicked on, by a drop; and a rotated multi-segment
//! checkpoint directory recovers through torn tails and corrupt snapshots.
//!
//! Every run drives a [`Session`] — the engine with its [`Journal`] — as
//! the daemon and `deltanet replay` do.

use std::path::{Path, PathBuf};

use deltanet::fault::{FaultPlan, FaultyBackend, StorageBackend};
use deltanet::persist::{
    self, encode_record, read_log_with, state_digest, CheckpointConfig, Durability, Journal,
    PersistError, PersistNet, RecoveryPolicy, Snapshot,
};
use deltanet::{DeltaNet, DeltaNetConfig, Session, ShardedDeltaNet};
use netmodel::rule::RuleId;
use netmodel::topology::Topology;
use netmodel::trace::Op;
use rand::rngs::StdRng;
use rand::SeedableRng;
use testutil::{blackholes_by_node, loops_by_cycle, random_topology, OpGen};

/// `0` builds a plain single engine; `n > 0` builds `n` shards.
const ENGINE_KINDS: [usize; 4] = [0, 1, 2, 4];

/// Length of the delta-log header (magic + format version).
const HEADER: u64 = 5;

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
    let mut net = if shards == 0 {
        PersistNet::Single(Box::new(DeltaNet::new(topo.clone(), config8())))
    } else {
        PersistNet::Sharded(Box::new(ShardedDeltaNet::new(
            topo.clone(),
            config8(),
            shards,
        )))
    };
    net.enable_monitor();
    net
}

/// A session over `net` at op 0 with a flat journal at `path` on `backend`.
fn flat(net: PersistNet, backend: &FaultyBackend, path: &Path, durability: Durability) -> Session {
    Session::with_backend(net, Box::new(backend.clone()), path, 0, durability).unwrap()
}

/// A checkpointing journal over the fresh `dir` on `backend`, for `net` at
/// op 0.
fn checkpointed(
    net: &PersistNet,
    backend: &FaultyBackend,
    dir: &Path,
    config: CheckpointConfig,
) -> Result<Journal, PersistError> {
    Journal::checkpointed(
        Box::new(backend.clone()),
        dir,
        &Snapshot::of_net(net, 0),
        config,
    )
}

/// A session over `net` at op 0 journaling into the fresh checkpoint `dir`.
fn in_dir(
    net: PersistNet,
    backend: &FaultyBackend,
    dir: &Path,
    config: CheckpointConfig,
) -> Session {
    let journal = checkpointed(&net, backend, dir, config).unwrap();
    Session::new(net, Some(journal))
}

/// The session's journal.
fn journal(session: &mut Session) -> &mut Journal {
    session.journal_mut().expect("a journal is mounted")
}

/// A deterministic ~`n`-op trace over `topo`.
fn make_trace(seed: u64, topo: &Topology, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = OpGen::new(8, 40, 0.35);
    let mut trace = Vec::with_capacity(n);
    while trace.len() < n {
        if let Some(op) = gen.next_op(&mut rng, topo) {
            trace.push(op);
        }
    }
    trace
}

/// Byte offset after the log header and after each framed record.
fn record_boundaries(trace: &[Op]) -> Vec<u64> {
    let mut boundaries = Vec::with_capacity(trace.len() + 1);
    let mut cum = HEADER;
    boundaries.push(cum);
    for op in trace {
        cum += encode_record(op).len() as u64;
        boundaries.push(cum);
    }
    boundaries
}

/// Records fully contained in the first `crash` bytes, and the offset of
/// the first byte past the last complete record (the tear point).
fn salvage_at(boundaries: &[u64], crash: u64) -> (usize, u64) {
    if crash < HEADER {
        return (0, 0);
    }
    let salvaged = boundaries.partition_point(|&b| b <= crash) - 1;
    (salvaged, boundaries[salvaged])
}

/// Full state agreement: digest (bit-for-bit arenas + registry + monitor)
/// and the live violation set.
fn assert_bit_identical(recovered: &PersistNet, oracle: &PersistNet, ctx: &str) {
    assert_eq!(
        state_digest(recovered),
        state_digest(oracle),
        "{ctx}: state digest"
    );
    assert_eq!(
        recovered.checker().active_violations(),
        oracle.checker().active_violations(),
        "{ctx}: monitor violation set"
    );
}

/// The expensive variant: adds full loop/blackhole rescans.
fn assert_bit_identical_deep(recovered: &PersistNet, oracle: &PersistNet, ctx: &str) {
    assert_bit_identical(recovered, oracle, ctx);
    let mut oracle_all = oracle.check_all_loops();
    oracle_all.extend(oracle.check_all_blackholes());
    let mut recovered_all = recovered.check_all_loops();
    recovered_all.extend(recovered.check_all_blackholes());
    assert_eq!(
        loops_by_cycle(&recovered_all),
        loops_by_cycle(&oracle_all),
        "{ctx}: loop rescan"
    );
    assert_eq!(
        blackholes_by_node(&recovered_all),
        blackholes_by_node(&oracle_all),
        "{ctx}: blackhole rescan"
    );
}

fn p(s: &str) -> PathBuf {
    PathBuf::from(s)
}

/// The tentpole sweep: run a trace through a fault-free backend to capture
/// the ground-truth log bytes and a mid-run snapshot, then simulate a crash
/// at every record boundary plus sampled mid-record bytes. For each crash
/// point, `RepairTail` recovery must land bit-identical to an oracle engine
/// replayed to exactly the salvaged prefix, and `Strict` must fail naming
/// the torn offset whenever the tail is torn.
#[test]
fn crash_point_sweep_recovers_bit_identical_to_salvaged_prefix() {
    const SNAP_AT: usize = 60;
    let mut rng = StdRng::seed_from_u64(0xc4a5_4001);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xfeed_beef, &topo, 120);
    let boundaries = record_boundaries(&trace);

    for kind in ENGINE_KINDS {
        // Ground-truth run: batches of 5 through a fault-free FaultyBackend
        // at FsyncPerBatch, snapshotting at op SNAP_AT.
        let backend = FaultyBackend::new();
        let log_path = p("/vd/wal.dnlog");
        let snap_path = p("/vd/base.dnsnap");
        let mut session = flat(
            build(&topo, kind),
            &backend,
            &log_path,
            Durability::FsyncPerBatch,
        );
        let snap0_bytes = Snapshot::of_net(session.net(), 0).to_bytes();
        let mut snap_mid_bytes = Vec::new();
        for chunk in trace.chunks(5) {
            assert_eq!(session.apply(chunk).1, None);
            if journal(&mut session).ops_applied() == SNAP_AT as u64 {
                // Never ahead of the durable log.
                journal(&mut session).sync().unwrap();
                snap_mid_bytes = Snapshot::of_net(session.net(), SNAP_AT as u64).to_bytes();
            }
        }
        session.close().unwrap();
        let log_bytes = backend.surviving(&log_path).unwrap();
        assert_eq!(log_bytes.len() as u64, *boundaries.last().unwrap());
        assert!(!snap_mid_bytes.is_empty());

        // Crash points: a torn header, every record boundary, and sampled
        // mid-record bytes (first byte and midpoint of every 7th record).
        let mut crash_points: Vec<u64> = vec![3];
        for (i, w) in boundaries.windows(2).enumerate() {
            crash_points.push(w[1]);
            if i % 7 == 0 && w[1] - w[0] > 2 {
                crash_points.push(w[0] + 1);
                crash_points.push(w[0] + (w[1] - w[0]) / 2);
            }
        }
        crash_points.sort_unstable();

        // Incremental oracle: advances through the trace as the sweep's
        // salvaged prefix grows, so every op replays exactly once.
        let mut oracle = build(&topo, kind);
        let mut oracle_at = 0usize;

        for (point_idx, &crash) in crash_points.iter().enumerate() {
            let (salvaged, tear_offset) = salvage_at(&boundaries, crash);
            let torn = crash < HEADER || crash != boundaries[salvaged];
            while oracle_at < salvaged {
                oracle.checker_mut().try_apply(&trace[oracle_at]).unwrap();
                oracle_at += 1;
            }
            let snap_bytes = if salvaged >= SNAP_AT {
                &snap_mid_bytes
            } else {
                &snap0_bytes
            };

            // Strict: a torn tail is a clean error naming the offset; an
            // exact-boundary crash leaves a fully valid (shorter) log.
            let strict = FaultyBackend::new();
            strict.plant(&log_path, log_bytes[..crash as usize].to_vec());
            strict.plant(&snap_path, snap_bytes.clone());
            let strict_result = persist::recover_with(
                &topo,
                &mut strict.clone(),
                &snap_path,
                &log_path,
                RecoveryPolicy::Strict,
            );
            if torn {
                let err = strict_result.err().expect("torn tail must fail Strict");
                let msg = err.to_string();
                assert!(
                    matches!(err, PersistError::Corrupt(_)),
                    "kind {kind}, crash {crash}: strict error kind: {msg}"
                );
                assert!(
                    msg.contains(&format!("byte {tear_offset}")) || crash < HEADER,
                    "kind {kind}, crash {crash}: strict error must name the tear: {msg}"
                );
            } else {
                let (net, total, tail) = strict_result.unwrap();
                assert_eq!(total, salvaged as u64);
                assert!(tail.is_none());
                assert_bit_identical(
                    &net,
                    &oracle,
                    &format!("kind {kind}, crash {crash}, strict"),
                );
            }

            // RepairTail: always recovers, bit-identical to the salvaged
            // prefix, and truncates the torn bytes off the file.
            let faulty = FaultyBackend::new();
            faulty.plant(&log_path, log_bytes[..crash as usize].to_vec());
            faulty.plant(&snap_path, snap_bytes.clone());
            let mut handle = faulty.clone();
            let (net, total, tail) = persist::recover_with(
                &topo,
                &mut handle,
                &snap_path,
                &log_path,
                RecoveryPolicy::RepairTail,
            )
            .unwrap_or_else(|e| panic!("kind {kind}, crash {crash}: RepairTail failed: {e}"));
            assert_eq!(
                total, salvaged as u64,
                "kind {kind}, crash {crash}: salvaged op count"
            );
            assert_eq!(
                tail.is_some(),
                torn,
                "kind {kind}, crash {crash}: torn-tail report"
            );
            if let Some(tail) = tail {
                assert_eq!(tail.offset, tear_offset, "kind {kind}, crash {crash}");
                assert_eq!(
                    faulty.surviving(&log_path).unwrap().len() as u64,
                    tear_offset.max(HEADER),
                    "kind {kind}, crash {crash}: file truncated to the valid prefix"
                );
                // The repaired log now reads cleanly even under Strict.
                let reread =
                    read_log_with(&mut faulty.clone(), &log_path, RecoveryPolicy::Strict).unwrap();
                assert_eq!(reread.ops.len(), salvaged);
            }
            let ctx = format!("kind {kind}, crash {crash}, repair");
            if point_idx % 10 == 0 {
                assert_bit_identical_deep(&net, &oracle, &ctx);
            } else {
                assert_bit_identical(&net, &oracle, &ctx);
            }
        }
    }
}

/// A live crash (fail-at-byte-N mid-run, not a staged artifact): the run
/// dies partway through a batch flush; after reboot, `RepairTail` recovery
/// lands on an applied prefix at least as long as the last acknowledged
/// sync.
#[test]
fn live_crash_mid_run_recovers_to_acknowledged_prefix() {
    let mut rng = StdRng::seed_from_u64(0x11fe_cafe);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0x0dd_f00d, &topo, 100);
    for (kind, crash_at) in [(0usize, 700u64), (2, 1100), (4, 401)] {
        let backend = FaultyBackend::with_plan(FaultPlan {
            crash_at_byte: Some(crash_at),
            ..Default::default()
        });
        let log_path = p("/vd/live.dnlog");
        let snap_path = p("/vd/live.dnsnap");
        // Planted, not written: the snapshot must not consume crash budget.
        backend.plant(
            &snap_path,
            Snapshot::of_net(&build(&topo, kind), 0).to_bytes(),
        );
        let mut session = flat(
            build(&topo, kind),
            &backend,
            &log_path,
            Durability::FsyncPerBatch,
        );
        let mut acked = 0u64;
        let mut crashed = false;
        for chunk in trace.chunks(5) {
            assert_eq!(session.apply(chunk).1, None);
            match journal(&mut session).sync() {
                Ok(()) => acked = journal(&mut session).ops_applied(),
                Err(PersistError::Io(_)) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert!(crashed, "kind {kind}: the plan must have fired");
        assert!(backend.crashed());
        drop(session); // the deferred error was surfaced by sync()

        backend.reboot();
        let (net, salvaged, _) = persist::recover_with(
            &topo,
            &mut backend.clone(),
            &snap_path,
            &log_path,
            RecoveryPolicy::RepairTail,
        )
        .unwrap();
        assert!(
            salvaged >= acked && salvaged <= trace.len() as u64,
            "kind {kind}: salvaged {salvaged} vs acked {acked}"
        );
        let mut oracle = build(&topo, kind);
        for op in &trace[..salvaged as usize] {
            oracle.checker_mut().try_apply(op).unwrap();
        }
        assert_bit_identical_deep(&net, &oracle, &format!("kind {kind}, live crash"));
    }
}

/// Satellite: `FsyncPerBatch` surfaces fsync failures as
/// `PersistError::Io` instead of silently succeeding, and the durability
/// ladder fsyncs exactly when it promises to.
#[test]
fn durability_ladder_honors_fsync_and_surfaces_failures() {
    let mut rng = StdRng::seed_from_u64(0xf5ac);
    let topo = random_topology(&mut rng, 4, true);
    let trace = make_trace(0xf5ac_0002, &topo, 20);

    // fsync failure at FsyncPerBatch: deferred by the window's flush,
    // surfaced as Io by the next flush().
    let backend = FaultyBackend::with_plan(FaultPlan {
        fail_fsyncs: 1,
        ..Default::default()
    });
    let fsync_log = p("/vd/fsync.dnlog");
    let mut session = flat(
        build(&topo, 0),
        &backend,
        &fsync_log,
        Durability::FsyncPerBatch,
    );
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
        let mut session = flat(build(&topo, 0), &backend, &log_path, durability);
        for chunk in trace.chunks(5) {
            assert_eq!(session.apply(chunk).1, None);
        }
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
        let report =
            read_log_with(&mut backend.clone(), &log_path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(report.ops.len(), trace.len(), "{durability:?}: all logged");
        drop(session);
    }
}

/// Satellite: snapshot writes are atomic — a crash at the rename leaves the
/// previous good snapshot byte-for-byte intact and restorable.
#[test]
fn atomic_snapshot_survives_crash_at_rename() {
    let mut rng = StdRng::seed_from_u64(0xa70a);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xa70a_0003, &topo, 40);
    let backend = FaultyBackend::new();
    let snap_path = p("/vd/state.dnsnap");

    let mut net = build(&topo, 2);
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

/// Satellite: a deferred log-flush error is impossible to lose —
/// `Journal::close` surfaces it — and dropping a journal with one pending
/// reports it instead of panicking, still making its best-effort final
/// sync. A transient short write heals via truncate-then-retry without
/// duplicating records.
#[test]
fn deferred_flush_errors_cannot_be_dropped_and_short_writes_heal() {
    let mut rng = StdRng::seed_from_u64(0xdefe);
    let topo = random_topology(&mut rng, 4, true);
    let trace = make_trace(0xdefe_0004, &topo, 20);
    let log_path = p("/vd/deferred.dnlog");

    // (a) close surfaces the deferred error instead of dropping it.
    let backend = FaultyBackend::new();
    let mut session = flat(
        build(&topo, 0),
        &backend,
        &log_path,
        Durability::FlushPerBatch,
    );
    assert_eq!(session.apply(&trace[..5]).1, None);
    backend.inject(FaultPlan {
        fail_append_at_byte: Some(backend.bytes_appended() + 10),
        ..Default::default()
    });
    assert_eq!(session.apply(&trace[5..10]).1, None); // flush failure deferred
    match session.close() {
        Err(PersistError::Io(_)) => {}
        Err(e) => panic!("deferred error surfaced with the wrong kind: {e}"),
        Ok(()) => panic!("deferred error must surface from close"),
    }

    // (b) dropping with a pending deferred error does not panic, and its
    // final sync still heals the log.
    let backend = FaultyBackend::new();
    let mut session = flat(
        build(&topo, 0),
        &backend,
        &log_path,
        Durability::FlushPerBatch,
    );
    assert_eq!(session.apply(&trace[..5]).1, None);
    backend.inject(FaultPlan {
        fail_append_at_byte: Some(backend.bytes_appended() + 10),
        ..Default::default()
    });
    assert_eq!(session.apply(&trace[5..10]).1, None);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(session)))
        .expect("drop with a pending deferred error must not panic");
    let report = read_log_with(&mut backend.clone(), &log_path, RecoveryPolicy::Strict).unwrap();
    assert_eq!(report.ops, trace[..10].to_vec(), "the final sync ran");

    // (c) wounded truncate-then-retry: the short write lands a partial
    // record; the retry truncates back and re-appends, leaving a log that
    // parses cleanly with every op exactly once.
    let backend = FaultyBackend::new();
    let mut session = flat(
        build(&topo, 0),
        &backend,
        &log_path,
        Durability::FlushPerBatch,
    );
    assert_eq!(session.apply(&trace[..5]).1, None);
    let committed = backend.surviving(&log_path).unwrap().len();
    backend.inject(FaultPlan {
        fail_append_at_byte: Some(backend.bytes_appended() + 7),
        ..Default::default()
    });
    assert_eq!(session.apply(&trace[5..10]).1, None); // short write, deferred
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
    let report = read_log_with(&mut backend.clone(), &log_path, RecoveryPolicy::Strict).unwrap();
    assert_eq!(report.ops, trace[..10].to_vec(), "no duplicate records");
    drop(session);
}

fn checkpoint_cfg(every_ops: u64, retain: usize) -> CheckpointConfig {
    CheckpointConfig {
        every_ops,
        retain,
        durability: Durability::FsyncPerBatch,
    }
}

fn dir_artifacts(backend: &FaultyBackend, dir: &Path) -> (Vec<String>, Vec<String>) {
    let mut snaps = Vec::new();
    let mut segs = Vec::new();
    for path in backend.clone().list_dir(dir).unwrap() {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.starts_with("snap-") {
            snaps.push(name);
        } else if name.starts_with("log-") {
            segs.push(name);
        }
    }
    (snaps, segs)
}

/// Satellite: recovery and `violations_at` over a rotated multi-segment
/// log with a checkpoint mid-history, including a segment boundary that
/// falls inside a batch (aggregation) window, plus retention pruning.
#[test]
fn checkpoint_manager_rotates_retains_and_recovers_multi_segment() {
    let mut rng = StdRng::seed_from_u64(0xc4ec);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xc4ec_0005, &topo, 120);
    let backend = FaultyBackend::new();
    let dir = p("/vd/ckpt");

    let mut session = in_dir(build(&topo, 2), &backend, &dir, checkpoint_cfg(25, 2));
    // Batches of 8 against a 25-op cadence: every rotation lands inside a
    // batch window, so a batch's records straddle two segments.
    for chunk in trace.chunks(8) {
        assert_eq!(session.apply(chunk).1, None);
    }
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
    let (net2, journal2, report) = persist::recover_dir(
        Box::new(backend.clone()),
        &dir,
        &topo,
        RecoveryPolicy::Strict,
        checkpoint_cfg(25, 2),
    )
    .unwrap();
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
        let mut oracle = build(&topo, 2);
        for op in &trace[..op_n as usize] {
            oracle.checker_mut().try_apply(op).unwrap();
        }
        let got = persist::violations_at_dir(
            &mut backend.clone(),
            &dir,
            &topo,
            op_n,
            RecoveryPolicy::Strict,
        )
        .unwrap();
        assert_eq!(
            got,
            oracle.checker().active_violations().unwrap(),
            "violations_at({op_n})"
        );
    }
    // History before the oldest retained checkpoint is gone — clean error.
    let err = persist::violations_at_dir(
        &mut backend.clone(),
        &dir,
        &topo,
        27,
        RecoveryPolicy::Strict,
    );
    assert!(matches!(err, Err(PersistError::Mismatch(_))));

    // The recovered journal keeps appending into the same segment; a
    // subsequent recovery sees the extended history.
    let extra = make_trace(0xc4ec_0006, &topo, 10);
    let mut oracle_ops: Vec<Op> = trace.clone();
    for chunk in extra.chunks(5) {
        let (reports, failure) = session2.apply(chunk);
        assert_eq!(failure, None);
        oracle_ops.extend_from_slice(&chunk[..reports.len()]);
    }
    journal(&mut session2).sync().unwrap();
    let after_digest = state_digest(session2.net());
    drop(session2);
    let (net3, journal3, report3) = persist::recover_dir(
        Box::new(backend.clone()),
        &dir,
        &topo,
        RecoveryPolicy::Strict,
        checkpoint_cfg(25, 2),
    )
    .unwrap();
    assert_eq!(report3.ops_incorporated, oracle_ops.len() as u64);
    assert_eq!(state_digest(&net3), after_digest);
    drop(journal3);
}

/// Regression (ISSUE 10 satellite): retention vs. time-travel at the exact
/// segment boundary. With batches aligned to the cadence every snapshot
/// lands exactly at a segment start, so the segment *ending* at the oldest
/// retained snapshot satisfies retention's `end <= oldest_kept` and is
/// deleted on every rotation. Time-traveling to the ops just after the
/// oldest retained snapshot must still succeed from the surviving segments
/// — retention must never delete a segment the oldest snapshot needs.
#[test]
fn retention_never_strands_time_travel_just_after_oldest_snapshot() {
    let mut rng = StdRng::seed_from_u64(0xc4fb);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xc4fb_0008, &topo, 24);
    let backend = FaultyBackend::new();
    let dir = p("/vd/retention");

    let mut session = in_dir(build(&topo, 2), &backend, &dir, checkpoint_cfg(4, 2));
    // Batches of 4 against a 4-op cadence: six rotations, each snapshot at
    // a segment start, each rotation making one more segment deletable.
    for chunk in trace.chunks(4) {
        assert_eq!(session.apply(chunk).1, None);
    }
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
        let mut oracle = build(&topo, 2);
        for op in &trace[..op_n as usize] {
            oracle.checker_mut().try_apply(op).unwrap();
        }
        let got = persist::violations_at_dir(
            &mut backend.clone(),
            &dir,
            &topo,
            op_n,
            RecoveryPolicy::Strict,
        )
        .unwrap();
        assert_eq!(
            got,
            oracle.checker().active_violations().unwrap(),
            "violations_at({op_n})"
        );
    }
    // One op before the horizon has no snapshot at or before it: a clean
    // error, not a bogus replay.
    let err = persist::violations_at_dir(
        &mut backend.clone(),
        &dir,
        &topo,
        19,
        RecoveryPolicy::Strict,
    );
    assert!(matches!(err, Err(PersistError::Mismatch(_))));
}

/// Crash sweep over a checkpoint directory: crash at every record boundary
/// (and sampled bytes) of the *final* segment; `RepairTail` recovery must
/// land bit-identical to the oracle at the salvaged prefix. Also: a corrupt
/// newest snapshot falls back to the previous checkpoint, and a torn
/// non-final segment is corruption even under `RepairTail`.
#[test]
fn checkpoint_crash_sweep_with_snapshot_fallback() {
    let mut rng = StdRng::seed_from_u64(0xc4fa);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xc4fa_0007, &topo, 120);
    let backend = FaultyBackend::new();
    let dir = p("/vd/sweep");

    let mut session = in_dir(build(&topo, 1), &backend, &dir, checkpoint_cfg(25, 3));
    for chunk in trace.chunks(8) {
        assert_eq!(session.apply(chunk).1, None);
    }
    session.close().unwrap();

    // Capture the pristine directory contents.
    let files: Vec<(PathBuf, Vec<u8>)> = backend
        .clone()
        .list_dir(&dir)
        .unwrap()
        .into_iter()
        .map(|path| {
            let bytes = backend.surviving(&path).unwrap();
            (path, bytes)
        })
        .collect();
    let last_seg_path = p("/vd/sweep/log-000000000100.dnlog");
    let last_seg = backend.surviving(&last_seg_path).unwrap();
    let tail_trace = &trace[100..];
    let tail_boundaries = record_boundaries(tail_trace);
    assert_eq!(last_seg.len() as u64, *tail_boundaries.last().unwrap());

    let stage = |last_seg_keep: usize| -> FaultyBackend {
        let staged = FaultyBackend::new();
        for (path, bytes) in &files {
            staged.plant(path, bytes.clone());
        }
        staged.plant(&last_seg_path, last_seg[..last_seg_keep].to_vec());
        staged
    };

    let mut crash_points: Vec<u64> = Vec::new();
    for (i, w) in tail_boundaries.windows(2).enumerate() {
        crash_points.push(w[1]);
        if i % 3 == 0 && w[1] - w[0] > 2 {
            crash_points.push(w[0] + (w[1] - w[0]) / 2);
        }
    }
    crash_points.sort_unstable();
    let mut oracle = build(&topo, 1);
    let mut oracle_at = 0usize;
    for &crash in &crash_points {
        let (salvaged_in_seg, tear_offset) = salvage_at(&tail_boundaries, crash);
        let global = 100 + salvaged_in_seg;
        while oracle_at < global {
            oracle.checker_mut().try_apply(&trace[oracle_at]).unwrap();
            oracle_at += 1;
        }
        let staged = stage(crash as usize);
        let (recovered, journal, report) = persist::recover_dir(
            Box::new(staged.clone()),
            &dir,
            &topo,
            RecoveryPolicy::RepairTail,
            checkpoint_cfg(25, 3),
        )
        .unwrap_or_else(|e| panic!("crash {crash}: RepairTail recovery failed: {e}"));
        // Below the newest snapshot (op 104) the snapshot state wins.
        assert_eq!(
            report.ops_incorporated,
            (global as u64).max(104),
            "crash {crash}: recovered position"
        );
        assert_eq!(report.torn.is_some(), crash != tear_offset, "crash {crash}");
        if global as u64 >= 104 {
            assert_bit_identical(&recovered, &oracle, &format!("crash {crash}"));
        }
        drop(journal);
    }

    // Corrupt newest snapshot → fall back to the previous checkpoint and
    // still recover the full history bit-identically.
    while oracle_at < trace.len() {
        oracle.checker_mut().try_apply(&trace[oracle_at]).unwrap();
        oracle_at += 1;
    }
    let staged = stage(last_seg.len());
    let snap_path = p("/vd/sweep/snap-000000000104.dnsnap");
    let mut bad = staged.surviving(&snap_path).unwrap();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x20;
    staged.plant(&snap_path, bad);
    let (recovered, journal, report) = persist::recover_dir(
        Box::new(staged.clone()),
        &dir,
        &topo,
        RecoveryPolicy::RepairTail,
        checkpoint_cfg(25, 3),
    )
    .unwrap();
    assert_eq!(report.snapshots_skipped, 1);
    assert!(report.baseline_ops < 104);
    assert_eq!(report.ops_incorporated, 120);
    assert_bit_identical_deep(&recovered, &oracle, "snapshot fallback");
    drop(journal);

    // A torn non-final segment is unrecoverable corruption, even under
    // RepairTail (only the crash-active tail may legally be torn). The
    // newest snapshot is corrupted too so replay is forced through the
    // torn middle segment.
    let staged = stage(last_seg.len());
    let mid_seg_path = p("/vd/sweep/log-000000000075.dnlog");
    let mid_seg = staged.surviving(&mid_seg_path).unwrap();
    staged.plant(&mid_seg_path, mid_seg[..mid_seg.len() - 3].to_vec());
    let mut bytes = staged.surviving(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    staged.plant(&snap_path, bytes);
    let err = persist::recover_dir(
        Box::new(staged.clone()),
        &dir,
        &topo,
        RecoveryPolicy::RepairTail,
        checkpoint_cfg(25, 3),
    );
    assert!(
        matches!(
            err,
            Err(PersistError::Corrupt(_) | PersistError::Mismatch(_))
        ),
        "torn middle segment must not silently recover"
    );
}

/// Regression (ISSUE 21 satellite): a checkpoint directory that already
/// holds an earlier run's artifacts is refused. Starting a second history
/// beside the first used to interleave the two: retention deleted the *new*
/// run's snapshots (they sort below the old ones) and recovery silently
/// returned the older run.
#[test]
fn starting_in_a_used_checkpoint_dir_is_refused() {
    let mut rng = StdRng::seed_from_u64(0xc4fc);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xc4fc_0009, &topo, 60);
    let backend = FaultyBackend::new();
    let dir = p("/vd/reuse");

    let mut first = in_dir(build(&topo, 2), &backend, &dir, checkpoint_cfg(8, 2));
    for chunk in trace.chunks(8) {
        assert_eq!(first.apply(chunk).1, None);
    }
    first.close().unwrap();
    let first_digest = state_digest(first.net());
    let before = dir_artifacts(&backend, &dir);

    let err = checkpointed(&build(&topo, 2), &backend, &dir, checkpoint_cfg(8, 2))
        .err()
        .expect("a used checkpoint dir must be refused");
    match &err {
        PersistError::Mismatch(msg) => assert!(msg.contains("/vd/reuse"), "{msg}"),
        other => panic!("expected a Mismatch naming the directory, got: {other}"),
    }
    // The refusal wrote nothing, and the first run still recovers whole.
    assert_eq!(dir_artifacts(&backend, &dir), before);
    let (recovered, _journal, report) = persist::recover_dir(
        Box::new(backend.clone()),
        &dir,
        &topo,
        RecoveryPolicy::Strict,
        checkpoint_cfg(8, 2),
    )
    .unwrap();
    assert_eq!(report.ops_incorporated, 60);
    assert_eq!(state_digest(&recovered), first_digest);

    // A directory holding only a stray segment (no snapshot to recover
    // from) is just as used.
    let stray = FaultyBackend::new();
    stray.plant(&p("/vd/stray/log-000000000000.dnlog"), b"DNLG\x03".to_vec());
    let err = checkpointed(
        &build(&topo, 2),
        &stray,
        &p("/vd/stray"),
        checkpoint_cfg(8, 2),
    );
    assert!(matches!(err, Err(PersistError::Mismatch(_))));
}

/// Regression (ISSUE 21 satellite): time-travel whose replay crosses a
/// non-final segment cut short at a record boundary (so it still parses
/// under `Strict`) is a clean `Mismatch` — the answer `recover_dir` gives
/// for the same directory. It used to panic: the replay position fell
/// behind the next segment's start and the skip count underflowed.
#[test]
fn time_travel_across_a_cut_non_final_segment_is_a_clean_mismatch() {
    let mut rng = StdRng::seed_from_u64(0xc4fd);
    let topo = random_topology(&mut rng, 5, true);
    let trace = make_trace(0xc4fd_000a, &topo, 120);
    let backend = FaultyBackend::new();
    let dir = p("/vd/cut");

    let mut session = in_dir(build(&topo, 2), &backend, &dir, checkpoint_cfg(25, 4));
    for chunk in trace.chunks(8) {
        assert_eq!(session.apply(chunk).1, None);
    }
    session.close().unwrap();

    // Keep the first 10 of log-50's 25 records: ops 50..60.
    let seg_path = p("/vd/cut/log-000000000050.dnlog");
    let keep = record_boundaries(&trace[50..75])[10];
    let seg = backend.surviving(&seg_path).unwrap();
    backend.plant(&seg_path, seg[..keep as usize].to_vec());

    // Op 70 restores snap-56 and needs log-50's records 56..70.
    let err = persist::violations_at_dir(
        &mut backend.clone(),
        &dir,
        &topo,
        70,
        RecoveryPolicy::Strict,
    );
    assert!(
        matches!(err, Err(PersistError::Mismatch(_))),
        "cut middle segment must be a clean mismatch"
    );
    // Points the cut segment does not sit under still answer.
    let mut oracle = build(&topo, 2);
    for op in &trace[..110] {
        oracle.checker_mut().try_apply(op).unwrap();
    }
    let got = persist::violations_at_dir(
        &mut backend.clone(),
        &dir,
        &topo,
        110,
        RecoveryPolicy::Strict,
    )
    .unwrap();
    assert_eq!(got, oracle.checker().active_violations().unwrap());
}

/// Satellite (ISSUE 21): there is one write path. The same op stream, in
/// windows of 1 / 8 / 128 with a mid-stream op the engine rejects, goes
/// through a flat journal and through a checkpointing one whose cadence
/// divides none of the larger windows; the segments' records, concatenated,
/// are the flat log's records byte for byte, both hold exactly the applied
/// prefix, and recovery from either layout lands on the same state.
#[test]
fn flat_and_checkpointing_journals_write_the_same_records() {
    let mut rng = StdRng::seed_from_u64(0x10c5);
    let topo = random_topology(&mut rng, 5, true);
    let mut trace = make_trace(0x10c5_000b, &topo, 300);
    trace.insert(137, Op::Remove(RuleId(u64::MAX))); // unknown rule: rejected
    let log_path = p("/vd/one/flat.dnlog");
    let snap_path = p("/vd/one/flat.dnsnap");
    let dir = p("/vd/one/ckpt");

    for window in [1usize, 8, 128] {
        let backend = FaultyBackend::new();
        Snapshot::of_net(&build(&topo, 2), 0)
            .write_to_backend(&mut backend.clone(), &snap_path)
            .unwrap();
        let mut flat_log = flat(
            build(&topo, 2),
            &backend,
            &log_path,
            Durability::FsyncPerBatch,
        );
        let mut rotated = in_dir(
            build(&topo, 2),
            &backend,
            &dir,
            checkpoint_cfg(25, usize::MAX),
        );
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
        let logged = read_log_with(&mut backend.clone(), &log_path, RecoveryPolicy::Strict)
            .unwrap()
            .ops;
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
        let (from_dir, _journal, report) = persist::recover_dir(
            Box::new(backend.clone()),
            &dir,
            &topo,
            RecoveryPolicy::Strict,
            checkpoint_cfg(25, usize::MAX),
        )
        .unwrap();
        assert_eq!(report.ops_incorporated, applied.len() as u64);
        assert_eq!(state_digest(&from_dir), live_digest, "window {window}");
    }

    // Two I/O failures in a row — a short append, then (the retry having
    // healed the file) a failed fsync — surface the first: the second is
    // usually cascade and must not displace the root cause.
    let backend = FaultyBackend::new();
    let mut session = flat(
        build(&topo, 2),
        &backend,
        &log_path,
        Durability::FsyncPerBatch,
    );
    backend.inject(FaultPlan {
        fail_append_at_byte: Some(backend.bytes_appended() + 7),
        ..Default::default()
    });
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
    let logged = read_log_with(&mut backend.clone(), &log_path, RecoveryPolicy::Strict)
        .unwrap()
        .ops;
    assert_eq!(logged, trace[..16].to_vec());
}

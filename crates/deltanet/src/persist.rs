//! Snapshot + delta-log persistence with time-travel replay.
//!
//! A long-lived deployment of the engine needs to survive restarts and to
//! answer "what did the network look like after operation *n*?" without
//! re-ingesting the full update history. This module provides both on top
//! of two artifacts:
//!
//! * a **snapshot** ([`Snapshot`]): a compact, versioned, checksummed
//!   record of the engine's *rule set* — its configuration, the sorted
//!   rule registry, whether it was monitored and its shard count — for a
//!   single [`DeltaNet`] or a [`ShardedDeltaNet`], restored as a
//!   [`PersistNet`] — that enum, not a third engine. Everything else an
//!   engine holds (atoms, owners, labels, the §3.2.2 books, the monitor's
//!   violations) is a function of its rules, so a snapshot stores none of
//!   it;
//! * a **delta log** ([`DeltaLog`]): an append-only record of the update
//!   operations applied *after* some snapshot, written by a [`Journal`]
//!   mounted beside the engine in a [`crate::Session`] — the one way
//!   durability is mounted and the one caller of [`Journal::record`]. The
//!   log is write-behind — an operation is recorded only once the engine
//!   accepted it — so the log's contents are exactly the applied ops even
//!   when a batch fails midway.
//!
//! Restore ([`Snapshot::restore`]) rebuilds a fresh engine of the
//! snapshot's shape and applies the registry, in id order, through the
//! engine's own validated write path ([`Checker::apply_window`], with the
//! per-update check off), then attaches a monitor with one full scan if the
//! snapshot was monitored. A rule the engine refuses is a
//! [`PersistError::Corrupt`] naming it, so a corrupt snapshot that passes
//! its checksum fails the way a bad op fails, never as a panic or a wrong
//! answer. The restored engine equals, bit for bit, an engine built fresh
//! from the same rules in id order; against the engine the snapshot was
//! taken of it agrees on every rule, every link's packets and every active
//! violation ([`state_digest`]) — its atoms differ only by the bounds of
//! removed rules the live engine had not compacted yet.
//!
//! Recovery ([`recover`], [`recover_dir`]) is then "load nearest snapshot,
//! replay the log tail"; time-travel ([`violations_at`],
//! [`violations_at_dir`]) replays forward from the nearest snapshot with
//! the violation monitor enabled and reads the active set at the requested
//! operation index. All four run on one segment-replay kernel: a snapshot
//! + flat log is a one-segment checkpoint directory.
//!
//! The kernel replays each log slice in windows through the engine's
//! [`Checker::apply_window`], the write path a live [`crate::Session`]
//! drives: a sharded engine recovers through the same validate → route →
//! merge path that applied the ops.
//!
//! Older artifacts (snapshot formats 1 and 3) still load: their decoders
//! read the configuration and the registry and skip the arena sections
//! that followed, which the trailer checksum already covered. A sharded
//! one must have been split evenly, as [`ShardedDeltaNet::new`] splits.
//!
//! The container is deliberately dependency-free: LEB128 varints and an
//! FNV-1a 64 trailer checksum.
//!
//! ## Crash consistency
//!
//! Every byte this module puts on stable storage goes through the
//! [`StorageBackend`] trait ([`FsBackend`] in production, the fault-
//! injecting [`crate::fault::FaultyBackend`] under test), and the write
//! path is crash-consistent:
//!
//! * snapshots are written **atomically** — temp file, fsync, rename,
//!   directory fsync — so a crash mid-snapshot never clobbers the previous
//!   good snapshot;
//! * every delta-log record is **framed** with a length prefix and its own
//!   FNV-1a checksum, so a torn tail is detectable to the byte;
//! * the log's flush behaviour is a configurable [`Durability`] ladder
//!   (`Buffered` / `FlushPerBatch` / `FsyncPerBatch`);
//! * the read path is self-healing: [`RecoveryPolicy::RepairTail`] keeps
//!   the longest valid checksummed prefix, truncates the torn tail, and
//!   reports exactly how many ops were salvaged — recovery always lands on
//!   the rules of some applied prefix, never invents ops;
//! * a checkpointing journal ([`Journal::checkpointed`]) bounds recovery
//!   time by auto-snapshotting every N ops with log rotation and retention.

use crate::engine::{DeltaNet, DeltaNetConfig};
use crate::fault::{FsBackend, StorageBackend};
use crate::monitor::{MonitorTransitions, ViolationKey, ViolationMonitor};
use crate::shard::{even_boundaries, ShardedDeltaNet};
use netmodel::checker::{Checker, InvariantViolation};
use netmodel::header::{SecondaryMatch, MAX_SECONDARY_FIELDS, MAX_SECONDARY_WIDTH};
use netmodel::interval::{normalize, Interval};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Action, Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic bytes opening a snapshot file.
const SNAPSHOT_MAGIC: &[u8; 4] = b"DNSP";
/// Magic bytes opening a delta-log file.
const LOG_MAGIC: &[u8; 4] = b"DNLG";
/// Format version of the snapshot container. Version 4 holds the rule set
/// and nothing derived from it; version 3 added the header space (secondary
/// field widths) and per-rule secondary matches. Versions 1 and 3 still
/// load through their registries (version 1 as single-field engines).
const FORMAT_VERSION: u8 = 4;
/// Oldest snapshot format this build still reads.
const MIN_FORMAT_VERSION: u8 = 1;
/// Format version of the delta-log container. Version 2 introduced
/// per-record length + checksum framing (version 1 logs carried bare op
/// records and cannot distinguish a torn tail from corruption); version 3
/// added per-rule secondary matches. Version 2 logs still replay as
/// single-field streams.
const LOG_FORMAT_VERSION: u8 = 3;
/// Oldest delta-log format this build still reads.
const MIN_LOG_FORMAT_VERSION: u8 = 2;
/// Bytes of the delta-log header (magic + version).
const LOG_HEADER_LEN: u64 = 5;

/// How eagerly [`DeltaLog::flush`] pushes buffered records toward stable
/// storage — the classic write-ahead-log durability ladder. Each level
/// bounds what a crash can lose; [`RecoveryPolicy::RepairTail`] guarantees
/// that whatever survives recovers to a clean applied prefix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// `flush()` is a no-op: records stay in the userspace buffer until an
    /// explicit [`DeltaLog::sync`] (or drop). Fastest; a crash loses every
    /// op since the last sync.
    Buffered,
    /// `flush()` writes the buffer to the file but does not fsync (the
    /// pre-durability behaviour, and the default). A process crash loses
    /// nothing; an OS crash or power failure can lose ops still in the
    /// page cache.
    #[default]
    FlushPerBatch,
    /// `flush()` writes the buffer and fsyncs. An acknowledged batch
    /// survives OS crashes and power failures.
    FsyncPerBatch,
}

impl Durability {
    /// The stable lowercase name (`buffered` / `flush` / `fsync`), used by
    /// the CLI's options and reports.
    pub fn name(self) -> &'static str {
        match self {
            Durability::Buffered => "buffered",
            Durability::FlushPerBatch => "flush",
            Durability::FsyncPerBatch => "fsync",
        }
    }
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Durability, String> {
        match s {
            "buffered" => Ok(Durability::Buffered),
            "flush" => Ok(Durability::FlushPerBatch),
            "fsync" => Ok(Durability::FsyncPerBatch),
            other => Err(format!(
                "unknown durability '{other}' (expected buffered, flush, or fsync)"
            )),
        }
    }
}

/// How log readers treat a torn or corrupt record tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Any framing, checksum, or decode failure is a fatal
    /// [`PersistError::Corrupt`] naming the byte offset of the torn record.
    #[default]
    Strict,
    /// Keep the longest valid checksummed prefix, truncate the torn tail
    /// off the file, and report what was dropped. Never panics, never
    /// invents ops — the result is always some exact applied prefix.
    RepairTail,
}

/// A torn (or corrupt) log tail detected — and under
/// [`RecoveryPolicy::RepairTail`], removed — by a log read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first torn record — the file length after repair.
    pub offset: u64,
    /// Bytes dropped from the tail.
    pub bytes_dropped: u64,
}

/// The outcome of reading a delta log with an explicit policy.
pub struct LogReadReport {
    /// The decoded operations of the valid prefix.
    pub ops: Vec<Op>,
    /// The torn tail, if one was found (always `None` under
    /// [`RecoveryPolicy::Strict`], which errors instead).
    pub torn: Option<TornTail>,
}

/// What went wrong while saving, loading, or recovering persistent state.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The artifact's bytes are not a well-formed snapshot or log:
    /// truncation, a checksum mismatch, a field out of range, or a
    /// snapshot rule the engine refuses.
    Corrupt(String),
    /// The artifact is well-formed but inconsistent with its surroundings:
    /// wrong topology, a log shorter than the snapshot's operation count,
    /// or a logged op the engine refuses on replay.
    Mismatch(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            PersistError::Mismatch(msg) => write!(f, "inconsistent artifact: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Binary primitives: LEB128 varints, FNV-1a 64.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a byte slice — the trailer checksum of both containers.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn varint_wide(&mut self, mut v: u128) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends the FNV-1a checksum of everything written so far.
    fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn corrupt<T>(&self, what: &str) -> Result<T, PersistError> {
        Err(PersistError::Corrupt(format!(
            "{what} at byte {}",
            self.pos
        )))
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.corrupt("unexpected end of data"),
        }
    }

    fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.corrupt("invalid boolean"),
        }
    }

    fn varint_wide(&mut self) -> Result<u128, PersistError> {
        let mut v: u128 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 128 {
                return self.corrupt("varint overflow");
            }
            let byte = self.u8()?;
            v |= u128::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!()
    }

    fn varint(&mut self) -> Result<u64, PersistError> {
        let v = self.varint_wide()?;
        u64::try_from(v).or_else(|_| self.corrupt("varint exceeds 64 bits"))
    }

    /// A varint that must fit in `usize` and stay under a sanity cap, so a
    /// corrupted length prefix fails cleanly instead of attempting a huge
    /// allocation.
    fn len(&mut self) -> Result<usize, PersistError> {
        const MAX_LEN: u64 = 1 << 32;
        let v = self.varint()?;
        if v > MAX_LEN {
            return self.corrupt("implausible length prefix");
        }
        Ok(v as usize)
    }

    /// A varint that must fit in 32 bits — ids, priorities, counts; `what`
    /// is the error text when it does not.
    fn id32(&mut self, what: &str) -> Result<u32, PersistError> {
        u32::try_from(self.varint()?).or_else(|_| self.corrupt(what))
    }

    fn node_id(&mut self) -> Result<NodeId, PersistError> {
        self.id32("node id exceeds 32 bits").map(NodeId)
    }

    fn link_id(&mut self) -> Result<LinkId, PersistError> {
        self.id32("link id exceeds 32 bits").map(LinkId)
    }

    fn finish(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return self.corrupt("trailing garbage after snapshot body");
        }
        Ok(())
    }
}

/// Strips and verifies the FNV-1a trailer, returning the body.
fn checked_body<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8], PersistError> {
    let Some(body_len) = bytes.len().checked_sub(8) else {
        return Err(PersistError::Corrupt(format!(
            "{what} shorter than its checksum trailer"
        )));
    };
    let (body, trailer) = bytes.split_at(body_len);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(PersistError::Corrupt(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

/// Atomically replaces `path` with `bytes`: write a temp sibling, fsync it,
/// rename it over `path`, fsync the directory. A crash at any point leaves
/// either the complete old file or the complete new one.
fn write_atomic(
    backend: &mut dyn StorageBackend,
    path: &Path,
    bytes: &[u8],
) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    backend.create(&tmp)?;
    backend.append(&tmp, bytes)?;
    backend.sync_file(&tmp)?;
    backend.rename(&tmp, path)?;
    backend.sync_parent_dir(path)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// The most shards a snapshot may declare. Restore builds every shard
/// before it applies a rule, so a corrupt count must not be trusted to
/// size that loop.
const MAX_SHARDS: usize = 1024;

/// A decoded snapshot: the rule set of an engine at some point in the
/// update stream, captured by [`Snapshot::of_net`] and turned back into a
/// live engine by [`Snapshot::restore`].
pub struct Snapshot {
    node_count: usize,
    link_count: usize,
    config: DeltaNetConfig,
    ops_applied: u64,
    /// The installed rules, in ascending id order.
    registry: Vec<Rule>,
    /// Whether the engine maintained a violation monitor.
    monitored: bool,
    /// `0` for a stand-alone engine, else the shard count of an evenly
    /// split [`ShardedDeltaNet`].
    shards: usize,
}

impl Snapshot {
    /// Captures the rule set of whichever engine a [`PersistNet`] wraps.
    /// `ops_applied` is the number of update operations applied so far —
    /// the log position this snapshot corresponds to.
    pub fn of_net(net: &PersistNet, ops_applied: u64) -> Snapshot {
        let (engine, shards) = match net {
            PersistNet::Single(n) => (n.as_ref(), 0),
            PersistNet::Sharded(n) => (&n.shards()[0], n.shard_count()),
        };
        Snapshot {
            node_count: engine.topology().node_count(),
            link_count: engine.topology().link_count(),
            config: engine.config(),
            ops_applied,
            registry: sorted_rules(net),
            monitored: engine.monitor().is_some(),
            shards,
        }
    }

    /// The number of update operations that had been applied when this
    /// snapshot was taken — its position in the delta log.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// The engine configuration stored in the snapshot.
    pub fn config(&self) -> DeltaNetConfig {
        self.config
    }

    /// Number of shards of the snapshotted engine (1 for a stand-alone
    /// engine).
    pub fn shard_count(&self) -> usize {
        self.shards.max(1)
    }

    /// Serializes the snapshot: versioned header, varint-encoded body,
    /// FNV-1a 64 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(SNAPSHOT_MAGIC);
        w.u8(FORMAT_VERSION);
        w.varint(self.node_count as u64);
        w.varint(self.link_count as u64);
        encode_config(&mut w, &self.config);
        w.varint(self.ops_applied);
        w.varint(self.registry.len() as u64);
        for rule in &self.registry {
            encode_rule(&mut w, rule);
        }
        w.bool(self.monitored);
        w.varint(self.shards as u64);
        w.seal()
    }

    /// Deserializes a snapshot, verifying the magic, version, trailer
    /// checksum, configuration and the registry's id order. Format 1 and 3
    /// snapshots decode too: after their registry come a layout tag (and,
    /// sharded, the shard boundaries, which must be the even split) and
    /// the engine sections, which are skipped. They restore monitored iff
    /// their configuration enables monitoring.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, PersistError> {
        let body = checked_body(bytes, "snapshot")?;
        let mut r = Reader::new(body);
        let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if &magic != SNAPSHOT_MAGIC {
            return r.corrupt("not a snapshot file (bad magic)");
        }
        let version = r.u8()?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) || version == 2 {
            return Err(PersistError::Corrupt(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let has_sec = version >= 3;
        let node_count = r.len()?;
        let link_count = r.len()?;
        let config = decode_config(&mut r, has_sec)?;
        let ops_applied = r.varint()?;
        let rule_count = r.len()?;
        let mut registry: Vec<Rule> = Vec::with_capacity(rule_count.min(1024));
        for _ in 0..rule_count {
            let rule = decode_rule(&mut r, Some(config.field_width), has_sec)?;
            if registry.last().is_some_and(|last| last.id >= rule.id) {
                return r.corrupt("registry ids not strictly increasing");
            }
            registry.push(rule);
        }
        let (monitored, shards) = if version >= 4 {
            let monitored = r.bool()?;
            let shards = r.len()?;
            r.finish()?;
            (monitored, shards)
        } else {
            let shards = match r.u8()? {
                0 => 0,
                1 => {
                    let shards = r.len()?;
                    let mut boundaries = Vec::new();
                    for _ in 0..=shards {
                        boundaries.push(r.varint_wide()?);
                    }
                    if shards == 0 || shards > MAX_SHARDS {
                        return r.corrupt("implausible shard count");
                    }
                    if boundaries != even_boundaries(config.field_width, shards) {
                        return r.corrupt("shard boundaries are not the even split");
                    }
                    shards
                }
                _ => return r.corrupt("invalid engine-kind tag"),
            };
            (config.monitor_violations, shards)
        };
        if shards > MAX_SHARDS || shards as u128 > 1u128 << config.field_width {
            return r.corrupt("implausible shard count");
        }
        Ok(Snapshot {
            node_count,
            link_count,
            config,
            ops_applied,
            registry,
            monitored,
            shards,
        })
    }

    /// Writes the serialized snapshot to `path` **atomically**: the bytes
    /// go to a temp sibling which is fsynced, renamed over `path`, and made
    /// durable with a directory fsync — a crash at any point leaves either
    /// the old snapshot or the new one, never a torn mix.
    pub fn write_to(&self, path: &Path) -> Result<(), PersistError> {
        self.write_to_backend(&mut FsBackend, path)
    }

    /// [`Snapshot::write_to`] through an explicit [`StorageBackend`].
    pub fn write_to_backend(
        &self,
        backend: &mut dyn StorageBackend,
        path: &Path,
    ) -> Result<(), PersistError> {
        write_atomic(backend, path, &self.to_bytes())
    }

    /// Reads and deserializes a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<Snapshot, PersistError> {
        Snapshot::read_from_backend(&mut FsBackend, path)
    }

    /// [`Snapshot::read_from`] through an explicit [`StorageBackend`].
    pub fn read_from_backend(
        backend: &mut dyn StorageBackend,
        path: &Path,
    ) -> Result<Snapshot, PersistError> {
        Snapshot::from_bytes(&backend.read(path)?)
    }

    /// Rebuilds a live engine over the given topology (snapshots store a
    /// topology fingerprint, not the topology itself): a fresh engine of
    /// the snapshot's shape takes the registry in id order through
    /// [`Checker::apply_window`] with the per-update check and the monitor
    /// off; then the snapshot's configuration is set and, if it was
    /// monitored, a monitor attached with one full scan. A rule the engine
    /// refuses is a [`PersistError::Corrupt`] naming it.
    pub fn restore(self, topology: &Topology) -> Result<PersistNet, PersistError> {
        let quiet = DeltaNetConfig {
            check_loops_per_update: false,
            monitor_violations: false,
            ..self.config
        };
        let mut net = self.engine(topology, quiet)?;
        let inserts: Vec<Op> = self.registry.iter().map(|&rule| Op::Insert(rule)).collect();
        for (i, window) in inserts.chunks(REPLAY_WINDOW).enumerate() {
            if let (_, Some(failure)) = net.checker_mut().apply_window(window) {
                let id = self.registry[i * REPLAY_WINDOW + failure.index].id;
                return Err(PersistError::Corrupt(format!(
                    "snapshot registry rule {id:?} refused: {}",
                    failure.error
                )));
            }
        }
        match &mut net {
            PersistNet::Single(n) => n.set_config(self.config),
            PersistNet::Sharded(n) => n.set_config(self.config),
        }
        if self.monitored {
            net.enable_monitor();
        }
        Ok(net)
    }

    /// An *empty* engine of the same shape as the snapshotted one — same
    /// configuration, same shard count — used by [`violations_at`] when
    /// the requested point in time lies before the snapshot.
    pub fn fresh_like(&self, topology: &Topology) -> Result<PersistNet, PersistError> {
        self.engine(topology, self.config)
    }

    /// An empty engine of the snapshot's shape over `topology`, with
    /// `config`.
    fn engine(
        &self,
        topology: &Topology,
        config: DeltaNetConfig,
    ) -> Result<PersistNet, PersistError> {
        if topology.node_count() != self.node_count || topology.link_count() != self.link_count {
            return Err(PersistError::Mismatch(format!(
                "snapshot was taken over a {}-node / {}-link topology, \
                 restore target has {} nodes / {} links",
                self.node_count,
                self.link_count,
                topology.node_count(),
                topology.link_count()
            )));
        }
        let topology = topology.clone();
        Ok(match self.shards {
            0 => PersistNet::Single(Box::new(DeltaNet::new(topology, config))),
            n => PersistNet::Sharded(Box::new(ShardedDeltaNet::new(topology, config, n))),
        })
    }
}

/// The configuration as a snapshot and [`state_digest`] write it.
fn encode_config(w: &mut Writer, config: &DeltaNetConfig) {
    w.u8(config.field_width);
    w.bool(config.check_loops_per_update);
    w.bool(config.monitor_violations);
    match config.compact_threshold {
        Some(t) => {
            w.bool(true);
            w.varint(t as u64);
        }
        None => w.bool(false),
    }
    let secondary = config.secondary_count();
    w.u8(secondary as u8);
    for &width in &config.sec_widths[..secondary] {
        w.u8(width);
    }
}

/// Decodes [`encode_config`]'s record, validating every width; `has_sec`
/// is false for format 1, which predates the secondary widths.
fn decode_config(r: &mut Reader<'_>, has_sec: bool) -> Result<DeltaNetConfig, PersistError> {
    let field_width = r.u8()?;
    if field_width == 0 || field_width > 127 {
        return r.corrupt("field width outside 1..=127");
    }
    let check_loops_per_update = r.bool()?;
    let monitor_violations = r.bool()?;
    let compact_threshold = if r.bool()? { Some(r.len()?) } else { None };
    let mut sec_widths = [0u8; MAX_SECONDARY_FIELDS];
    if has_sec {
        let secondary = usize::from(r.u8()?);
        if secondary > sec_widths.len() {
            return r.corrupt("snapshot declares too many secondary fields");
        }
        for slot in &mut sec_widths[..secondary] {
            let width = r.u8()?;
            if width == 0 || width > MAX_SECONDARY_WIDTH {
                return r.corrupt("secondary field width outside the supported range");
            }
            *slot = width;
        }
    }
    Ok(DeltaNetConfig {
        field_width,
        check_loops_per_update,
        compact_threshold,
        monitor_violations,
        sec_widths,
    })
}

/// The installed rules of `net`, in ascending id order.
fn sorted_rules(net: &PersistNet) -> Vec<Rule> {
    let mut rules: Vec<Rule> = match net {
        PersistNet::Single(n) => n.rules().copied().collect(),
        PersistNet::Sharded(n) => n.rules().copied().collect(),
    };
    rules.sort_unstable_by_key(|rule| rule.id);
    rules
}

fn encode_rule(w: &mut Writer, rule: &Rule) {
    w.varint(rule.id.0);
    w.varint_wide(rule.prefix.value());
    w.u8(rule.prefix.len());
    w.u8(rule.prefix.width());
    w.varint(u64::from(rule.priority));
    w.varint(u64::from(rule.source.0));
    w.varint(u64::from(rule.link.0));
    w.u8(match rule.action {
        Action::Forward => 0,
        Action::Drop => 1,
    });
    w.u8(rule.sec.count() as u8);
    for interval in rule.sec.intervals() {
        w.varint_wide(interval.lo());
        w.varint_wide(interval.hi());
    }
}

/// Decodes one rule record; when `field_width` is known (snapshot registry)
/// the record's width must match it, otherwise (delta-log records) any valid
/// width is accepted. `has_sec` is true for format-v3 containers, whose rule
/// records carry a trailing secondary-match block; older records decode as
/// primary-only rules.
fn decode_rule(
    r: &mut Reader<'_>,
    field_width: Option<u8>,
    has_sec: bool,
) -> Result<Rule, PersistError> {
    let id = RuleId(r.varint()?);
    let value = r.varint_wide()?;
    let len = r.u8()?;
    let width = r.u8()?;
    if width == 0 || width > 127 || len > width || field_width.is_some_and(|w| w != width) {
        return r.corrupt("rule prefix outside the configured field");
    }
    let prefix = IpPrefix::new(value, len, width);
    let priority = r.id32("priority exceeds 32 bits")?;
    let source = r.node_id()?;
    let link = r.link_id()?;
    let action = match r.u8()? {
        0 => Action::Forward,
        1 => Action::Drop,
        _ => return r.corrupt("invalid rule action"),
    };
    let sec = if has_sec {
        let count = usize::from(r.u8()?);
        if count > MAX_SECONDARY_FIELDS {
            return r.corrupt("rule constrains too many secondary fields");
        }
        let mut intervals = Vec::with_capacity(count);
        for _ in 0..count {
            let lo = r.varint_wide()?;
            let hi = r.varint_wide()?;
            if lo >= hi {
                return r.corrupt("inverted secondary interval");
            }
            if hi > 1 << MAX_SECONDARY_WIDTH {
                return r.corrupt("secondary bound exceeds the field range");
            }
            intervals.push(Interval::new(lo, hi));
        }
        if intervals.is_empty() {
            SecondaryMatch::default()
        } else {
            SecondaryMatch::new(&intervals)
        }
    } else {
        SecondaryMatch::default()
    };
    Ok(Rule {
        id,
        prefix,
        priority,
        source,
        link,
        action,
        sec,
    })
}

// ---------------------------------------------------------------------------
// PersistNet: a restored engine of either kind
// ---------------------------------------------------------------------------

/// What a snapshot restores to (and is captured from): a stand-alone
/// [`DeltaNet`] or a [`ShardedDeltaNet`]. It is not a third engine — the
/// [`Checker`] surface is the variant's own, reached through
/// [`PersistNet::checker`] / [`PersistNet::checker_mut`]; the inherent
/// methods are only those a caller needs without knowing the variant.
pub enum PersistNet {
    /// A stand-alone engine.
    Single(Box<DeltaNet>),
    /// A sharded engine.
    Sharded(Box<ShardedDeltaNet>),
}

impl PersistNet {
    /// The variant's engine as a [`Checker`].
    pub fn checker(&self) -> &dyn Checker {
        match self {
            PersistNet::Single(n) => n.as_ref(),
            PersistNet::Sharded(n) => n.as_ref(),
        }
    }

    /// The variant's engine as a mutable [`Checker`].
    pub fn checker_mut(&mut self) -> &mut dyn Checker {
        match self {
            PersistNet::Single(n) => n.as_mut(),
            PersistNet::Sharded(n) => n.as_mut(),
        }
    }

    /// Attaches a violation monitor (idempotent in effect: an existing
    /// monitor is re-seeded from the current plane).
    pub fn enable_monitor(&mut self) {
        match self {
            PersistNet::Single(n) => {
                n.enable_monitor();
            }
            PersistNet::Sharded(n) => n.enable_monitor(),
        }
    }

    /// The identities of the currently active violations, merged across
    /// shards; `None` when monitoring is off.
    pub fn monitor_keys(&self) -> Option<BTreeSet<ViolationKey>> {
        match self {
            PersistNet::Single(n) => n.monitor().map(|m| m.active_keys().into_iter().collect()),
            PersistNet::Sharded(n) => n.monitor_keys(),
        }
    }

    /// The events of the last window that applied an op (on shards,
    /// [`ShardedDeltaNet::last_events`]); `None` when monitoring is off.
    pub fn last_events(&self) -> Option<&MonitorTransitions> {
        match self {
            PersistNet::Single(n) => n.monitor().map(ViolationMonitor::last_events),
            PersistNet::Sharded(n) => n.last_events(),
        }
    }

    /// Whether the maintained violation state equals a fresh full rescan
    /// (`replay --monitor`'s and `serve --audit`'s audit); `None` unmonitored.
    pub fn monitor_matches_rescan(&self) -> Option<bool> {
        let active = self.checker().active_violations()?;
        let mut rescan = self.check_all_loops();
        rescan.extend(self.check_all_blackholes());
        Some(active == rescan)
    }

    /// Full-plane forwarding-loop scan.
    pub fn check_all_loops(&self) -> Vec<InvariantViolation> {
        match self {
            PersistNet::Single(n) => n.check_all_loops(),
            PersistNet::Sharded(n) => n.check_all_loops(),
        }
    }

    /// Full-plane blackhole scan.
    pub fn check_all_blackholes(&self) -> Vec<InvariantViolation> {
        match self {
            PersistNet::Single(n) => n.check_all_blackholes(),
            PersistNet::Sharded(n) => n.check_all_blackholes(),
        }
    }

    /// The sharded engine, if this is one.
    pub fn as_sharded(&self) -> Option<&ShardedDeltaNet> {
        match self {
            PersistNet::Single(_) => None,
            PersistNet::Sharded(n) => Some(n),
        }
    }

    /// The engine configuration (shared by every shard in the sharded case).
    pub fn config(&self) -> DeltaNetConfig {
        match self {
            PersistNet::Single(n) => n.config(),
            PersistNet::Sharded(n) => n.config(),
        }
    }
}

// ---------------------------------------------------------------------------
// Delta log
// ---------------------------------------------------------------------------

/// An append-only log of update operations, buffered in memory and flushed
/// per batch at a configurable [`Durability`]. Each record is one [`Op`],
/// framed as `varint(payload_len) ++ payload ++ u32-LE checksum` so a torn
/// write is detectable (and repairable) to the byte; the container opens
/// with a magic + version header and carries no trailer — the log grows
/// forever, so readers validate per-record framing instead.
pub struct DeltaLog {
    backend: Box<dyn StorageBackend>,
    path: PathBuf,
    buf: Vec<u8>,
    durability: Durability,
    /// Bytes known to be fully and correctly in the file: the truncation
    /// target if a flush fails partway (see [`DeltaLog::flush`]).
    committed_len: u64,
    /// A previous flush failed after possibly landing a partial record in
    /// the file; the next flush first truncates back to `committed_len`
    /// before re-appending, so a transient I/O error cannot leave duplicate
    /// or interleaved partial records mid-file.
    wounded: bool,
}

impl DeltaLog {
    /// Creates (truncating) a log file at `path` through `backend` and
    /// writes the header.
    pub fn create_with(
        mut backend: Box<dyn StorageBackend>,
        path: &Path,
        durability: Durability,
    ) -> Result<DeltaLog, PersistError> {
        backend.create(path)?;
        let mut header = Vec::with_capacity(LOG_HEADER_LEN as usize);
        header.extend_from_slice(LOG_MAGIC);
        header.push(LOG_FORMAT_VERSION);
        backend.append(path, &header)?;
        Ok(DeltaLog {
            backend,
            path: path.to_path_buf(),
            buf: Vec::new(),
            durability,
            committed_len: LOG_HEADER_LEN,
            wounded: false,
        })
    }

    /// Reopens an existing log for appending (the caller has just read and,
    /// if need be, repaired it); the current file length becomes the
    /// committed baseline.
    pub fn resume_with(
        mut backend: Box<dyn StorageBackend>,
        path: &Path,
        durability: Durability,
    ) -> Result<DeltaLog, PersistError> {
        let committed_len = backend.read(path)?.len() as u64;
        if committed_len < LOG_HEADER_LEN {
            return Err(PersistError::Corrupt(format!(
                "cannot resume log {}: shorter than its header",
                path.display()
            )));
        }
        Ok(DeltaLog {
            backend,
            path: path.to_path_buf(),
            buf: Vec::new(),
            durability,
            committed_len,
            wounded: false,
        })
    }

    /// Appends one operation to the in-memory buffer (no I/O until
    /// [`DeltaLog::flush`] / [`DeltaLog::sync`]).
    pub fn append(&mut self, op: &Op) {
        self.buf.extend_from_slice(&encode_record(op));
    }

    /// Writes the buffered records to the file, honouring a wounded
    /// truncate-then-retry if a previous write failed partway.
    fn write_out(&mut self) -> Result<(), PersistError> {
        if self.wounded {
            self.backend.truncate(&self.path, self.committed_len)?;
            self.wounded = false;
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.backend.append(&self.path, &self.buf) {
            // The append may have landed a partial record; the buffer is
            // kept so a retry can truncate back and re-append all of it.
            self.wounded = true;
            return Err(PersistError::Io(e));
        }
        self.committed_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Pushes buffered records toward stable storage as far as the
    /// configured [`Durability`] asks: not at all (`Buffered`), into the
    /// file (`FlushPerBatch`), or through an fsync (`FsyncPerBatch`) —
    /// fsync failures surface as [`PersistError::Io`].
    pub fn flush(&mut self) -> Result<(), PersistError> {
        match self.durability {
            Durability::Buffered => Ok(()),
            Durability::FlushPerBatch => self.write_out(),
            Durability::FsyncPerBatch => self.sync(),
        }
    }

    /// Writes buffered records and fsyncs, regardless of the configured
    /// durability — the "make it stick now" call used before snapshots and
    /// on shutdown.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.write_out()?;
        self.backend.sync_file(&self.path)?;
        Ok(())
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Encodes one operation as a framed log record:
/// `varint(payload_len) ++ payload ++ u32-LE fnv1a(payload)`. Public within
/// the crate's test surface so crash suites can compute record boundaries.
pub fn encode_record(op: &Op) -> Vec<u8> {
    let mut payload = Writer::default();
    encode_op(&mut payload, op);
    let payload = payload.buf;
    let mut w = Writer::default();
    w.varint(payload.len() as u64);
    w.buf.extend_from_slice(&payload);
    let sum = (fnv1a(&payload) & 0xffff_ffff) as u32;
    w.buf.extend_from_slice(&sum.to_le_bytes());
    w.buf
}

fn encode_op(w: &mut Writer, op: &Op) {
    match op {
        Op::Insert(rule) => {
            w.u8(0);
            encode_rule(w, rule);
        }
        Op::Remove(id) => {
            w.u8(1);
            w.varint(id.0);
        }
    }
}

/// Decodes one framed record payload (tag + body), requiring it to consume
/// the payload exactly.
fn decode_payload(payload: &[u8], has_sec: bool) -> Result<Op, PersistError> {
    let mut r = Reader::new(payload);
    let op = match r.u8()? {
        0 => Op::Insert(decode_rule(&mut r, None, has_sec)?),
        1 => Op::Remove(RuleId(r.varint()?)),
        _ => return r.corrupt("invalid log record tag"),
    };
    if r.pos != payload.len() {
        return r.corrupt("trailing garbage inside log record");
    }
    Ok(op)
}

/// Parses the framed records of a delta-log body (after the header),
/// returning the decoded valid prefix and, if the tail is torn or corrupt,
/// the byte offset where the first bad record starts.
fn parse_records(bytes: &[u8], has_sec: bool) -> (Vec<Op>, Option<u64>) {
    // A single op record is tiny; anything claiming to be huge is a torn
    // or corrupt length prefix, not a real record.
    const MAX_PAYLOAD: u64 = 1 << 16;
    let mut ops = Vec::new();
    let mut pos = LOG_HEADER_LEN as usize;
    while pos < bytes.len() {
        let mut r = Reader { buf: bytes, pos };
        let Ok(payload_len) = r.varint() else {
            return (ops, Some(pos as u64));
        };
        if payload_len > MAX_PAYLOAD {
            return (ops, Some(pos as u64));
        }
        let payload_start = r.pos;
        let payload_end = payload_start + payload_len as usize;
        let Some(payload) = bytes.get(payload_start..payload_end) else {
            return (ops, Some(pos as u64));
        };
        let Some(trailer) = bytes.get(payload_end..payload_end + 4) else {
            return (ops, Some(pos as u64));
        };
        let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        if (fnv1a(payload) & 0xffff_ffff) as u32 != stored {
            return (ops, Some(pos as u64));
        }
        let Ok(op) = decode_payload(payload, has_sec) else {
            // Checksum-valid but undecodable: still never invent an op —
            // drop it and everything after.
            return (ops, Some(pos as u64));
        };
        ops.push(op);
        pos = payload_end + 4;
    }
    (ops, None)
}

/// Reads every operation of a delta log under [`RecoveryPolicy::Strict`]:
/// a log truncated or corrupted mid-record — the typical crash artifact —
/// is reported as a clean [`PersistError::Corrupt`] naming the torn byte
/// offset, not a panic.
pub fn read_log(path: &Path) -> Result<Vec<Op>, PersistError> {
    read_log_with(&mut FsBackend, path, RecoveryPolicy::Strict).map(|report| report.ops)
}

/// Reads a delta log through an explicit backend and recovery policy.
/// Under [`RecoveryPolicy::RepairTail`] a torn or corrupt tail is truncated
/// off the file (the repair is written back through `backend`) and reported
/// in the returned [`LogReadReport`].
pub fn read_log_with(
    backend: &mut dyn StorageBackend,
    path: &Path,
    policy: RecoveryPolicy,
) -> Result<LogReadReport, PersistError> {
    let bytes = backend.read(path)?;
    if (bytes.len() as u64) < LOG_HEADER_LEN {
        // A crash can tear the header write of a freshly rotated segment.
        // A partial header is repairable (the segment holds zero ops);
        // anything that is not a prefix of a valid header is corruption.
        let mut header = Vec::from(&LOG_MAGIC[..]);
        header.push(LOG_FORMAT_VERSION);
        if !header.starts_with(&bytes) {
            return Err(PersistError::Corrupt(format!(
                "{}: not a delta-log file (bad magic)",
                path.display()
            )));
        }
        return match policy {
            RecoveryPolicy::Strict => Err(PersistError::Corrupt(format!(
                "torn delta-log header at byte {} of {}",
                bytes.len(),
                path.display()
            ))),
            RecoveryPolicy::RepairTail => {
                backend.truncate(path, 0)?;
                backend.append(path, &header)?;
                Ok(LogReadReport {
                    ops: Vec::new(),
                    torn: Some(TornTail {
                        offset: 0,
                        bytes_dropped: bytes.len() as u64,
                    }),
                })
            }
        };
    }
    {
        let mut r = Reader::new(&bytes);
        let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if &magic != LOG_MAGIC {
            return r.corrupt("not a delta-log file (bad magic)");
        }
        let version = r.u8()?;
        if !(MIN_LOG_FORMAT_VERSION..=LOG_FORMAT_VERSION).contains(&version) {
            return Err(PersistError::Corrupt(format!(
                "unsupported delta-log version {version}"
            )));
        }
    }
    let version = bytes[LOG_HEADER_LEN as usize - 1];
    let (ops, torn_at) = parse_records(&bytes, version >= 3);
    match torn_at {
        None => Ok(LogReadReport { ops, torn: None }),
        Some(offset) => {
            let bytes_dropped = bytes.len() as u64 - offset;
            match policy {
                RecoveryPolicy::Strict => Err(PersistError::Corrupt(format!(
                    "torn or corrupt log record at byte {offset} of {} \
                     ({bytes_dropped} trailing bytes unusable; {} ops valid)",
                    path.display(),
                    ops.len()
                ))),
                RecoveryPolicy::RepairTail => {
                    backend.truncate(path, offset)?;
                    Ok(LogReadReport {
                        ops,
                        torn: Some(TornTail {
                            offset,
                            bytes_dropped,
                        }),
                    })
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Journal: the durability component mounted beside an engine
// ---------------------------------------------------------------------------

/// Cadence and retention of a checkpointing [`Journal`].
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Rotate the log and take a snapshot every this many applied ops (the
    /// rotation happens at the exact multiple, so a batch's records can
    /// straddle two segments; the snapshot is taken once the batch that
    /// crossed the boundary commits). Clamped to ≥ 1.
    pub every_ops: u64,
    /// Number of snapshots to keep (the newest; log segments older than
    /// the oldest retained snapshot are deleted too). Clamped to ≥ 1.
    pub retain: usize,
    /// Durability of the per-batch log flush (checkpoints always fsync).
    pub durability: Durability,
}

impl Default for CheckpointConfig {
    fn default() -> CheckpointConfig {
        CheckpointConfig {
            every_ops: 1024,
            retain: 2,
            durability: Durability::FsyncPerBatch,
        }
    }
}

fn snap_path(dir: &Path, op: u64) -> PathBuf {
    dir.join(format!("snap-{op:012}.dnsnap"))
}

fn segment_path(dir: &Path, op: u64) -> PathBuf {
    dir.join(format!("log-{op:012}.dnlog"))
}

/// Parses `snap-<op>.dnsnap` / `log-<op>.dnlog` names; anything else is
/// `None` (temp files from interrupted atomic writes are ignored).
fn parse_artifact(path: &Path) -> Option<(bool, u64)> {
    let name = path.file_name()?.to_str()?;
    let (is_snap, rest) = if let Some(rest) = name.strip_prefix("snap-") {
        (true, rest.strip_suffix(".dnsnap")?)
    } else if let Some(rest) = name.strip_prefix("log-") {
        (false, rest.strip_suffix(".dnlog")?)
    } else {
        return None;
    };
    rest.parse().ok().map(|op| (is_snap, op))
}

/// Sorted `(snapshot ops, segment start ops)` present in a checkpoint dir.
fn list_artifacts(
    backend: &mut dyn StorageBackend,
    dir: &Path,
) -> Result<(Vec<u64>, Vec<u64>), PersistError> {
    let mut snaps = Vec::new();
    let mut segments = Vec::new();
    for path in backend.list_dir(dir)? {
        match parse_artifact(&path) {
            Some((true, op)) => snaps.push(op),
            Some((false, op)) => segments.push(op),
            None => {}
        }
    }
    snaps.sort_unstable();
    segments.sort_unstable();
    Ok((snaps, segments))
}

/// The checkpoint directory a [`Journal`] rotates and snapshots into.
struct CheckpointDir {
    backend: Box<dyn StorageBackend>,
    path: PathBuf,
    config: CheckpointConfig,
}

impl CheckpointDir {
    fn new(backend: Box<dyn StorageBackend>, path: &Path, config: CheckpointConfig) -> Self {
        CheckpointDir {
            backend,
            path: path.to_path_buf(),
            config: CheckpointConfig {
                every_ops: config.every_ops.max(1),
                retain: config.retain.max(1),
                ..config
            },
        }
    }

    fn open_segment(&self, at: u64) -> Result<DeltaLog, PersistError> {
        DeltaLog::create_with(
            self.backend.clone_backend(),
            &segment_path(&self.path, at),
            self.config.durability,
        )
    }

    /// Deletes snapshots past the retention count and log segments entirely
    /// older than the oldest retained snapshot.
    fn apply_retention(&mut self, live_segment: u64) -> Result<(), PersistError> {
        let (snaps, segments) = list_artifacts(self.backend.as_mut(), &self.path)?;
        if snaps.len() <= self.config.retain {
            return Ok(());
        }
        let excess = snaps.len() - self.config.retain;
        let oldest_kept = snaps[excess];
        for &op in &snaps[..excess] {
            self.backend.remove_file(&snap_path(&self.path, op))?;
        }
        for (i, &start) in segments.iter().enumerate() {
            let end = segments.get(i + 1).copied();
            // A segment is disposable only when some later segment starts
            // at or before the oldest retained snapshot (never the live
            // tail segment).
            if end.is_some_and(|end| end <= oldest_kept) && start < live_segment {
                self.backend.remove_file(&segment_path(&self.path, start))?;
            }
        }
        Ok(())
    }
}

/// The durability component, mounted *beside* an engine rather than wrapped
/// around one: a [`DeltaLog`], the op position, and — when checkpointing —
/// a directory the log rotates and the engine is snapshotted into. It owns
/// no engine; the [`crate::Session`] that just applied a window tells it
/// what was applied ([`Journal::record`]) and lends it a snapshot of the
/// engine when a checkpoint is due.
///
/// The contract is write-behind: only ops the engine accepted are recorded,
/// so on a mid-batch failure the log holds exactly the applied prefix and
/// recovery lands on the same state. Each recorded window is flushed once
/// at the configured [`Durability`].
///
/// A checkpointing journal ([`Journal::checkpointed`]) additionally rotates
/// the log at every exact `every_ops` multiple, snapshots the engine
/// atomically once the window that crossed a multiple commits, and deletes
/// artifacts past the retention horizon — so [`recover_dir`] always replays
/// at most one cadence worth of ops, bounding recovery time regardless of
/// history length. Directory layout: `snap-<op>.dnsnap` (state after `<op>`
/// ops) and `log-<op>.dnlog` (the segment whose first record is op `<op>`).
/// Only the final segment can be torn by a crash; recovery treats a torn
/// *earlier* segment as corruption even under
/// [`RecoveryPolicy::RepairTail`].
pub struct Journal {
    log: DeltaLog,
    /// First op index of the segment being appended to (a flat log is one
    /// segment starting at the position it was created at).
    segment_start: u64,
    ops_applied: u64,
    last_checkpoint: u64,
    checkpoints_written: u64,
    /// `None` for a flat log: no rotation, no snapshots.
    dir: Option<CheckpointDir>,
    /// The first I/O failure raised inside [`Journal::record`] (which has
    /// no error channel: its caller is reporting the *engine's* verdict on
    /// the window). Later failures are usually cascade, so the first is
    /// kept; the next [`Journal::flush`] / [`Journal::sync`] /
    /// [`Journal::checkpoint_now`] / [`Journal::close`] surfaces it, and
    /// dropping the journal while one is pending reports it on stderr.
    deferred: Option<PersistError>,
    /// Set by [`Journal::close`], which already synced: `Drop` skips its
    /// best-effort final sync.
    closed: bool,
}

impl Journal {
    fn over(log: DeltaLog, segment_start: u64, at: u64, dir: Option<CheckpointDir>) -> Journal {
        Journal {
            log,
            segment_start,
            ops_applied: at,
            last_checkpoint: at,
            checkpoints_written: 0,
            dir,
            deferred: None,
            closed: false,
        }
    }

    /// A flat journal: one fresh log at `log_path`, never rotated.
    /// `ops_applied` is the number of ops the engine already incorporates
    /// (the `ops_applied` of the snapshot it was restored from; 0 for a
    /// fresh engine).
    pub fn flat(
        backend: Box<dyn StorageBackend>,
        log_path: &Path,
        ops_applied: u64,
        durability: Durability,
    ) -> Result<Journal, PersistError> {
        let log = DeltaLog::create_with(backend, log_path, durability)?;
        Ok(Journal::over(log, ops_applied, ops_applied, None))
    }

    /// A checkpointing journal over a **fresh** directory. `initial` — the
    /// engine's state at its current position — is written immediately so
    /// recovery always has a snapshot. A directory that already holds
    /// checkpoint artifacts is refused: writing a second history beside an
    /// earlier run's files would let retention delete the new snapshots and
    /// recovery return the old run.
    pub fn checkpointed(
        mut backend: Box<dyn StorageBackend>,
        dir: &Path,
        initial: &Snapshot,
        config: CheckpointConfig,
    ) -> Result<Journal, PersistError> {
        backend.create_dir_all(dir)?;
        let (snaps, segments) = list_artifacts(backend.as_mut(), dir)?;
        if !(snaps.is_empty() && segments.is_empty()) {
            return Err(PersistError::Mismatch(format!(
                "checkpoint dir {} already holds {} snapshot(s) and {} log segment(s) of an \
                 earlier run; recover from it or start in an empty directory",
                dir.display(),
                snaps.len(),
                segments.len()
            )));
        }
        let at = initial.ops_applied();
        initial.write_to_backend(backend.as_mut(), &snap_path(dir, at))?;
        let dir = CheckpointDir::new(backend, dir, config);
        let mut journal = Journal::over(dir.open_segment(at)?, at, at, Some(dir));
        journal.checkpoints_written = 1;
        Ok(journal)
    }

    /// Records a window the engine just applied — the single write entry.
    /// `applied` must be exactly the ops the engine accepted, in order (on
    /// a mid-batch failure: the prefix before the failing op). The records
    /// are split at every rotation point the window crosses, flushed once
    /// at the configured [`Durability`], and — if a rotation point was
    /// crossed — `snapshot_at` is asked for the engine's state at the
    /// window's end position and a checkpoint is written. I/O failures are
    /// deferred to the next [`Journal::flush`] / [`Journal::sync`] /
    /// [`Journal::checkpoint_now`] / [`Journal::close`].
    pub fn record(&mut self, applied: &[Op], snapshot_at: impl FnOnce(u64) -> Snapshot) {
        let mut rest = applied;
        let mut crossed = false;
        while let Some(room) = self.room().filter(|&room| room <= rest.len() as u64) {
            let (fill, tail) = rest.split_at(room as usize);
            self.append(fill);
            rest = tail;
            crossed = true;
            if let Err(e) = self.rotate_segment() {
                self.defer(e);
            }
        }
        self.append(rest);
        if let Err(e) = self.log.flush() {
            self.defer(e);
        }
        if crossed {
            if let Err(e) = self.checkpoint(snapshot_at) {
                self.defer(e);
            }
        }
    }

    /// Ops the current segment still takes before the log rotates; `None`
    /// for a flat log.
    fn room(&self) -> Option<u64> {
        let every = self.dir.as_ref()?.config.every_ops;
        Some(every - self.ops_applied % every)
    }

    fn append(&mut self, ops: &[Op]) {
        for op in ops {
            self.log.append(op);
        }
        self.ops_applied += ops.len() as u64;
    }

    fn defer(&mut self, e: PersistError) {
        self.deferred.get_or_insert(e);
    }

    fn take_deferred(&mut self) -> Result<(), PersistError> {
        self.deferred.take().map_or(Ok(()), Err)
    }

    /// Closes the current segment (written + fsynced) and opens the next
    /// one starting at the current op position.
    fn rotate_segment(&mut self) -> Result<(), PersistError> {
        self.log.sync()?;
        if let Some(dir) = &self.dir {
            self.log = dir.open_segment(self.ops_applied)?;
            self.segment_start = self.ops_applied;
        }
        Ok(())
    }

    /// Syncs the log, writes a snapshot of the current state atomically,
    /// and applies retention (a snapshot must never claim ops the log does
    /// not durably hold). On a flat journal this is just the sync.
    fn checkpoint(
        &mut self,
        snapshot_at: impl FnOnce(u64) -> Snapshot,
    ) -> Result<(), PersistError> {
        self.log.sync()?;
        let Some(dir) = &mut self.dir else {
            return Ok(());
        };
        let at = self.ops_applied;
        snapshot_at(at).write_to_backend(dir.backend.as_mut(), &snap_path(&dir.path, at))?;
        self.last_checkpoint = at;
        self.checkpoints_written += 1;
        dir.apply_retention(self.segment_start)
    }

    /// Flushes buffered log records per the configured [`Durability`],
    /// surfacing any deferred failure first.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        self.take_deferred()?;
        self.log.flush()
    }

    /// Writes and fsyncs all buffered log records regardless of the
    /// configured durability, surfacing any deferred failure first.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.take_deferred()?;
        self.log.sync()
    }

    /// Forces a checkpoint now (sync, atomic snapshot, retention),
    /// surfacing any deferred failure first.
    pub fn checkpoint_now(
        &mut self,
        snapshot_at: impl FnOnce(u64) -> Snapshot,
    ) -> Result<(), PersistError> {
        self.take_deferred()?;
        self.checkpoint(snapshot_at)
    }

    /// Syncs the log and retires the journal; a pending deferred failure is
    /// returned, never dropped.
    pub fn close(mut self) -> Result<(), PersistError> {
        self.sync()?;
        self.closed = true;
        Ok(())
    }

    /// Total ops incorporated (baseline + recorded) — the log position.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Op position of the newest snapshot this journal knows of (its
    /// starting position until it writes one).
    pub fn last_checkpoint(&self) -> u64 {
        self.last_checkpoint
    }

    /// Snapshots written over this journal's lifetime (including the
    /// initial one of a fresh checkpoint directory).
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// First op index of the segment currently being appended to.
    pub fn segment_start(&self) -> u64 {
        self.segment_start
    }

    /// The checkpoint directory; `None` for a flat journal.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_ref().map(|dir| dir.path.as_path())
    }
}

/// A journal dropped without [`Journal::close`] reports a pending deferred
/// error on stderr and makes a best-effort final sync; it never panics.
impl Drop for Journal {
    fn drop(&mut self) {
        if let Some(e) = self.deferred.take() {
            eprintln!(
                "warning: journal of {} dropped with an unhandled deferred log error: {e}",
                self.log.path().display()
            );
        }
        if !self.closed {
            if let Err(e) = self.log.sync() {
                eprintln!(
                    "warning: final delta-log sync of {} failed: {e}",
                    self.log.path().display()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery and time-travel
// ---------------------------------------------------------------------------

/// What a recovery found and did.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Op position of the snapshot recovery restored from.
    pub baseline_ops: u64,
    /// Ops replayed from log segments on top of the snapshot.
    pub replayed_ops: u64,
    /// Total ops incorporated in the recovered engine
    /// (`baseline_ops + replayed_ops`; when a torn tail cut below the
    /// snapshot, the snapshot alone wins and nothing is replayed).
    pub ops_incorporated: u64,
    /// Valid ops salvaged from the final (possibly torn) segment.
    pub salvaged_tail_ops: u64,
    /// The torn tail repaired off the final segment, if any.
    pub torn: Option<TornTail>,
    /// Snapshots that had to be skipped as corrupt before one restored.
    pub snapshots_skipped: u64,
    /// Log segments read during replay.
    pub segments_replayed: u64,
}

/// Ops per window when a log slice is replayed: large enough that the
/// sharded engine routes real windows, small enough that the reports a
/// window returns stay bounded on a long log.
const REPLAY_WINDOW: usize = 4096;

/// Applies the records of one log segment — `ops`, whose first record is op
/// `start` — that fall inside `position..upto`, in windows of
/// [`REPLAY_WINDOW`] ops ([`Checker::apply_window`]), advancing `position`.
/// A segment starting past `position` leaves a hole in the history: a
/// [`PersistError::Mismatch`], as is a logged op the engine rejects.
fn replay_ops(
    net: &mut PersistNet,
    position: &mut u64,
    start: u64,
    ops: &[Op],
    upto: u64,
) -> Result<(), PersistError> {
    let Some(skip) = position.checked_sub(start) else {
        return Err(PersistError::Mismatch(format!(
            "replay stands at op {position} but the next log segment starts at op {start}"
        )));
    };
    let skip = usize::try_from(skip).unwrap_or(usize::MAX);
    let take = usize::try_from(upto.saturating_sub(*position)).unwrap_or(usize::MAX);
    let rest = ops.get(skip..).unwrap_or_default();
    for window in rest[..take.min(rest.len())].chunks(REPLAY_WINDOW) {
        let (reports, failure) = net.checker_mut().apply_window(window);
        *position += reports.len() as u64;
        if let Some(e) = failure {
            return Err(PersistError::Mismatch(format!(
                "logged op {position} rejected on replay: {}",
                e.error
            )));
        }
    }
    Ok(())
}

/// The one segment-replay kernel under every recovery and time-travel entry
/// point: replays `segments` — `(first op index, path)`, ascending, the
/// first one covering `baseline` — onto `net`, which stands at op
/// `baseline`, until op `upto` or the end of the log. Only the final
/// segment is read under the caller's `policy`; every earlier one is read
/// [`RecoveryPolicy::Strict`] and must end exactly where the next begins
/// (only the crash-active tail may legally be short or torn).
fn replay_segments(
    backend: &mut dyn StorageBackend,
    net: &mut PersistNet,
    baseline: u64,
    segments: &[(u64, PathBuf)],
    upto: u64,
    policy: RecoveryPolicy,
) -> Result<RecoveryReport, PersistError> {
    let mut report = RecoveryReport {
        baseline_ops: baseline,
        replayed_ops: 0,
        ops_incorporated: baseline,
        salvaged_tail_ops: 0,
        torn: None,
        snapshots_skipped: 0,
        segments_replayed: 0,
    };
    for (i, (start, path)) in segments.iter().enumerate() {
        if report.ops_incorporated >= upto {
            break;
        }
        let next_start = segments.get(i + 1).map(|&(next, _)| next);
        let segment_policy = match next_start {
            Some(_) => RecoveryPolicy::Strict,
            None => policy,
        };
        let read = read_log_with(backend, path, segment_policy)?;
        let held = read.ops.len() as u64;
        match next_start {
            Some(next) if start + held != next => {
                return Err(PersistError::Mismatch(format!(
                    "non-final segment {} holds {held} ops, expected {}",
                    path.display(),
                    next.saturating_sub(*start)
                )));
            }
            Some(_) => {}
            None => {
                report.torn = read.torn;
                report.salvaged_tail_ops = held;
            }
        }
        report.segments_replayed += 1;
        replay_ops(net, &mut report.ops_incorporated, *start, &read.ops, upto)?;
    }
    report.replayed_ops = report.ops_incorporated - baseline;
    Ok(report)
}

/// The newest snapshot of a checkpoint directory at or before op `at_most`
/// that reads and restores cleanly, with its position and the number of
/// newer candidates skipped as corrupt (the payoff of retention).
fn newest_usable_snapshot(
    backend: &mut dyn StorageBackend,
    dir: &Path,
    snaps: &[u64],
    topology: &Topology,
    at_most: u64,
) -> Result<(u64, PersistNet, u64), PersistError> {
    let mut skipped = 0;
    let mut last_err = None;
    for &at in snaps.iter().rev().filter(|&&at| at <= at_most) {
        match Snapshot::read_from_backend(backend, &snap_path(dir, at))
            .and_then(|snap| snap.restore(topology))
        {
            Ok(net) => return Ok((at, net, skipped)),
            Err(e @ (PersistError::Corrupt(_) | PersistError::Mismatch(_))) => {
                skipped += 1;
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        PersistError::Mismatch(format!(
            "no snapshot at or before op {at_most} in {} \
             (history before the oldest retained checkpoint is gone)",
            dir.display()
        ))
    }))
}

/// The segments of a checkpoint directory needed to replay forward from
/// `baseline`: the one containing that position, then everything after it.
fn segments_from(
    dir: &Path,
    segments: &[u64],
    baseline: u64,
) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let Some(first) = segments.partition_point(|&s| s <= baseline).checked_sub(1) else {
        return Err(PersistError::Mismatch(format!(
            "no log segment covers snapshot position {baseline} in {}",
            dir.display()
        )));
    };
    Ok(segments[first..]
        .iter()
        .map(|&start| (start, segment_path(dir, start)))
        .collect())
}

/// Recovery from a snapshot + flat log pair: loads the snapshot, restores
/// the engine, and replays the log tail (`ops[snapshot.ops_applied..]`)
/// under [`RecoveryPolicy::Strict`]. Returns the recovered engine and the
/// total number of operations it has incorporated. A log shorter than the
/// snapshot's position, or a logged op the restored engine rejects, is a
/// [`PersistError::Mismatch`]; a torn log tail is a
/// [`PersistError::Corrupt`] (use [`recover_with`] and
/// [`RecoveryPolicy::RepairTail`] to salvage it instead).
pub fn recover(
    topology: &Topology,
    snapshot_path: &Path,
    log_path: &Path,
) -> Result<(PersistNet, u64), PersistError> {
    recover_with(
        topology,
        &mut FsBackend,
        snapshot_path,
        log_path,
        RecoveryPolicy::Strict,
    )
    .map(|(net, ops, _)| (net, ops))
}

/// [`recover`] through an explicit backend and recovery policy. Under
/// [`RecoveryPolicy::RepairTail`] a torn log tail is truncated to the
/// longest valid checksummed prefix and reported in the third tuple slot;
/// if the salvaged log ends *before* the snapshot's position (the tear ate
/// into ops the snapshot already incorporates), the snapshot state wins and
/// zero ops are replayed.
pub fn recover_with(
    topology: &Topology,
    backend: &mut dyn StorageBackend,
    snapshot_path: &Path,
    log_path: &Path,
    policy: RecoveryPolicy,
) -> Result<(PersistNet, u64, Option<TornTail>), PersistError> {
    let snapshot = Snapshot::read_from_backend(backend, snapshot_path)?;
    let baseline = snapshot.ops_applied();
    let mut net = snapshot.restore(topology)?;
    // A snapshot + flat log is a one-segment directory whose segment
    // starts at op 0.
    let segment = [(0, log_path.to_path_buf())];
    let report = replay_segments(backend, &mut net, baseline, &segment, u64::MAX, policy)?;
    // Unlike a rotated directory, the flat log claims the whole history: if
    // it ends below the snapshot and no torn tail explains why, the two
    // artifacts do not belong together.
    if report.salvaged_tail_ops < baseline && report.torn.is_none() {
        return Err(PersistError::Mismatch(format!(
            "snapshot is at op {baseline} but the log holds only {} ops",
            report.salvaged_tail_ops
        )));
    }
    Ok((net, report.ops_incorporated, report.torn))
}

/// Recovers from a checkpoint directory: restores the newest usable
/// snapshot (falling back to older ones past corrupt artifacts), replays
/// the log segments from there, repairing the final segment's torn tail per
/// `policy`, and returns the engine with a [`Journal`] that resumes the
/// directory. Recovery never invents ops: the recovered engine holds the
/// rules, and so the plane, of the engine after some applied prefix.
pub fn recover_dir(
    mut backend: Box<dyn StorageBackend>,
    dir: &Path,
    topology: &Topology,
    policy: RecoveryPolicy,
    config: CheckpointConfig,
) -> Result<(PersistNet, Journal, RecoveryReport), PersistError> {
    let (snaps, segments) = list_artifacts(backend.as_mut(), dir)?;
    if snaps.is_empty() {
        return Err(PersistError::Mismatch(format!(
            "no snapshot found in checkpoint dir {}",
            dir.display()
        )));
    }
    // Sweep leftovers of interrupted atomic writes.
    for path in backend.list_dir(dir)? {
        if path.extension().is_some_and(|e| e == "tmp") {
            backend.remove_file(&path).ok();
        }
    }
    let (baseline, mut net, snapshots_skipped) =
        newest_usable_snapshot(backend.as_mut(), dir, &snaps, topology, u64::MAX)?;
    let tail = segments_from(dir, &segments, baseline)?;
    let mut report = replay_segments(
        backend.as_mut(),
        &mut net,
        baseline,
        &tail,
        u64::MAX,
        policy,
    )?;
    report.snapshots_skipped = snapshots_skipped;
    // Resume appending. Normally that means reopening the final segment;
    // if the tear cut below the snapshot position the old tail is unusable
    // for appends (its record count would disagree with the op index), so
    // a fresh segment starts at the snapshot.
    let position = report.ops_incorporated;
    let dir = CheckpointDir::new(backend, dir, config);
    let (segment_start, log) = match tail.last() {
        Some((start, path)) if start + report.salvaged_tail_ops == position => (
            *start,
            DeltaLog::resume_with(dir.backend.clone_backend(), path, dir.config.durability)?,
        ),
        _ => (position, dir.open_segment(position)?),
    };
    let mut journal = Journal::over(log, segment_start, position, Some(dir));
    journal.last_checkpoint = baseline;
    Ok((net, journal, report))
}

/// Opens a checkpoint directory for a long-lived engine: a directory that
/// holds snapshots is recovered ([`recover_dir`]) and its op stream
/// resumes; otherwise `fresh` builds the engine and a new directory is
/// started under it ([`Journal::checkpointed`]).
pub fn open_dir(
    mut backend: Box<dyn StorageBackend>,
    dir: &Path,
    topology: &Topology,
    policy: RecoveryPolicy,
    config: CheckpointConfig,
    fresh: impl FnOnce() -> PersistNet,
) -> Result<(PersistNet, Journal), PersistError> {
    backend.create_dir_all(dir)?;
    if list_artifacts(backend.as_mut(), dir)?.0.is_empty() {
        let net = fresh();
        let journal = Journal::checkpointed(backend, dir, &Snapshot::of_net(&net, 0), config)?;
        Ok((net, journal))
    } else {
        let (net, journal, _) = recover_dir(backend, dir, topology, policy, config)?;
        Ok((net, journal))
    }
}

/// A stable digest of what an engine means, not how it is laid out: its
/// configuration, its rules in id order, every link's packets as
/// normalized intervals (merged across shards) and its active violations.
/// Atom ids, atom granularity and the shard count do not enter it, so an
/// engine and its snapshot restore digest alike, as do two engines fed the
/// same ops in different windows or shard counts. Used by the persistence
/// suites to assert that recovery landed on an applied prefix.
pub fn state_digest(net: &PersistNet) -> u64 {
    let mut w = Writer::default();
    encode_config(&mut w, &net.config());
    for rule in sorted_rules(net) {
        encode_rule(&mut w, &rule);
    }
    let engines = match net {
        PersistNet::Single(n) => std::slice::from_ref(n.as_ref()),
        PersistNet::Sharded(n) => n.shards(),
    };
    for link in engines[0].topology().links() {
        let of = |e: &DeltaNet| e.atoms().packets_of(e.label(link.id));
        let packets = normalize(engines.iter().flat_map(of).collect());
        w.varint(packets.len() as u64);
        for packet in packets {
            w.varint_wide(packet.lo());
            w.varint_wide(packet.hi());
        }
    }
    match net.checker().active_violations() {
        Some(active) => {
            w.bool(true);
            w.buf.extend_from_slice(format!("{active:?}").as_bytes());
        }
        None => w.bool(false),
    }
    fnv1a(&w.buf)
}

/// The active violation set of a replayed, monitored engine.
fn monitored_violations(net: &PersistNet) -> Result<Vec<InvariantViolation>, PersistError> {
    net.checker()
        .active_violations()
        .ok_or_else(|| PersistError::Mismatch("monitor unavailable after replay".to_string()))
}

/// Time-travel: the violations active after exactly `op_n` operations of
/// `log`, answered by replaying forward from the nearest usable snapshot
/// with the monitor enabled. When the snapshot lies *after* `op_n` (or none
/// is given) the replay starts from an empty engine of the same shape.
/// `config` shapes the fresh engine when no snapshot is available at all.
pub fn violations_at(
    topology: &Topology,
    snapshot: Option<Snapshot>,
    log: &[Op],
    op_n: usize,
    config: DeltaNetConfig,
) -> Result<Vec<InvariantViolation>, PersistError> {
    if log.len() < op_n {
        return Err(PersistError::Mismatch(format!(
            "asked for op {op_n} but the log holds only {} ops",
            log.len()
        )));
    }
    let upto = op_n as u64;
    let (mut net, mut position) = match snapshot {
        Some(snap) if snap.ops_applied() <= upto => {
            let at = snap.ops_applied();
            (snap.restore(topology)?, at)
        }
        Some(snap) => (snap.fresh_like(topology)?, 0),
        None => (
            PersistNet::Single(Box::new(DeltaNet::new(topology.clone(), config))),
            0,
        ),
    };
    if net.last_events().is_none() {
        net.enable_monitor();
    }
    replay_ops(&mut net, &mut position, 0, log, upto)?;
    monitored_violations(&net)
}

/// Time-travel over a checkpoint directory: the violations active after
/// exactly `op_n` ops, answered from the newest usable snapshot at or
/// before `op_n` plus the log segments in between. History before the
/// oldest retained checkpoint is no longer replayable.
pub fn violations_at_dir(
    backend: &mut dyn StorageBackend,
    dir: &Path,
    topology: &Topology,
    op_n: u64,
    policy: RecoveryPolicy,
) -> Result<Vec<InvariantViolation>, PersistError> {
    let (snaps, segments) = list_artifacts(backend, dir)?;
    let (baseline, mut net, _) = newest_usable_snapshot(backend, dir, &snaps, topology, op_n)?;
    if net.last_events().is_none() {
        net.enable_monitor();
    }
    if op_n > baseline {
        let tail = segments_from(dir, &segments, baseline)?;
        let report = replay_segments(backend, &mut net, baseline, &tail, op_n, policy)?;
        if report.ops_incorporated < op_n {
            return Err(PersistError::Mismatch(format!(
                "asked for op {op_n} but only {} ops are replayable",
                report.ops_incorporated
            )));
        }
    }
    monitored_violations(&net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_logged_op_the_engine_rejects_names_its_position() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let link = topo.add_link(a, b);
        let config = DeltaNetConfig {
            field_width: 8,
            ..DeltaNetConfig::default()
        };
        let rule = Rule::forward(RuleId(1), IpPrefix::new(0, 1, 8), 5, a, link);
        // Op 2 removes the rule op 1 already removed.
        let log = [
            Op::Insert(rule),
            Op::Remove(RuleId(1)),
            Op::Remove(RuleId(1)),
        ];
        let sharded = ShardedDeltaNet::new(topo.clone(), config, 2);
        let sharded = Snapshot::of_net(&PersistNet::Sharded(Box::new(sharded)), 0);
        // Replayed on one engine, then on two shards.
        for snapshot in [None, Some(sharded)] {
            match violations_at(&topo, snapshot, &log, log.len(), config) {
                Err(PersistError::Mismatch(msg)) => assert!(
                    msg.starts_with("logged op 2 rejected on replay: removal of unknown rule"),
                    "{msg}"
                ),
                other => panic!("expected Mismatch, got {other:?}"),
            }
        }
    }

    /// A rule whose source is not its link's source (a, a link of b's) is
    /// refused like a link outside the topology: as a logged op, recovery
    /// names its position; in a snapshot registry, restore names the rule.
    /// Neither panics, on one engine or on two shards.
    #[test]
    fn a_rule_off_its_links_source_is_refused_from_a_log_and_a_snapshot() {
        use crate::fault::FaultyBackend;
        let mut topo = Topology::new();
        let [a, b, c] = [topo.add_node("a"), topo.add_node("b"), topo.add_node("c")];
        let (ab, bc) = (topo.add_link(a, b), topo.add_link(b, c));
        topo.add_link(c, a);
        let prefix: IpPrefix = "10.0.0.0/8".parse().unwrap();
        let good = Rule::forward(RuleId(1), prefix, 10, a, ab);
        let stray = Rule::forward(RuleId(2), prefix, 10, a, bc);
        let config = DeltaNetConfig::default();
        let single = PersistNet::Single(Box::new(DeltaNet::new(topo.clone(), config)));
        let sharded = ShardedDeltaNet::new(topo.clone(), config, 2);
        for net in [single, PersistNet::Sharded(Box::new(sharded))] {
            let shards = net.as_sharded().map_or(0, ShardedDeltaNet::shard_count);
            let empty = Snapshot::of_net(&net, 0);
            let disk = FaultyBackend::new();
            let (snap, log) = (Path::new("/d/s.dnsnap"), Path::new("/d/s.dnlog"));
            disk.plant(snap, empty.to_bytes());
            let mut bytes = Vec::from(LOG_MAGIC.as_slice());
            bytes.push(LOG_FORMAT_VERSION);
            for op in [Op::Insert(good), Op::Insert(stray)] {
                bytes.extend_from_slice(&encode_record(&op));
            }
            disk.plant(log, bytes);
            let policy = RecoveryPolicy::Strict;
            match recover_with(&topo, &mut disk.clone(), snap, log, policy) {
                Err(PersistError::Mismatch(msg)) => assert!(
                    msg.starts_with(
                        "logged op 1 rejected on replay: rule r2 references unknown link"
                    ),
                    "{shards} shards: {msg}"
                ),
                Err(e) => panic!("{shards} shards: expected Mismatch, got {e:?}"),
                Ok(_) => panic!("{shards} shards: the stray rule replayed"),
            }
            let holding = Snapshot {
                registry: vec![good, stray],
                ..Snapshot::of_net(&net, 0)
            };
            let decoded = Snapshot::from_bytes(&holding.to_bytes()).expect("decodes");
            match decoded.restore(&topo) {
                Err(PersistError::Corrupt(msg)) => assert!(
                    msg.starts_with(
                        "snapshot registry rule r2 refused: rule r2 references unknown link"
                    ),
                    "{shards} shards: {msg}"
                ),
                Err(e) => panic!("{shards} shards: expected Corrupt, got {e:?}"),
                Ok(_) => panic!("{shards} shards: the stray rule restored"),
            }
        }
    }
}

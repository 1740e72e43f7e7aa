//! Snapshot + delta-log persistence with time-travel replay.
//!
//! A long-lived deployment of the engine needs to survive restarts and to
//! answer "what did the network look like after operation *n*?" without
//! re-ingesting the full update history. This module provides both on top
//! of two artifacts:
//!
//! * a **snapshot** ([`Snapshot`]): a compact, versioned, checksummed
//!   binary image of the *full* engine state — atom bounds, owner arena,
//!   edge labels, rule registry, configuration, garbage-collection
//!   bookkeeping, and the monitor's active violation set — for a single
//!   [`DeltaNet`] or a [`ShardedDeltaNet`] (per-shard sections sharing one
//!   rule registry, since a boundary-straddling rule is one rule), restored
//!   as a [`PersistNet`] — that enum, not a third engine;
//! * a **delta log** ([`DeltaLog`]): an append-only record of the update
//!   operations applied *after* some snapshot, written by a [`Journal`]
//!   mounted beside the engine in a [`crate::Session`] — the one way
//!   durability is mounted and the one caller of [`Journal::record`]. The
//!   log is write-behind — an operation is recorded only once the engine
//!   accepted it — so the log's contents are exactly the applied ops even
//!   when a batch fails midway.
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
//! The restore path re-validates everything a decoder can get wrong — the
//! header checksum, structural invariants of every arena
//! ([`AtomMap::from_parts`], [`crate::owner::Owner::from_cells`]), the
//! garbage-collection books of every lattice, which are recomputed from the
//! section's own rules rather than trusted ([`BoundRefs::from_parts`]), and
//! the monitor's violation set, which is checked **bit-for-bit** against a
//! fresh full scan of the restored data plane
//! ([`ViolationMonitor::state_eq`]) — so a corrupted or truncated artifact
//! surfaces as a clean [`PersistError`], never as a wrong answer.
//!
//! The container is deliberately dependency-free: LEB128 varints for the
//! dense integer arenas, raw little-endian words for the label bitsets,
//! and an FNV-1a 64 trailer checksum.
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
//!   reports exactly how many ops were salvaged — recovery always lands
//!   bit-identical to some applied prefix, never invents ops;
//! * a checkpointing journal ([`Journal::checkpointed`]) bounds recovery
//!   time by auto-snapshotting every N ops with log rotation and retention.

use crate::atoms::{AtomId, AtomMap, BoundRefs};
use crate::engine::{DeltaNet, DeltaNetConfig, EngineParts};
use crate::fault::{FsBackend, StorageBackend};
use crate::monitor::{ViolationKey, ViolationMonitor};
use crate::owner::{OwnedRule, Owner};
use crate::shard::ShardedDeltaNet;
use crate::Labels;
use netmodel::checker::{Checker, InvariantViolation};
use netmodel::header::{SecondaryMatch, MAX_SECONDARY_FIELDS};
use netmodel::interval::{Bound, Interval};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Action, Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic bytes opening a snapshot file.
const SNAPSHOT_MAGIC: &[u8; 4] = b"DNSP";
/// Magic bytes opening a delta-log file.
const LOG_MAGIC: &[u8; 4] = b"DNLG";
/// Format version of the snapshot container. Version 3 added the header
/// space (secondary field widths), per-rule secondary matches, and the
/// per-field secondary lattice sections; version 1 snapshots still load as
/// single-field engines.
const FORMAT_VERSION: u8 = 3;
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
    /// truncation, a checksum mismatch, or a structural invariant violated
    /// by the decoded state.
    Corrupt(String),
    /// The artifact is well-formed but inconsistent with its surroundings:
    /// wrong topology, a log shorter than the snapshot's operation count,
    /// or a restored monitor that disagrees with a fresh scan.
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
// Binary primitives: LEB128 varints, raw words, FNV-1a 64.
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

    fn words(&mut self, words: &[u64]) {
        self.varint(words.len() as u64);
        for &w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
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

    fn words(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.len()?;
        let mut words = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let end = self.pos + 8;
            let Some(bytes) = self.buf.get(self.pos..end) else {
                return self.corrupt("truncated word array");
            };
            words.push(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            self.pos = end;
        }
        Ok(words)
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

/// One field's lattice as a snapshot carries it, for the primary and every
/// secondary field alike: the *atoms half* (`M` with its id table and free
/// list) and the *books half* (the §3.2.2 reference counts and reclaimable
/// counter). The halves are coded separately because the primary field's
/// sit either side of the owner cells and labels on the wire.
struct LatticeSection {
    allocated: usize,
    entries: Vec<(Bound, AtomId)>,
    free: Vec<AtomId>,
    refs: Vec<(Bound, u32)>,
    reclaimable: usize,
}

impl LatticeSection {
    fn export((atoms, books): (&AtomMap, &BoundRefs)) -> LatticeSection {
        let (refs, reclaimable) = books.export_parts();
        LatticeSection {
            allocated: atoms.allocated_atoms(),
            entries: atoms.export_entries(),
            free: atoms.free_list().to_vec(),
            refs,
            reclaimable,
        }
    }

    fn encode_atoms(&self, w: &mut Writer) {
        w.varint(self.allocated as u64);
        w.varint(self.entries.len() as u64);
        for &(bound, atom) in &self.entries {
            w.varint_wide(bound);
            w.varint(u64::from(atom.0));
        }
        w.varint(self.free.len() as u64);
        for atom in &self.free {
            w.varint(u64::from(atom.0));
        }
    }

    fn encode_books(&self, w: &mut Writer) {
        w.varint(self.refs.len() as u64);
        for &(bound, count) in &self.refs {
            w.varint_wide(bound);
            w.varint(u64::from(count));
        }
        w.varint(self.reclaimable as u64);
    }

    /// Decodes the atoms half; the books half is filled in by
    /// [`LatticeSection::decode_books`] when the reader reaches it.
    fn decode_atoms(r: &mut Reader<'_>) -> Result<LatticeSection, PersistError> {
        let atom_id = |r: &mut Reader<'_>| r.id32("atom id exceeds 32 bits").map(AtomId);
        let allocated = r.len()?;
        let entry_count = r.len()?;
        let mut entries = Vec::with_capacity(entry_count.min(1024));
        for _ in 0..entry_count {
            entries.push((r.varint_wide()?, atom_id(r)?));
        }
        let free_count = r.len()?;
        let mut free = Vec::with_capacity(free_count.min(1024));
        for _ in 0..free_count {
            free.push(atom_id(r)?);
        }
        Ok(LatticeSection {
            allocated,
            entries,
            free,
            refs: Vec::new(),
            reclaimable: 0,
        })
    }

    fn decode_books(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let ref_count = r.len()?;
        self.refs = Vec::with_capacity(ref_count.min(1024));
        for _ in 0..ref_count {
            let bound = r.varint_wide()?;
            let count = r.id32("bound refcount exceeds 32 bits")?;
            self.refs.push((bound, count));
        }
        self.reclaimable = r.len()?;
        Ok(())
    }

    /// Rebuilds the `width`-bit lattice and its books, validating the map's
    /// structural invariants and verifying the stored books against a
    /// recomputation from `holders` — the intervals referencing this
    /// field's bounds ([`BoundRefs::from_parts`]). `field` names the
    /// lattice in the error.
    fn restore(
        self,
        field: &str,
        width: u8,
        holders: impl IntoIterator<Item = Interval>,
    ) -> Result<(AtomMap, BoundRefs), PersistError> {
        let corrupt = |what: String| PersistError::Corrupt(format!("{field} lattice: {what}"));
        let atoms = AtomMap::from_parts(width, self.allocated, &self.entries, self.free)
            .map_err(corrupt)?;
        let books = BoundRefs::from_parts(&atoms, holders, &self.refs, self.reclaimable)
            .map_err(corrupt)?;
        Ok((atoms, books))
    }
}

/// The decoded per-engine state of one snapshot section: everything a
/// single (possibly clipped) [`DeltaNet`] needs to be rebuilt exactly.
struct EngineSection {
    clip: Option<Interval>,
    rule_ids: Vec<RuleId>,
    lattice: LatticeSection,
    owner_cells: Vec<Vec<(NodeId, bool, Vec<OwnedRule>)>>,
    label_capacity: usize,
    labels: Vec<(LinkId, Vec<u64>)>,
    compactions: usize,
    /// One lattice per secondary field — no owner cells or labels (format
    /// v3; absent from v1 sections).
    sec: Vec<LatticeSection>,
    #[allow(clippy::type_complexity)]
    monitor: Option<(Vec<(Vec<NodeId>, Vec<u64>)>, Vec<(NodeId, Vec<u64>)>)>,
}

impl EngineSection {
    fn export(net: &DeltaNet) -> EngineSection {
        let mut rule_ids: Vec<RuleId> = net.rules().map(|r| r.id).collect();
        rule_ids.sort_unstable();
        let (label_capacity, labels) = net.labels().export_parts();
        let mut lattices = net.lattices().map(LatticeSection::export);
        EngineSection {
            clip: net.clip(),
            rule_ids,
            lattice: lattices.next().expect("the primary lattice comes first"),
            owner_cells: net.owner().export_cells(),
            label_capacity,
            labels,
            compactions: net.compactions(),
            sec: lattices.collect(),
            monitor: net.monitor().map(ViolationMonitor::export_parts),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self.clip {
            Some(clip) => {
                w.bool(true);
                w.varint_wide(clip.lo());
                w.varint_wide(clip.hi());
            }
            None => w.bool(false),
        }
        w.varint(self.rule_ids.len() as u64);
        for id in &self.rule_ids {
            w.varint(id.0);
        }
        self.lattice.encode_atoms(w);
        w.varint(self.owner_cells.len() as u64);
        for slots in &self.owner_cells {
            w.varint(slots.len() as u64);
            for (source, spilled, entries) in slots {
                w.varint(u64::from(source.0));
                w.bool(*spilled);
                w.varint(entries.len() as u64);
                for e in entries {
                    w.varint(u64::from(e.priority));
                    w.varint(e.id.0);
                    w.varint(u64::from(e.link.0));
                }
            }
        }
        w.varint(self.label_capacity as u64);
        w.varint(self.labels.len() as u64);
        for (link, words) in &self.labels {
            w.varint(u64::from(link.0));
            w.words(words);
        }
        self.lattice.encode_books(w);
        w.varint(self.compactions as u64);
        w.varint(self.sec.len() as u64);
        for sec in &self.sec {
            sec.encode_atoms(w);
            sec.encode_books(w);
        }
        match &self.monitor {
            Some((loops, holes)) => {
                w.bool(true);
                w.varint(loops.len() as u64);
                for (cycle, words) in loops {
                    w.varint(cycle.len() as u64);
                    for node in cycle {
                        w.varint(u64::from(node.0));
                    }
                    w.words(words);
                }
                w.varint(holes.len() as u64);
                for (node, words) in holes {
                    w.varint(u64::from(node.0));
                    w.words(words);
                }
            }
            None => w.bool(false),
        }
    }

    /// `has_sec` is true for format-v3 sections, which carry the secondary
    /// lattice block; v1 sections decode with no secondary fields.
    fn decode(r: &mut Reader<'_>, has_sec: bool) -> Result<EngineSection, PersistError> {
        let clip = if r.bool()? {
            let lo = r.varint_wide()?;
            let hi = r.varint_wide()?;
            if lo >= hi {
                return r.corrupt("inverted clip range");
            }
            Some(Interval::new(lo, hi))
        } else {
            None
        };
        let rule_count = r.len()?;
        let mut rule_ids = Vec::with_capacity(rule_count.min(1024));
        for _ in 0..rule_count {
            rule_ids.push(RuleId(r.varint()?));
        }
        let mut lattice = LatticeSection::decode_atoms(r)?;
        let atom_count = r.len()?;
        let mut owner_cells = Vec::with_capacity(atom_count.min(1024));
        for _ in 0..atom_count {
            let slot_count = r.len()?;
            let mut slots = Vec::with_capacity(slot_count.min(1024));
            for _ in 0..slot_count {
                let source = r.node_id()?;
                let spilled = r.bool()?;
                let entry_count = r.len()?;
                let mut entries = Vec::with_capacity(entry_count.min(1024));
                for _ in 0..entry_count {
                    let priority = r.id32("priority exceeds 32 bits")?;
                    let id = RuleId(r.varint()?);
                    let link = r.link_id()?;
                    entries.push(OwnedRule { priority, id, link });
                }
                slots.push((source, spilled, entries));
            }
            owner_cells.push(slots);
        }
        let label_capacity = r.len()?;
        let label_count = r.len()?;
        let mut labels = Vec::with_capacity(label_count.min(1024));
        for _ in 0..label_count {
            labels.push((r.link_id()?, r.words()?));
        }
        lattice.decode_books(r)?;
        let compactions = r.len()?;
        let field_count = if has_sec { r.len()? } else { 0 };
        let mut sec = Vec::with_capacity(field_count.min(1024));
        for _ in 0..field_count {
            let mut field = LatticeSection::decode_atoms(r)?;
            field.decode_books(r)?;
            sec.push(field);
        }
        let monitor = if r.bool()? {
            let loop_count = r.len()?;
            let mut loops = Vec::with_capacity(loop_count.min(1024));
            for _ in 0..loop_count {
                let cycle_len = r.len()?;
                let mut cycle = Vec::with_capacity(cycle_len.min(1024));
                for _ in 0..cycle_len {
                    cycle.push(r.node_id()?);
                }
                loops.push((cycle, r.words()?));
            }
            let hole_count = r.len()?;
            let mut holes = Vec::with_capacity(hole_count.min(1024));
            for _ in 0..hole_count {
                holes.push((r.node_id()?, r.words()?));
            }
            Some((loops, holes))
        } else {
            None
        };
        Ok(EngineSection {
            clip,
            rule_ids,
            lattice,
            owner_cells,
            label_capacity,
            labels,
            compactions,
            sec,
            monitor,
        })
    }

    /// Rebuilds one engine from this section, validating every structural
    /// invariant, verifying each lattice's books against a recomputation
    /// from the section's own rules and — when the section carries a
    /// monitor — the restored violation set bit-for-bit against a fresh
    /// full scan of the restored data plane.
    fn restore(
        self,
        topology: &Topology,
        config: DeltaNetConfig,
        registry: &HashMap<RuleId, Rule>,
    ) -> Result<DeltaNet, PersistError> {
        let owner = Owner::from_cells(self.owner_cells).map_err(PersistError::Corrupt)?;
        let labels =
            Labels::from_parts(self.label_capacity, self.labels).map_err(PersistError::Corrupt)?;
        let mut rules = HashMap::with_capacity(self.rule_ids.len());
        for id in self.rule_ids {
            let rule = registry.get(&id).ok_or_else(|| {
                PersistError::Corrupt(format!("engine section references unregistered {id:?}"))
            })?;
            if DeltaNet::clipped_interval(self.clip, rule).is_empty() {
                return Err(PersistError::Corrupt(format!(
                    "engine section holds {id:?}, which lies outside its clip"
                )));
            }
            rules.insert(id, *rule);
        }
        if self.sec.len() != config.secondary_count() {
            return Err(PersistError::Mismatch(format!(
                "engine section carries {} secondary lattice(s) but the \
                 snapshot config declares {}",
                self.sec.len(),
                config.secondary_count()
            )));
        }
        // The holders of the primary bounds are what the engine acquired:
        // every rule's clip-adjusted interval, plus the clip pins of a shard.
        let clip = self.clip;
        let held = rules
            .values()
            .map(|rule| DeltaNet::clipped_interval(clip, rule))
            .chain(clip);
        let (atoms, books) = self.lattice.restore("primary", config.field_width, held)?;
        let mut secondary = Vec::with_capacity(self.sec.len());
        for (field, sec) in self.sec.into_iter().enumerate() {
            let held = rules.values().filter_map(|rule| rule.sec.get(field));
            let name = format!("secondary field {field}");
            secondary.push(sec.restore(&name, config.sec_widths[field], held)?);
        }
        let monitor = self
            .monitor
            .map(|(loops, holes)| ViolationMonitor::from_parts(loops, holes));
        let net = DeltaNet::from_parts(EngineParts {
            topology: topology.clone(),
            config,
            clip,
            atoms,
            owner,
            labels,
            rules,
            books,
            secondary,
            compactions: self.compactions,
            monitor,
        });
        // A restored monitor is verified against a fresh scan of the fully
        // assembled engine, so the check dispatches on the header-space
        // shape exactly like `enable_monitor` would.
        if let Some(restored) = net.monitor() {
            if !restored.state_eq(&net.fresh_monitor()) {
                return Err(PersistError::Mismatch(
                    "restored monitor disagrees with a fresh scan of the restored plane"
                        .to_string(),
                ));
            }
        }
        Ok(net)
    }
}

/// The decoded engine layout of a snapshot.
enum SnapshotKind {
    /// One stand-alone engine.
    Single(Box<EngineSection>),
    /// A sharded engine: the boundary table plus one section per shard.
    Sharded {
        boundaries: Vec<Bound>,
        shards: Vec<EngineSection>,
    },
}

/// A decoded snapshot of the full engine state at some point in the update
/// stream, created by [`Snapshot::of_single`] / [`Snapshot::of_sharded`]
/// (or [`Snapshot::of_net`]) and turned back into a live engine by
/// [`Snapshot::restore`].
pub struct Snapshot {
    node_count: usize,
    link_count: usize,
    config: DeltaNetConfig,
    ops_applied: u64,
    registry: Vec<Rule>,
    kind: SnapshotKind,
}

impl Snapshot {
    /// Captures the full state of a stand-alone engine. `ops_applied` is
    /// the number of update operations applied so far — the log position
    /// this snapshot corresponds to.
    pub fn of_single(net: &DeltaNet, ops_applied: u64) -> Snapshot {
        let mut registry: Vec<Rule> = net.rules().copied().collect();
        registry.sort_unstable_by_key(|r| r.id);
        Snapshot {
            node_count: net.topology().node_count(),
            link_count: net.topology().link_count(),
            config: net.config(),
            ops_applied,
            registry,
            kind: SnapshotKind::Single(Box::new(EngineSection::export(net))),
        }
    }

    /// Captures the full state of a sharded engine: one section per shard
    /// plus the shared rule registry, serialized once (each section only
    /// stores the ids of the rules it holds a clipped piece of).
    pub fn of_sharded(net: &ShardedDeltaNet, ops_applied: u64) -> Snapshot {
        let mut registry: Vec<Rule> = net.rules().copied().collect();
        registry.sort_unstable_by_key(|r| r.id);
        let ranges = net.shard_ranges();
        let mut boundaries: Vec<Bound> = ranges.iter().map(Interval::lo).collect();
        boundaries.push(ranges.last().expect("at least one shard").hi());
        let config = net.shards()[0].config();
        Snapshot {
            node_count: net.topology().node_count(),
            link_count: net.topology().link_count(),
            config,
            ops_applied,
            registry,
            kind: SnapshotKind::Sharded {
                boundaries,
                shards: net.shards().iter().map(EngineSection::export).collect(),
            },
        }
    }

    /// Captures whichever engine a [`PersistNet`] wraps.
    pub fn of_net(net: &PersistNet, ops_applied: u64) -> Snapshot {
        match net {
            PersistNet::Single(n) => Snapshot::of_single(n, ops_applied),
            PersistNet::Sharded(n) => Snapshot::of_sharded(n, ops_applied),
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
        match &self.kind {
            SnapshotKind::Single(_) => 1,
            SnapshotKind::Sharded { shards, .. } => shards.len(),
        }
    }

    /// Serializes the snapshot: versioned header, varint-encoded body,
    /// FNV-1a 64 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(SNAPSHOT_MAGIC);
        w.u8(FORMAT_VERSION);
        w.varint(self.node_count as u64);
        w.varint(self.link_count as u64);
        w.u8(self.config.field_width);
        w.bool(self.config.check_loops_per_update);
        w.bool(self.config.monitor_violations);
        match self.config.compact_threshold {
            Some(t) => {
                w.bool(true);
                w.varint(t as u64);
            }
            None => w.bool(false),
        }
        let secondary = self.config.secondary_count();
        w.u8(secondary as u8);
        for &width in &self.config.sec_widths[..secondary] {
            w.u8(width);
        }
        w.varint(self.ops_applied);
        w.varint(self.registry.len() as u64);
        for rule in &self.registry {
            encode_rule(&mut w, rule);
        }
        match &self.kind {
            SnapshotKind::Single(section) => {
                w.u8(0);
                section.encode(&mut w);
            }
            SnapshotKind::Sharded { boundaries, shards } => {
                w.u8(1);
                w.varint(shards.len() as u64);
                for &b in boundaries {
                    w.varint_wide(b);
                }
                for section in shards {
                    section.encode(&mut w);
                }
            }
        }
        w.seal()
    }

    /// Deserializes a snapshot, verifying the magic, version, and trailer
    /// checksum. Structural validation of the decoded state happens in
    /// [`Snapshot::restore`].
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
        let field_width = r.u8()?;
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
                if width == 0 || width > 127 {
                    return r.corrupt("secondary field width outside 1..=127");
                }
                *slot = width;
            }
        }
        let config = DeltaNetConfig {
            field_width,
            check_loops_per_update,
            compact_threshold,
            monitor_violations,
            sec_widths,
        };
        let ops_applied = r.varint()?;
        let rule_count = r.len()?;
        let mut registry = Vec::with_capacity(rule_count.min(1024));
        for _ in 0..rule_count {
            registry.push(decode_rule(&mut r, Some(field_width), has_sec)?);
        }
        let kind = match r.u8()? {
            0 => SnapshotKind::Single(Box::new(EngineSection::decode(&mut r, has_sec)?)),
            1 => {
                let shard_count = r.len()?;
                if shard_count == 0 {
                    return r.corrupt("sharded snapshot with zero shards");
                }
                let mut boundaries = Vec::with_capacity(shard_count + 1);
                for _ in 0..=shard_count {
                    boundaries.push(r.varint_wide()?);
                }
                if boundaries.windows(2).any(|w| w[0] >= w[1]) {
                    return r.corrupt("shard boundaries not strictly increasing");
                }
                let mut shards = Vec::with_capacity(shard_count);
                for _ in 0..shard_count {
                    shards.push(EngineSection::decode(&mut r, has_sec)?);
                }
                SnapshotKind::Sharded { boundaries, shards }
            }
            _ => return r.corrupt("invalid engine-kind tag"),
        };
        r.finish()?;
        Ok(Snapshot {
            node_count,
            link_count,
            config,
            ops_applied,
            registry,
            kind,
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

    fn check_topology(&self, topology: &Topology) -> Result<(), PersistError> {
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
        Ok(())
    }

    /// Rebuilds a live engine from the snapshot over the given topology
    /// (snapshots store a topology fingerprint, not the topology itself).
    /// Every arena is re-validated on the way in, and a restored monitor is
    /// verified bit-for-bit against a fresh full scan.
    pub fn restore(self, topology: &Topology) -> Result<PersistNet, PersistError> {
        self.check_topology(topology)?;
        let registry: HashMap<RuleId, Rule> = self.registry.iter().map(|r| (r.id, *r)).collect();
        match self.kind {
            SnapshotKind::Single(section) => {
                if section.clip.is_some() {
                    return Err(PersistError::Corrupt(
                        "stand-alone engine section carries a shard clip".to_string(),
                    ));
                }
                let net = section.restore(topology, self.config, &registry)?;
                if net.rule_count() != registry.len() {
                    return Err(PersistError::Corrupt(
                        "registry and engine rule sets disagree".to_string(),
                    ));
                }
                Ok(PersistNet::Single(Box::new(net)))
            }
            SnapshotKind::Sharded { boundaries, shards } => {
                if boundaries.len() != shards.len() + 1 {
                    return Err(PersistError::Corrupt(
                        "shard boundary table does not match shard count".to_string(),
                    ));
                }
                let mut engines = Vec::with_capacity(shards.len());
                for (i, section) in shards.into_iter().enumerate() {
                    let expected = Interval::new(boundaries[i], boundaries[i + 1]);
                    if section.clip != Some(expected) {
                        return Err(PersistError::Corrupt(format!(
                            "shard {i} clip disagrees with the boundary table"
                        )));
                    }
                    engines.push(section.restore(topology, self.config, &registry)?);
                }
                let rules: HashMap<RuleId, Rule> = registry;
                Ok(PersistNet::Sharded(Box::new(
                    ShardedDeltaNet::from_restored(topology.clone(), boundaries, engines, rules),
                )))
            }
        }
    }

    /// An *empty* engine of the same shape as the snapshotted one — same
    /// configuration, same kind, same shard boundaries — used by
    /// [`violations_at`] when the requested point in time lies before the
    /// snapshot.
    pub fn fresh_like(&self, topology: &Topology) -> Result<PersistNet, PersistError> {
        self.check_topology(topology)?;
        match &self.kind {
            SnapshotKind::Single(_) => Ok(PersistNet::Single(Box::new(DeltaNet::new(
                topology.clone(),
                self.config,
            )))),
            SnapshotKind::Sharded { shards, .. } => Ok(PersistNet::Sharded(Box::new(
                ShardedDeltaNet::new(topology.clone(), self.config, shards.len()),
            ))),
        }
    }
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
            if hi > 1 << netmodel::header::MAX_SECONDARY_WIDTH {
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
/// directory. Recovery never invents ops: the recovered state is
/// bit-identical to the engine state after some applied prefix.
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

/// A stable digest of the *full* serialized engine state — bit-identical
/// states (atoms, owner arenas, labels, registry, monitor set) produce the
/// same digest. Used by the crash suites to assert that recovery landed
/// exactly on an applied prefix.
pub fn state_digest(net: &PersistNet) -> u64 {
    fnv1a(&Snapshot::of_net(net, 0).to_bytes())
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
    if net.monitor_keys().is_none() {
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
    if net.monitor_keys().is_none() {
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

    /// A monitored shard of a `dst:8 × src:6` plane (clip `[0 : 128)`) after
    /// five inserts and a removal, so both lattices hold referenced bounds,
    /// a clip pin and a reclaimable bound.
    fn shard() -> (Topology, DeltaNet) {
        shard_over(&[6])
    }

    /// [`shard`] over the given secondary widths; with none, the same
    /// rules unconstrained on a single-field engine. Either way `[96 : 128)`
    /// loops between `a` and `b` — under `src:6` only for sources
    /// `[8 : 16)`, every other source dying at `a`, which no label shows —
    /// and each switch blackholes what the other sends it unanswered.
    fn shard_over(sec_widths: &[u8]) -> (Topology, DeltaNet) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let (ab, ba) = topo.add_bidi_link(a, b);
        let config = DeltaNetConfig {
            field_width: 8,
            monitor_violations: true,
            ..DeltaNetConfig::default()
        }
        .with_secondary(sec_widths);
        let mut net = DeltaNet::clipped(topo.clone(), config, Interval::new(0, 128));
        let src = |lo, hi| match sec_widths {
            [] => SecondaryMatch::default(),
            _ => SecondaryMatch::new(&[Interval::new(lo, hi)]),
        };
        let rule = |id, value, len, source, link| {
            Rule::forward(RuleId(id), IpPrefix::new(value, len, 8), 5, source, link)
        };
        net.insert_rule(rule(1, 0, 4, a, ab).with_secondary(src(8, 16)));
        net.insert_rule(rule(2, 16, 4, b, ba).with_secondary(src(8, 40)));
        net.insert_rule(rule(3, 64, 3, a, ab).with_secondary(src(24, 32)));
        net.insert_rule(rule(4, 96, 2, b, ba));
        net.insert_rule(rule(5, 96, 2, a, ab).with_secondary(src(8, 16)));
        net.remove_rule(RuleId(3));
        assert!(net.reclaimable_bounds() > sec_widths.len());
        (topo, net)
    }

    fn restore_tampered(
        (topo, net): (Topology, DeltaNet),
        tamper: impl FnOnce(&mut EngineSection),
    ) -> Result<DeltaNet, PersistError> {
        let registry = net.rules().map(|rule| (rule.id, *rule)).collect();
        let mut section = EngineSection::export(&net);
        tamper(&mut section);
        section.restore(&topo, net.config(), &registry)
    }

    #[test]
    fn restore_recomputes_the_books_and_rejects_a_section_that_lies_about_them() {
        let (_, live) = shard();
        let restored = restore_tampered(shard(), |_| {}).expect("the untampered section restores");
        assert_eq!(restored.reclaimable_bounds(), live.reclaimable_bounds());
        assert_eq!(restored.live_bytes(), live.live_bytes());

        type Tamper = fn(&mut EngineSection);
        let lies: [(&str, &str, Tamper); 6] = [
            ("primary counter", "primary", |s| s.lattice.reclaimable += 1),
            ("secondary counter", "secondary field 0", |s| {
                s.sec[0].reclaimable -= 1
            }),
            ("refcount of 0", "primary", |s| s.lattice.refs[1].1 = 0),
            ("dropped ref entry", "secondary field 0", |s| {
                s.sec[0].refs.pop();
            }),
            ("ref on a bound M lacks", "primary", |s| {
                let (last, _) = *s.lattice.refs.last().unwrap();
                s.lattice.refs.push((last + 1, 1));
            }),
            ("rule bound missing from M", "secondary field 0", |s| {
                // Bound 8 of rules 1, 2 and 5 leaves M; its atom id goes onto
                // the free list so the id table itself stays consistent.
                let at = s.sec[0].entries.iter().position(|&(b, _)| b == 8).unwrap();
                let (_, atom) = s.sec[0].entries.remove(at);
                s.sec[0].free.push(atom);
            }),
        ];
        for (lie, field, tamper) in lies {
            match restore_tampered(shard(), tamper) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains(field), "{lie}: error names no field: {msg}")
                }
                Err(other) => panic!("{lie}: expected Corrupt, got {other:?}"),
                Ok(_) => panic!("{lie}: restored"),
            }
        }
    }

    #[test]
    fn restore_rejects_a_monitor_the_restored_plane_does_not_scan_to() {
        type Tamper = fn(&mut EngineSection);
        let lies: [(&str, Tamper); 3] = [
            ("an atom added to a blackhole set", |s| {
                // The looping atom, at the switch that does not blackhole it.
                let (loops, holes) = s.monitor.as_mut().unwrap();
                holes[1].1[0] |= loops[0].1[0];
            }),
            ("a dropped loop entry", |s| {
                s.monitor.as_mut().unwrap().0.pop();
            }),
            ("a cycle the plane does not have", |s| {
                let loops = &mut s.monitor.as_mut().unwrap().0;
                loops.push((vec![NodeId(0)], vec![1]));
            }),
        ];
        for sec_widths in [&[6][..], &[]] {
            let live = shard_over(sec_widths).1;
            let active = live.active_violations().expect("the fixture is monitored");
            let loops = active.iter().filter(|v| v.is_loop()).count();
            assert_eq!((loops, active.len()), (1, 3), "{active:?}");
            let restored = restore_tampered(shard_over(sec_widths), |_| {})
                .expect("the untampered section restores");
            assert_eq!(restored.active_violations(), Some(active));
            for (lie, tamper) in lies {
                match restore_tampered(shard_over(sec_widths), tamper) {
                    Err(PersistError::Mismatch(msg)) => {
                        assert!(msg.contains("restored monitor disagrees"), "{lie}: {msg}")
                    }
                    Err(other) => panic!("{lie}: expected Mismatch, got {other:?}"),
                    Ok(_) => panic!("{lie}: restored"),
                }
            }
        }
    }

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
}

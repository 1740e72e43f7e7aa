//! The verification daemon: ingest queue, windowed batching engine thread,
//! and violation fan-out.
//!
//! ## Thread architecture
//!
//! ```text
//!  client ──TCP──▶ reader thread ──(bounded work queue)──▶ engine thread
//!                    ▲    │ ack line   (sync_channel:          │ owns the
//!                    │    ◀────────────  *backpressure*)       │ Session
//!                    │                                         │
//!  subscriber ◀── event pump ◀──(bounded event buffer)─────────┘
//! ```
//!
//! * One **reader** per connection reads each request line as bytes into
//!   one reused buffer, never more than [`MAX_LINE_BYTES`] of it: a longer
//!   line is answered with a `bad_request` and discarded through its
//!   newline. [`parse_request`] decodes the line in one pass straight into
//!   a request, resolving node/link references eagerly; a line that is not
//!   UTF-8 or not a request is a `bad_request` too, and the connection goes
//!   on. The reader pushes work items into the bounded ingest queue. A full
//!   queue blocks the reader — and, transitively, the client's socket —
//!   which is the protocol's explicit backpressure: a client can never have
//!   more un-acked work in the daemon than the queue holds.
//! * The single **engine** thread owns a [`Session`]: the sharded engine
//!   and, for durability, the [`Journal`](deltanet::Journal) mounted
//!   beside it. It coalesces consecutive op items into windows of at most
//!   `window` ops, applies each window with [`Session::apply`] (per-shard
//!   groups run concurrently; the journal records what the engine
//!   accepted, with checkpoints at the configured cadence), and acks per
//!   request. A mid-window engine error keeps the window's applied prefix:
//!   every op that applied acks `ok` with its report, whichever request it
//!   came from; the item owning the failure acks the error and `skipped`
//!   for its remaining ops; and *later* items of the window are put back at
//!   the front of the queue and applied in a follow-up window — one
//!   request's bad op never poisons another client's. Each ack is a typed
//!   [`Reply`](crate::proto::Reply) rendered straight into its line, which
//!   the reader writes, newline included, in one write.
//! * After each window the engine thread reads the violation transitions
//!   from [`Session::transitions`] and fans them out to every subscriber
//!   through its own bounded buffer via non-blocking sends: a slow consumer
//!   *drops* events (never stalls the engine) and receives a
//!   `{"event": "gap", "dropped": n}` marker as soon as its buffer has room
//!   again.
//!
//! All transitions events carry a global `seq`, so every subscriber that
//! keeps up sees a bit-identical stream. Under durability, a restarted
//! daemon resumes `seq` from the recovered op count — an upper bound on
//! any seq the previous life issued — so a reconnecting subscriber sees
//! `seq` stay monotone (though not dense) across restarts.

use crate::json::Json;
use crate::proto::{
    batch_op_ack, batch_op_error, batch_reply, error_reply, error_reply_no_id, gap_event, ok_reply,
    parse_request, transitions_event, update_error_kind, what_if_reply, BatchAck, ProtoError,
    Request, RequestBody,
};
use deltanet::persist::{self, RecoveryPolicy};
use deltanet::{
    CheckpointConfig, DeltaNetConfig, FsBackend, Parallelism, PersistNet, Session, ShardedDeltaNet,
    Snapshot,
};
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::Op;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Durability mounting for the daemon (see
/// [`Journal::checkpointed`](deltanet::Journal::checkpointed)).
#[derive(Clone, Debug)]
pub struct CheckpointSetup {
    /// Checkpoint directory; recovered from and resumed when it already
    /// holds artifacts.
    pub dir: PathBuf,
    /// Cadence / retention / durability of the journal.
    pub config: CheckpointConfig,
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Engine configuration (`monitor_violations` is forced on — the
    /// subscription surface requires the monitor).
    pub engine: DeltaNetConfig,
    /// Number of address-space shards (≥ 1).
    pub shards: usize,
    /// Worker threads for per-window shard groups.
    pub parallelism: Parallelism,
    /// Maximum ops coalesced into one [`Session::apply`] window (≥ 1).
    pub window: usize,
    /// Bounded ingest queue capacity in work items (≥ 1); a full queue
    /// blocks readers — the backpressure bound.
    pub queue: usize,
    /// Default per-subscriber event buffer capacity (≥ 1).
    pub sub_buffer: usize,
    /// Cross-check the incremental monitor against a full rescan after
    /// every window; mismatches are counted in `stats`.
    pub audit: bool,
    /// Mount a checkpointing [`Journal`](deltanet::Journal) beside the engine.
    pub checkpoint: Option<CheckpointSetup>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            engine: DeltaNetConfig::default(),
            shards: 2,
            parallelism: Parallelism::auto(),
            window: 32,
            queue: 128,
            sub_buffer: 256,
            audit: false,
            checkpoint: None,
        }
    }
}

/// A work item from a reader to the engine thread.
enum WorkItem {
    /// Ordered ops of one request (`batch`: reply shape).
    Ops {
        id: u64,
        reply: Sender<String>,
        ops: Vec<Op>,
        batch: bool,
    },
    /// A read-only (or engine-owned) query, processed between windows.
    Query {
        id: u64,
        reply: Sender<String>,
        kind: Query,
    },
    /// Register a violation subscriber.
    Subscribe {
        id: u64,
        reply: Sender<String>,
        events: SyncSender<String>,
    },
    /// Stop the daemon.
    Shutdown { id: u64, reply: Sender<String> },
}

enum Query {
    WhatIf { link: LinkId, check_loops: bool },
    Stats,
    Snapshot(String),
}

/// One registered subscriber, as the engine thread sees it.
struct Subscriber {
    events: SyncSender<String>,
    /// Events dropped since the last line this subscriber received; a gap
    /// marker carrying this count is delivered once the buffer has room.
    dropped: u64,
    alive: bool,
}

/// State shared between the accept loop, readers, and the engine.
struct Shared {
    /// The topology, with every node's drop link pre-created (shard
    /// topologies are cloned at engine construction, so drop links must
    /// exist *before* the engine is built).
    topology: Topology,
    shutdown: AtomicBool,
    sub_buffer: usize,
}

/// The daemon, bound to a TCP listener. [`Server::run`] accepts
/// connections until a `shutdown` request arrives.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    work_tx: SyncSender<WorkItem>,
    engine: thread::JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the engine thread. With a checkpoint directory that already
    /// holds artifacts, the daemon recovers and resumes from it.
    pub fn bind(
        addr: impl ToSocketAddrs,
        topology: Topology,
        config: ServiceConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let (shared, work_tx, engine) = start_engine(topology, config)?;
        Ok(Server {
            listener,
            shared,
            work_tx,
            engine,
        })
    }

    /// The bound address (for ephemeral-port discovery).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a client sends `shutdown`;
    /// returns once the engine thread has drained and exited.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    let work_tx = self.work_tx.clone();
                    thread::spawn(move || {
                        let _ = serve_tcp_connection(stream, &shared, &work_tx);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Readers' queue sends now fail; the engine already exited (it set
        // the flag) or exits once the last sender drops.
        drop(self.work_tx);
        let _ = self.engine.join();
        Ok(())
    }
}

/// Serves the ndjson protocol over stdin/stdout instead of TCP — the same
/// engine and semantics, one implicit connection. Returns at EOF or after
/// a `shutdown` request.
pub fn serve_stdio(topology: Topology, config: ServiceConfig) -> io::Result<()> {
    let (shared, work_tx, engine) = start_engine(topology, config)?;
    let stdin = io::stdin();
    let stdout = io::stdout();
    let result = handle_connection(stdin.lock(), stdout.lock(), &shared, &work_tx);
    drop(work_tx); // EOF without `shutdown` still closes the engine cleanly
    let _ = engine.join();
    result
}

/// Builds the prepared topology + engine and spawns the engine thread.
#[allow(clippy::type_complexity)]
fn start_engine(
    mut topology: Topology,
    mut config: ServiceConfig,
) -> io::Result<(Arc<Shared>, SyncSender<WorkItem>, thread::JoinHandle<()>)> {
    config.engine.monitor_violations = true;
    config.shards = config.shards.max(1);
    config.window = config.window.max(1);
    config.queue = config.queue.max(1);
    config.sub_buffer = config.sub_buffer.max(1);

    // Drop links must exist before engine construction: each shard clones
    // the topology, so links created later would be unknown to the engine.
    let nodes: Vec<_> = topology.nodes().collect();
    for node in nodes {
        topology.drop_link(node);
    }

    let session = open_engine(&topology, &config)?;
    let shared = Arc::new(Shared {
        topology,
        shutdown: AtomicBool::new(false),
        sub_buffer: config.sub_buffer,
    });
    let (work_tx, work_rx) = mpsc::sync_channel(config.queue);
    let engine_shared = Arc::clone(&shared);
    let engine = thread::spawn(move || {
        EngineLoop {
            // Every event covers >= 1 op, so the recovered op count is an
            // upper bound on any seq a previous life issued: resuming from
            // it keeps seq monotone (not dense) across durable restarts.
            seq: session.ops_applied(),
            session,
            rx: work_rx,
            shared: engine_shared,
            window: config.window,
            queue_cap: config.queue,
            audit: config.audit,
            audits: 0,
            mismatches: 0,
            subscribers: Vec::new(),
            pending: VecDeque::new(),
        }
        .run();
    });
    Ok((shared, work_tx, engine))
}

/// The daemon's session: a monitored sharded engine at
/// `config.parallelism`, built fresh, or recovered from the checkpoint
/// directory when one is mounted, together with the journal that resumes it.
fn open_engine(topology: &Topology, config: &ServiceConfig) -> io::Result<Session> {
    let fresh = || {
        PersistNet::Sharded(Box::new(ShardedDeltaNet::with_parallelism(
            topology.clone(),
            config.engine,
            config.shards,
            config.parallelism,
        )))
    };
    let (mut net, journal) = match &config.checkpoint {
        None => (fresh(), None),
        Some(setup) => {
            let (net, journal) = persist::open_dir(
                Box::new(FsBackend),
                &setup.dir,
                topology,
                RecoveryPolicy::RepairTail,
                setup.config,
                fresh,
            )
            .map_err(|e| io::Error::other(format!("checkpoint directory: {e}")))?;
            (net, Some(journal))
        }
    };
    let PersistNet::Sharded(sharded) = &mut net else {
        return Err(io::Error::other(
            "checkpoint directory holds a single-engine snapshot; \
             the daemon requires a sharded engine",
        ));
    };
    // A restored engine starts from the auto worker count.
    sharded.set_parallelism(config.parallelism);
    if net.monitor_keys().is_none() {
        net.enable_monitor();
    }
    Ok(Session::new(net, journal))
}

/// The engine thread's state.
struct EngineLoop {
    /// The engine, its journal when a checkpoint directory is mounted, the
    /// op position (resumed across restarts under durability) and the
    /// baseline the published transitions are diffed against.
    session: Session,
    rx: Receiver<WorkItem>,
    shared: Arc<Shared>,
    window: usize,
    queue_cap: usize,
    audit: bool,
    /// Global transitions-event sequence number (seeded from the
    /// recovered op count under durability — monotone across restarts).
    seq: u64,
    audits: u64,
    mismatches: u64,
    subscribers: Vec<Subscriber>,
    /// Items deferred to the next window (the unapplied remainder of a
    /// failed window, and any non-op item that interrupted coalescing).
    pending: VecDeque<WorkItem>,
}

impl EngineLoop {
    fn run(mut self) {
        // After a `shutdown` request the engine keeps going until the
        // deferred queue *and* the ingest channel's backlog are drained —
        // work the daemon already accepted is applied and acked, not
        // silently dropped — and only then exits.
        let mut shutting_down = false;
        loop {
            let item = match self.pending.pop_front() {
                Some(item) => item,
                None if shutting_down => match self.rx.try_recv() {
                    Ok(item) => item,
                    Err(_) => break, // backlog drained: stop
                },
                None => match self.rx.recv() {
                    Ok(item) => item,
                    Err(_) => break, // all producers gone: clean close
                },
            };
            match item {
                WorkItem::Ops {
                    id,
                    reply,
                    ops,
                    batch,
                } => {
                    let mut window = vec![(id, reply, ops, batch)];
                    self.coalesce(&mut window);
                    self.apply_window(window);
                }
                WorkItem::Query { id, reply, kind } => self.query(id, &reply, kind),
                WorkItem::Subscribe { id, reply, events } => {
                    let _ = reply.send(
                        crate::json::obj(vec![
                            ("id", Json::int(id)),
                            ("ok", Json::Bool(true)),
                            ("subscribed", Json::Bool(true)),
                        ])
                        .render(),
                    );
                    self.subscribers.push(Subscriber {
                        events,
                        dropped: 0,
                        alive: true,
                    });
                }
                WorkItem::Shutdown { id, reply } => {
                    let _ = reply.send(
                        crate::json::obj(vec![
                            ("id", Json::int(id)),
                            ("ok", Json::Bool(true)),
                            ("shutting_down", Json::Bool(true)),
                        ])
                        .render(),
                    );
                    self.shared.shutdown.store(true, Ordering::SeqCst);
                    shutting_down = true;
                }
            }
        }
        // Dropping subscribers' senders ends every event pump; a durable
        // engine syncs its log on the way out.
        self.subscribers.clear();
        if let Err(e) = self.session.close() {
            eprintln!("warning: checkpoint close failed: {e}");
        }
    }

    /// Pulls more op items (up to `window` total ops) without blocking; a
    /// non-op item stops coalescing and is deferred to preserve order.
    fn coalesce(&mut self, window: &mut Vec<(u64, Sender<String>, Vec<Op>, bool)>) {
        let mut total: usize = window.iter().map(|(_, _, ops, _)| ops.len()).sum();
        while total < self.window {
            let next = match self.pending.pop_front() {
                Some(item) => item,
                None => match self.rx.try_recv() {
                    Ok(item) => item,
                    Err(_) => break,
                },
            };
            match next {
                WorkItem::Ops {
                    id,
                    reply,
                    ops,
                    batch,
                } if total + ops.len() <= self.window => {
                    total += ops.len();
                    window.push((id, reply, ops, batch));
                }
                other => {
                    self.pending.push_front(other);
                    break;
                }
            }
        }
    }

    /// Applies one coalesced window and acks every item it covers.
    fn apply_window(&mut self, window: Vec<(u64, Sender<String>, Vec<Op>, bool)>) {
        let all_ops: Vec<Op> = window
            .iter()
            .flat_map(|(_, _, ops, _)| ops.iter().copied())
            .collect();
        let ops_before = self.session.ops_applied();
        let (reports, failure) = self.session.apply(&all_ops);
        let applied = reports.len();
        // The acks of window ops `offset..upto`, each with its own report.
        let acks_of = |offset: usize, upto: usize| -> Vec<BatchAck> {
            (offset..upto)
                .map(|i| batch_op_ack(ops_before + (i + 1) as u64, &reports[i]))
                .collect()
        };

        let mut offset = 0usize; // window-local index of the item's first op
        let mut iter = window.into_iter();
        for (id, reply, ops, batch) in iter.by_ref() {
            let end = offset + ops.len();
            if end <= applied {
                let line = if batch {
                    batch_reply(id, true, ops.len(), acks_of(offset, end))
                } else {
                    ok_reply(id, ops_before + end as u64, &reports[offset])
                };
                let _ = reply.send(line.render());
                offset = end;
                continue;
            }
            // This item owns the failure; its applied prefix acks like any
            // other applied op.
            let error = failure.as_ref().expect("partial item implies failure");
            let kind = update_error_kind(&error.error);
            let message = error.error.to_string();
            let line = if batch {
                let mut acks = acks_of(offset, applied);
                acks.push(batch_op_error(kind, &message));
                for _ in applied + 1..end {
                    acks.push(batch_op_error(
                        "skipped",
                        "an earlier op in this batch failed",
                    ));
                }
                batch_reply(id, false, applied - offset, acks)
            } else {
                error_reply(id, kind, &message)
            };
            let _ = reply.send(line.render());
            break;
        }
        // Items after the failing one re-queue untouched, in order, ahead
        // of anything already deferred: their ops were not applied.
        for (i, (id, reply, ops, batch)) in iter.enumerate() {
            self.pending.insert(
                i,
                WorkItem::Ops {
                    id,
                    reply,
                    ops,
                    batch,
                },
            );
        }

        self.publish_transitions(ops_before);
        if self.audit {
            self.audits += 1;
            if self.session.net().monitor_matches_rescan() != Some(true) {
                self.mismatches += 1;
            }
        }
    }

    /// Fans the window's transitions, if any, out to every subscriber with
    /// the drop-with-gap-marker policy.
    fn publish_transitions(&mut self, ops_before: u64) {
        let transitions = self.session.transitions();
        if !transitions.is_empty() {
            self.seq += 1;
            let last_op = self.session.ops_applied();
            let line = transitions_event(self.seq, ops_before + 1, last_op, &transitions).render();
            for sub in &mut self.subscribers {
                sub.deliver(&line);
            }
        }
        self.subscribers.retain(|s| s.alive);
    }

    fn query(&mut self, id: u64, reply: &Sender<String>, kind: Query) {
        let session = &mut self.session;
        let line = match kind {
            Query::WhatIf { link, check_loops } => {
                let report = session
                    .net()
                    .checker()
                    .what_if_link_failure(link, check_loops);
                what_if_reply(id, &report).render()
            }
            Query::Stats => self.stats(id).render(),
            Query::Snapshot(path) => {
                // A durable daemon checkpoints into its own directory; a
                // plain one writes the snapshot where the client asked.
                let dir = session.journal().and_then(|j| j.dir());
                let dir = dir.map(|dir| dir.display().to_string());
                let written = match dir {
                    Some(_) => session.checkpoint_now(),
                    None => Snapshot::of_net(session.net(), session.ops_applied())
                        .write_to(Path::new(&path)),
                };
                match written {
                    Ok(()) => crate::json::obj(vec![
                        ("id", Json::int(id)),
                        ("ok", Json::Bool(true)),
                        ("path", Json::str(dir.unwrap_or(path))),
                        ("ops_applied", Json::int(session.ops_applied())),
                    ])
                    .render(),
                    Err(e) => error_reply(id, "io", &e.to_string()).render(),
                }
            }
        };
        let _ = reply.send(line);
    }

    fn stats(&self, id: u64) -> Json {
        let net = self.session.net();
        let shards = net.as_sharded().map_or(1, ShardedDeltaNet::shard_count);
        let net = net.checker();
        crate::json::obj(vec![
            ("id", Json::int(id)),
            ("ok", Json::Bool(true)),
            ("ops_applied", Json::int(self.session.ops_applied())),
            ("rules", Json::int(net.rule_count())),
            ("atoms", Json::int(net.class_count())),
            (
                "violations",
                Json::int(net.active_violations().map_or(0, |v| v.len())),
            ),
            ("shards", Json::int(shards)),
            ("window", Json::int(self.window)),
            ("queue", Json::int(self.queue_cap)),
            ("subscribers", Json::int(self.subscribers.len())),
            ("events", Json::int(self.seq)),
            ("audits", Json::int(self.audits)),
            ("mismatches", Json::int(self.mismatches)),
            ("durable", Json::Bool(self.session.journal().is_some())),
        ])
    }
}

impl Subscriber {
    /// Non-blocking delivery: a full buffer drops the event and counts it;
    /// once there is room again, a gap marker is delivered *before* the
    /// next event so the consumer knows its stream has a hole.
    fn deliver(&mut self, line: &str) {
        if self.dropped > 0 {
            match self.events.try_send(gap_event(self.dropped).render()) {
                Ok(()) => self.dropped = 0,
                Err(TrySendError::Full(_)) => {
                    self.dropped += 1;
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.alive = false;
                    return;
                }
            }
        }
        match self.events.try_send(line.to_string()) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.dropped += 1,
            Err(TrySendError::Disconnected(_)) => self.alive = false,
        }
    }
}

fn serve_tcp_connection(
    stream: TcpStream,
    shared: &Shared,
    work_tx: &SyncSender<WorkItem>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone()?);
    handle_connection(reader, stream, shared, work_tx)
}

/// The longest request line the daemon reads, newline excluded: 1 MiB.
///
/// It is sized from the largest line the CLI `client` sends: a `batch` of
/// 2,048 ops, its `--batch` ceiling. The longest op encoding (u64 ids, a
/// 127-bit width-generic prefix, two 63-bit secondary intervals) is under
/// 280 bytes, so that batch stays under 600 KiB, and a typical IPv4 op
/// (~110 bytes) lets ~9,500 ops fit. A longer line is answered with a
/// `bad_request` naming this cap and discarded through its newline, and
/// the connection goes on: a client that never sends a newline holds at
/// most this much of the daemon's memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_line`] found.
#[derive(Debug, PartialEq, Eq)]
enum Framed {
    /// A line is in the buffer (its newline, and a `\r` before it, removed).
    Line,
    /// A line longer than [`MAX_LINE_BYTES`] was read and discarded.
    TooLong,
    /// The input ended with no line pending.
    Eof,
}

/// Reads the next line into `line` as bytes. Never buffers more than
/// [`MAX_LINE_BYTES`]: past the cap the rest of the line is consumed and
/// dropped up to its newline. Bytes are not checked here; the decoder
/// rejects a line that is not UTF-8.
fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Framed> {
    line.clear();
    let mut too_long = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // A final line without a newline still counts.
            return Ok(match (too_long, line.is_empty()) {
                (true, _) => Framed::TooLong,
                (false, true) => Framed::Eof,
                (false, false) => Framed::Line,
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if line.len() + chunk.len() > MAX_LINE_BYTES {
            too_long = true;
            line.clear();
        }
        if !too_long {
            // Grow geometrically, but never past the cap.
            let needed = line.len() + chunk.len();
            if needed > line.capacity() {
                let target = needed.max(line.capacity() * 2).min(MAX_LINE_BYTES);
                line.reserve_exact(target - line.len());
            }
            line.extend_from_slice(chunk);
        }
        let used = chunk.len() + usize::from(newline.is_some());
        reader.consume(used);
        if newline.is_some() {
            if too_long {
                return Ok(Framed::TooLong);
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Framed::Line);
        }
    }
}

/// Writes one reply line, newline included, in a single write.
fn write_line<W: Write>(writer: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Runs the per-connection protocol over any reader/writer pair (a TCP
/// stream or stdin/stdout). Requests are processed strictly in order; a
/// `subscribe` turns the connection into an event stream and stops reading,
/// and a `shutdown` ends it once its ack is written.
fn handle_connection<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    shared: &Shared,
    work_tx: &SyncSender<WorkItem>,
) -> io::Result<()> {
    let mut line = Vec::new();
    loop {
        let parsed = match read_line(&mut reader, &mut line)? {
            Framed::Eof => return Ok(()),
            Framed::Line if line.iter().all(u8::is_ascii_whitespace) => continue,
            Framed::Line => parse_request(&line, &shared.topology),
            Framed::TooLong => Err(ProtoError {
                id: None,
                message: format!("line longer than MAX_LINE_BYTES ({MAX_LINE_BYTES} bytes)"),
            }),
        };
        let request = match parsed {
            Ok(request) => request,
            Err(e) => {
                let reply = match e.id {
                    Some(id) => error_reply(id, "bad_request", &e.message),
                    None => error_reply_no_id("bad_request", &e.message),
                };
                write_line(&mut writer, reply.render())?;
                continue;
            }
        };
        let Request { id, body } = request;
        // The shutdown ack is the connection's last line.
        let last = matches!(body, RequestBody::Shutdown);
        let (reply_tx, reply_rx) = mpsc::channel();
        let item = match body {
            RequestBody::Insert(rule) => WorkItem::Ops {
                id,
                reply: reply_tx,
                ops: vec![Op::Insert(rule)],
                batch: false,
            },
            RequestBody::Remove(rule_id) => WorkItem::Ops {
                id,
                reply: reply_tx,
                ops: vec![Op::Remove(rule_id)],
                batch: false,
            },
            RequestBody::Batch(ops) => WorkItem::Ops {
                id,
                reply: reply_tx,
                ops,
                batch: true,
            },
            RequestBody::WhatIf {
                src,
                dst,
                check_loops,
            } => match shared.topology.link_between(src, dst) {
                Some(link) => WorkItem::Query {
                    id,
                    reply: reply_tx,
                    kind: Query::WhatIf { link, check_loops },
                },
                None => {
                    let message = format!("no link {} -> {}", src.0, dst.0);
                    let reply = error_reply(id, "unknown_link", &message);
                    write_line(&mut writer, reply.render())?;
                    continue;
                }
            },
            RequestBody::Stats => WorkItem::Query {
                id,
                reply: reply_tx,
                kind: Query::Stats,
            },
            RequestBody::Snapshot(path) => WorkItem::Query {
                id,
                reply: reply_tx,
                kind: Query::Snapshot(path),
            },
            RequestBody::Subscribe { buffer, pace_ms } => {
                let cap = if buffer == 0 {
                    shared.sub_buffer
                } else {
                    buffer
                };
                let (events_tx, events_rx) = mpsc::sync_channel(cap);
                let item = WorkItem::Subscribe {
                    id,
                    reply: reply_tx,
                    events: events_tx,
                };
                if work_tx.send(item).is_err() {
                    return write_shutting_down(&mut writer, id);
                }
                let Ok(ack) = reply_rx.recv() else {
                    return write_shutting_down(&mut writer, id);
                };
                write_line(&mut writer, ack)?;
                // This connection is now an event stream: pump until the
                // engine drops our sender (shutdown) or the write fails
                // (client gone). `pace_ms` artificially slows this pump —
                // the deterministic slow-consumer knob for tests.
                for event in events_rx {
                    if pace_ms > 0 {
                        thread::sleep(Duration::from_millis(pace_ms));
                    }
                    if write_line(&mut writer, event).is_err() {
                        return Ok(());
                    }
                }
                return Ok(());
            }
            RequestBody::Shutdown => WorkItem::Shutdown {
                id,
                reply: reply_tx,
            },
        };
        // A full ingest queue blocks here — the backpressure point.
        if work_tx.send(item).is_err() {
            return write_shutting_down(&mut writer, id);
        }
        let Ok(reply) = reply_rx.recv() else {
            return write_shutting_down(&mut writer, id);
        };
        write_line(&mut writer, reply)?;
        if last {
            return Ok(());
        }
    }
}

/// The reply written when the engine is no longer accepting work.
fn write_shutting_down<W: Write>(writer: &mut W, id: u64) -> io::Result<()> {
    let reply = error_reply(id, "bad_request", "server is shutting down");
    write_line(writer, reply.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::NodeId;

    /// A monitored 1-shard engine loop over an `a -> b` topology, plus a
    /// live sender feeding its work channel. Driving [`EngineLoop`]
    /// directly makes window composition deterministic — socket-level
    /// tests can't control which requests coalesce.
    fn test_engine() -> (EngineLoop, SyncSender<WorkItem>, NodeId, LinkId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        for node in [a, b] {
            topo.drop_link(node);
        }
        let config = DeltaNetConfig {
            monitor_violations: true,
            ..DeltaNetConfig::default()
        };
        let net = ShardedDeltaNet::with_parallelism(topo.clone(), config, 1, Parallelism::fixed(1));
        let session = Session::new(PersistNet::Sharded(Box::new(net)), None);
        let (tx, rx) = mpsc::sync_channel(8);
        let shared = Arc::new(Shared {
            topology: topo,
            shutdown: AtomicBool::new(false),
            sub_buffer: 4,
        });
        let engine = EngineLoop {
            session,
            rx,
            shared,
            window: 32,
            queue_cap: 8,
            audit: false,
            seq: 0,
            audits: 0,
            mismatches: 0,
            subscribers: Vec::new(),
            pending: VecDeque::new(),
        };
        (engine, tx, a, ab)
    }

    fn insert(id: u64, src: NodeId, link: LinkId) -> Op {
        let prefix: IpPrefix = format!("10.{id}.0.0/16").parse().expect("valid prefix");
        Op::Insert(Rule::forward(RuleId(id), prefix, 10, src, link))
    }

    fn json(rx: &Receiver<String>) -> Json {
        let line = rx.try_recv().expect("an ack line must be waiting");
        parse(&line).expect("ack is json")
    }

    fn is_ok(j: &Json) -> Option<bool> {
        j.get("ok").and_then(Json::as_bool)
    }

    fn at(j: &Json) -> Option<u64> {
        j.get("at").and_then(Json::as_u64)
    }

    /// An applied op's ack carries its report, in whatever window it applied.
    fn assert_has_report(ack: &Json) {
        for key in ["affected_classes", "changed_links", "violations"] {
            assert!(ack.get(key).is_some(), "no `{key}` in {}", ack.render());
        }
    }

    /// A coalesced window where one client's request fully applies and a
    /// *later* client's op fails acks the applied request with its report,
    /// like an op of a clean window.
    #[test]
    fn failed_window_acks_fully_applied_items_with_their_reports() {
        let (mut engine, _tx, a, ab) = test_engine();
        let (good_tx, good_rx) = mpsc::channel();
        let (bad_tx, bad_rx) = mpsc::channel();
        engine.apply_window(vec![
            (1, good_tx, vec![insert(1, a, ab)], false),
            (2, bad_tx, vec![Op::Remove(RuleId(999))], false),
        ]);

        let good = json(&good_rx);
        assert_eq!(is_ok(&good), Some(true), "{}", good.render());
        assert_eq!(at(&good), Some(1), "{}", good.render());
        assert_has_report(&good);
        let bad = json(&bad_rx);
        assert_eq!(is_ok(&bad), Some(false), "{}", bad.render());
        assert_eq!(
            bad.get("kind").and_then(Json::as_str),
            Some("unknown_rule"),
            "{}",
            bad.render()
        );
        assert_eq!(engine.session.ops_applied(), 1);
        assert!(engine.pending.is_empty());
    }

    /// The batch shape of the same window: the fully-applied batch and the
    /// failing batch's applied prefix ack per op with their reports, and
    /// the request behind the failure re-queues untouched.
    #[test]
    fn failed_window_batch_acks_and_requeues_later_items() {
        let (mut engine, _tx, a, ab) = test_engine();
        let (first_tx, first_rx) = mpsc::channel();
        let (second_tx, second_rx) = mpsc::channel();
        let (third_tx, third_rx) = mpsc::channel();
        engine.apply_window(vec![
            (1, first_tx, vec![insert(1, a, ab), insert(2, a, ab)], true),
            (
                2,
                second_tx,
                vec![insert(3, a, ab), Op::Remove(RuleId(999)), insert(4, a, ab)],
                true,
            ),
            (3, third_tx, vec![insert(5, a, ab)], false),
        ]);

        let first = json(&first_rx);
        assert_eq!(is_ok(&first), Some(true), "{}", first.render());
        let acks = first.get("acks").and_then(Json::as_arr).expect("acks");
        assert_eq!(acks.len(), 2);
        assert_eq!(at(&acks[0]), Some(1));
        assert_eq!(at(&acks[1]), Some(2));
        acks.iter().for_each(assert_has_report);

        let second = json(&second_rx);
        assert_eq!(is_ok(&second), Some(false), "{}", second.render());
        assert_eq!(second.get("applied").and_then(Json::as_u64), Some(1));
        let acks = second.get("acks").and_then(Json::as_arr).expect("acks");
        assert_eq!(at(&acks[0]), Some(3));
        assert_has_report(&acks[0]);
        assert_eq!(
            acks[1].get("kind").and_then(Json::as_str),
            Some("unknown_rule")
        );
        assert_eq!(acks[2].get("kind").and_then(Json::as_str), Some("skipped"));

        // The third request's op was not applied; it waits in `pending`
        // and acks normally (with report deltas) in its follow-up window.
        assert!(third_rx.try_recv().is_err());
        assert_eq!(engine.session.ops_applied(), 3);
        let Some(WorkItem::Ops {
            id,
            reply,
            ops,
            batch,
        }) = engine.pending.pop_front()
        else {
            panic!("deferred request must be re-queued");
        };
        assert_eq!(id, 3);
        assert!(engine.pending.is_empty());
        engine.apply_window(vec![(id, reply, ops, batch)]);
        let third = json(&third_rx);
        assert_eq!(is_ok(&third), Some(true), "{}", third.render());
        assert_eq!(at(&third), Some(4), "{}", third.render());
        assert_has_report(&third);
    }

    /// Regression: a durable restart keeps `--workers`. The engine
    /// recovered from a checkpoint directory used to run at the
    /// environment's worker count instead of the configured one.
    #[test]
    fn recovered_engine_keeps_the_configured_parallelism() {
        let dir =
            std::env::temp_dir().join(format!("deltanet-service-workers-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.add_link(a, b);
        // The first pass starts the directory, the second recovers from it.
        for (workers, fresh) in [(3, true), (7, false)] {
            let config = ServiceConfig {
                parallelism: Parallelism::fixed(workers),
                checkpoint: Some(CheckpointSetup {
                    dir: dir.clone(),
                    config: CheckpointConfig::default(),
                }),
                ..ServiceConfig::default()
            };
            let mut session = open_engine(&topo, &config).expect("build or recover");
            let journal = session
                .journal()
                .expect("a checkpoint dir mounts a journal");
            assert_eq!(journal.checkpoints_written(), u64::from(fresh));
            let net = session.net().as_sharded().expect("the daemon runs sharded");
            assert_eq!(net.parallelism().workers(), workers);
            session.close().expect("close the journal");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (review): work the daemon already accepted — queued
    /// behind a `shutdown` request — is applied and acked before the
    /// engine exits, not silently dropped.
    #[test]
    fn shutdown_drains_the_queued_backlog_before_exiting() {
        let (engine, tx, a, ab) = test_engine();
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let (late_tx, late_rx) = mpsc::channel();
        tx.send(WorkItem::Shutdown {
            id: 1,
            reply: shutdown_tx,
        })
        .expect("queue shutdown");
        tx.send(WorkItem::Ops {
            id: 2,
            reply: late_tx,
            ops: vec![insert(1, a, ab)],
            batch: false,
        })
        .expect("queue late op");

        // The engine must exit on its own despite `tx` staying alive.
        thread::spawn(move || engine.run())
            .join()
            .expect("engine thread");

        let bye = json(&shutdown_rx);
        assert_eq!(
            bye.get("shutting_down").and_then(Json::as_bool),
            Some(true),
            "{}",
            bye.render()
        );
        let late = json(&late_rx);
        assert_eq!(is_ok(&late), Some(true), "{}", late.render());
        assert_eq!(at(&late), Some(1), "{}", late.render());
    }

    /// `left` bytes of `x` with no newline, handed out in 64 KiB reads,
    /// then `tail`: a client that floods one line before a valid request.
    struct Flood {
        left: usize,
        tail: &'static [u8],
    }

    impl io::Read for Flood {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.left > 0 {
                let n = buf.len().min(self.left).min(1 << 16);
                buf[..n].fill(b'x');
                self.left -= n;
                return Ok(n);
            }
            let n = buf.len().min(self.tail.len());
            buf[..n].copy_from_slice(&self.tail[..n]);
            self.tail = &self.tail[n..];
            Ok(n)
        }
    }

    const STATS: &[u8] = b"\n{\"id\": 2, \"op\": \"stats\"}\r\n";

    fn flood() -> BufReader<Flood> {
        BufReader::new(Flood {
            left: 2 * MAX_LINE_BYTES,
            tail: STATS,
        })
    }

    /// Twice the cap with no newline: the reader holds at most the cap,
    /// drops the line through its newline, and reads the next one whole.
    #[test]
    fn capped_reader_never_buffers_past_the_cap() {
        let mut reader = flood();
        let mut line = Vec::new();
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Framed::TooLong);
        assert!(line.capacity() <= MAX_LINE_BYTES, "{}", line.capacity());
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Framed::Line);
        assert_eq!(line, br#"{"id": 2, "op": "stats"}"#);
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Framed::Eof);
        // A final line with no newline still counts.
        let mut reader = BufReader::new(&b"{}"[..]);
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Framed::Line);
        assert_eq!(line, b"{}");
    }

    /// The connection answers the over-long line with a `bad_request`
    /// naming the cap, then serves the request behind it.
    #[test]
    fn over_long_line_is_a_bad_request_and_the_connection_continues() {
        let (engine, tx, _, _) = test_engine();
        let shared = Arc::clone(&engine.shared);
        let engine = thread::spawn(move || engine.run());
        let mut out = Vec::new();
        handle_connection(flood(), &mut out, &shared, &tx).expect("connection");
        drop(tx);
        engine.join().expect("engine thread");

        let out = String::from_utf8(out).expect("replies are UTF-8");
        let replies: Vec<Json> = out.lines().map(|l| parse(l).expect("json")).collect();
        assert_eq!(replies.len(), 2, "{out}");
        assert_eq!(replies[0].get("id"), Some(&Json::Null), "{out}");
        assert_eq!(
            replies[0].get("kind").and_then(Json::as_str),
            Some("bad_request")
        );
        let error = replies[0]
            .get("error")
            .and_then(Json::as_str)
            .expect("error");
        assert!(error.contains("MAX_LINE_BYTES"), "{error}");
        assert_eq!(
            replies[1].get("id").and_then(Json::as_u64),
            Some(2),
            "{out}"
        );
        assert_eq!(is_ok(&replies[1]), Some(true), "{out}");
    }

    /// The largest line the CLI `client` sends — a `batch` of 2,048 ops,
    /// its `--batch` ceiling — fits the cap at the longest op encoding.
    #[test]
    fn largest_client_batch_fits_the_line_cap() {
        use netmodel::header::SecondaryMatch;
        use netmodel::interval::Interval;
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let top = 1u128 << 63;
        let rule = Rule::forward(
            RuleId(u64::MAX),
            IpPrefix::new((1 << 127) - 1, 127, 127),
            u32::MAX,
            a,
            ab,
        )
        .with_secondary(SecondaryMatch::new(&[Interval::new(top - 1, top); 2]));
        let ops = vec![Op::Insert(rule); 2048];
        let line = crate::proto::batch_request(1, &ops, &topo).render();
        // The two node ids here are one digit; a u32 id has ten.
        let longest = line.len() + ops.len() * 2 * 9;
        assert!(longest < MAX_LINE_BYTES * 6 / 10, "{longest} bytes");
        assert!(parse_request(&line, &topo).is_ok());
    }
}

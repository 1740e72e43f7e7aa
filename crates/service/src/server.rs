//! The verification daemon's threads around the sequential core
//! (`core::Core`, which answers every request and states the window, ack
//! and re-queue contract).
//!
//! ```text
//!  client ──TCP──▶ reader ──(bounded ingest queue)──▶ engine-thread shell ──▶ Core
//!                   ▲   │   (sync_channel: *backpressure*)                    │ owns the
//!                   │   ◀──────── reply line (one channel per connection) ────┤ Session
//!                   │                                                         │
//!  subscriber ◀── event pump ◀──────────(bounded event buffer)────────────────┘
//! ```
//!
//! * One **reader** per connection reads each request line as bytes, never
//!   more than [`MAX_LINE_BYTES`] of it, and decodes it with
//!   [`parse_request`]; an over-long line, one that is not UTF-8, or one
//!   that is not a request is a `bad_request`, and the connection goes on.
//!   It forwards each request, without looking inside, into the bounded
//!   ingest queue with the connection's one reply channel, and waits for
//!   the reply. A full queue blocks the reader — and the client's socket —
//!   which is the protocol's backpressure. The reply says what comes next:
//!   read on, stop after a `shutdown` ack, or become the subscriber's
//!   **event pump**.
//! * The **engine thread** moves requests from the queue into the core
//!   while the core's open window has room, blocking only when the core
//!   holds none, then steps it. After a `shutdown` it drains the queue's
//!   backlog without blocking and stops: accepted work is applied and
//!   acked, not dropped.

use crate::core::{Core, Item, Then};
use crate::proto::{error_reply, error_reply_no_id, parse_request, ProtoError};
use deltanet::{CheckpointConfig, DeltaNetConfig, Parallelism};
use netmodel::topology::Topology;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
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
    /// Number of address-space shards (≥ 1). The default is 1: two shards
    /// did not pass the measured rule for write-path sharding (≥1.3× over
    /// one shard on two CPUs at some window ≤512, in ≥9 of 10 paired runs;
    /// ROADMAP item 2), so the daemon runs one shard unless a caller of
    /// the library asks for more.
    pub shards: usize,
    /// Worker threads for per-window shard groups
    /// ([`Parallelism::auto`] by default).
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
            shards: 1,
            parallelism: Parallelism::auto(),
            window: 32,
            queue: 128,
            sub_buffer: 256,
            audit: false,
            checkpoint: None,
        }
    }
}

/// The daemon, bound to a TCP listener. [`Server::run`] accepts
/// connections until a `shutdown` request arrives.
pub struct Server {
    listener: TcpListener,
    engine: Engine,
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
        let engine = Engine::start(topology, config)?;
        Ok(Server { listener, engine })
    }

    /// The bound address (for ephemeral-port discovery).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a client sends `shutdown`;
    /// returns once the engine thread has drained and exited.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.engine.thread.is_finished() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let topology = Arc::clone(&self.engine.topology);
                    let queue = self.engine.queue.clone();
                    thread::spawn(move || {
                        stream.set_nodelay(true).ok();
                        let reader = stream.try_clone().map(BufReader::new);
                        let _ =
                            reader.and_then(|r| handle_connection(r, stream, &topology, &queue));
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        self.engine.stop();
        Ok(())
    }
}

/// Serves the ndjson protocol over stdin/stdout instead of TCP — the same
/// engine and semantics, one implicit connection. Returns at EOF or after
/// a `shutdown` request.
pub fn serve_stdio(topology: Topology, config: ServiceConfig) -> io::Result<()> {
    let engine = Engine::start(topology, config)?;
    let (stdin, stdout) = (io::stdin(), io::stdout());
    let result = handle_connection(stdin.lock(), stdout.lock(), &engine.topology, &engine.queue);
    engine.stop(); // EOF without `shutdown` still closes the engine cleanly
    result
}

/// The engine thread and what connections need to reach it.
struct Engine {
    /// The prepared topology requests are decoded against.
    topology: Arc<Topology>,
    queue: SyncSender<Item>,
    thread: thread::JoinHandle<()>,
}

impl Engine {
    /// Builds the core and spawns the engine thread around it.
    fn start(topology: Topology, config: ServiceConfig) -> io::Result<Engine> {
        let core = Core::new(topology, config)?;
        let topology = Arc::clone(&core.topology);
        let (queue, requests) = mpsc::sync_channel(core.queue);
        let thread = thread::spawn(move || run_engine(core, requests));
        Ok(Engine {
            topology,
            queue,
            thread,
        })
    }

    /// Closes the queue and waits for the engine thread to drain it.
    fn stop(self) {
        drop(self.queue);
        let _ = self.thread.join();
    }
}

/// The engine thread: moves requests from the queue into `core` while its
/// open window has room — blocking only when the core holds none — and
/// steps it. After `shutdown` it drains the queue's backlog without
/// blocking and stops; it also stops once every sender is gone.
fn run_engine(mut core: Core, requests: Receiver<Item>) {
    loop {
        if core.pending.is_empty() {
            let next = if core.shutting_down {
                requests.try_recv().ok()
            } else {
                requests.recv().ok()
            };
            let Some(item) = next else { break };
            core.pending.push_back(item);
        }
        while core.has_room() {
            let Ok(item) = requests.try_recv() else { break };
            core.pending.push_back(item);
        }
        core.step();
    }
    if let Err(e) = core.close() {
        eprintln!("warning: checkpoint close failed: {e}");
    }
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
/// stream or stdin/stdout). Requests are answered strictly in order, each
/// on the connection's one reply channel; a `subscribe` turns the
/// connection into an event stream and stops reading, and a `shutdown`
/// ends it once its ack is written.
fn handle_connection<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    topology: &Topology,
    queue: &SyncSender<Item>,
) -> io::Result<()> {
    let (mut reply, replies) = mpsc::channel();
    let mut line = Vec::new();
    loop {
        let parsed = match read_line(&mut reader, &mut line)? {
            Framed::Eof => return Ok(()),
            Framed::Line if line.iter().all(u8::is_ascii_whitespace) => continue,
            Framed::Line => parse_request(&line, topology),
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
        let id = request.id;
        // A full ingest queue blocks here — the backpressure point.
        let sent = queue.send(Item { request, reply });
        let Some(answer) = sent.ok().and_then(|()| replies.recv().ok()) else {
            let reply = error_reply(id, "bad_request", "server is shutting down");
            return write_line(&mut writer, reply.render());
        };
        reply = answer.reply;
        write_line(&mut writer, answer.line)?;
        match answer.then {
            Then::Read => {}
            Then::Stop => return Ok(()),
            Then::Pump { events, pace_ms } => {
                // Pump until the core drops our sender (shutdown) or the
                // write fails (client gone).
                for event in events {
                    if pace_ms > 0 {
                        thread::sleep(Duration::from_millis(pace_ms));
                    }
                    if write_line(&mut writer, event).is_err() {
                        break;
                    }
                }
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::{at, batch_item, insert, is_ok, item, json, op_item, test_core};
    use crate::json::{parse, Json};
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::trace::Op;

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
        let (mut engine, a, ab) = test_core();
        let (good_tx, good_rx) = mpsc::channel();
        let (bad_tx, bad_rx) = mpsc::channel();
        engine
            .pending
            .push_back(op_item(&engine, 1, insert(1, a, ab), &good_tx));
        engine
            .pending
            .push_back(op_item(&engine, 2, Op::Remove(RuleId(999)), &bad_tx));
        engine.step();

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
        let (mut engine, a, ab) = test_core();
        let (first_tx, first_rx) = mpsc::channel();
        let (second_tx, second_rx) = mpsc::channel();
        let (third_tx, third_rx) = mpsc::channel();
        let first = [insert(1, a, ab), insert(2, a, ab)];
        let second = [insert(3, a, ab), Op::Remove(RuleId(999)), insert(4, a, ab)];
        engine
            .pending
            .push_back(batch_item(&engine, 1, &first, &first_tx));
        engine
            .pending
            .push_back(batch_item(&engine, 2, &second, &second_tx));
        engine
            .pending
            .push_back(op_item(&engine, 3, insert(5, a, ab), &third_tx));
        engine.step();

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
        let Some(item) = engine.pending.pop_front() else {
            panic!("deferred request must be re-queued");
        };
        assert_eq!(item.request.id, 3);
        assert!(engine.pending.is_empty());
        engine.pending.push_back(item);
        engine.step();
        let third = json(&third_rx);
        assert_eq!(is_ok(&third), Some(true), "{}", third.render());
        assert_eq!(at(&third), Some(4), "{}", third.render());
        assert_has_report(&third);
    }

    /// Regression: a durable restart keeps its configured parallelism.
    /// The engine recovered from a checkpoint directory used to run at the
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
                shards: 2,
                parallelism: Parallelism::fixed(workers),
                checkpoint: Some(CheckpointSetup {
                    dir: dir.clone(),
                    config: CheckpointConfig::default(),
                }),
                ..ServiceConfig::default()
            };
            let core = Core::new(topo.clone(), config).expect("build or recover");
            let mut session = core.session;
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

    /// The default daemon runs one shard: two did not pass the measured
    /// sharding rule (ROADMAP item 2), and `deltanet serve` passes the
    /// default through.
    #[test]
    fn default_daemon_runs_one_shard() {
        let core = Core::new(Topology::new(), ServiceConfig::default()).expect("build");
        let net = core
            .session
            .net()
            .as_sharded()
            .expect("the daemon runs sharded");
        assert_eq!(net.shard_count(), 1);
    }

    /// Regression (review): work the daemon already accepted — queued
    /// behind a `shutdown` request — is applied and acked before the
    /// engine exits, not silently dropped.
    #[test]
    fn shutdown_drains_the_queued_backlog_before_exiting() {
        let (engine, a, ab) = test_core();
        let (tx, rx) = mpsc::sync_channel(8);
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let (late_tx, late_rx) = mpsc::channel();
        let shutdown = r#"{"id": 1, "op": "shutdown"}"#;
        tx.send(item(&engine, shutdown, &shutdown_tx))
            .expect("queue shutdown");
        tx.send(op_item(&engine, 2, insert(1, a, ab), &late_tx))
            .expect("queue late op");

        // The engine must exit on its own despite `tx` staying alive.
        thread::spawn(move || run_engine(engine, rx))
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
        let (engine, _, _) = test_core();
        let topology = Arc::clone(&engine.topology);
        let (tx, rx) = mpsc::sync_channel(8);
        let engine = thread::spawn(move || run_engine(engine, rx));
        let mut out = Vec::new();
        handle_connection(flood(), &mut out, &topology, &tx).expect("connection");
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

//! The daemon's engine side, sequential and free of I/O: [`Core`] owns the
//! [`Session`], the prepared topology, the settings, the counters, the
//! subscribers and the queued requests, and [`Core::step`] answers every
//! request kind in one `match`. It reaches connections only through
//! non-blocking sends (a reply `send`, a subscriber `try_send`), so a test
//! drives it one step at a time; the threads live in [`crate::server`].
//!
//! **Windows.** A window is the longest run of `insert` / `remove` /
//! `batch` requests at the front of the queue that applies at most
//! `window` ops (a larger first request is a window of its own); any other
//! request closes it. On a mid-window engine error every op that applied
//! acks `ok` with its report, whichever request it came from; the request
//! owning the failure acks its error and `skipped` for its remaining ops;
//! and later requests stay queued for the next window. Each window's
//! transitions then go to every subscriber's bounded buffer: a full buffer
//! drops the event, and a `{"event": "gap", "dropped": n}` marker goes out
//! once there is room. `seq` resumes from the recovered op count, so it
//! stays monotone across durable restarts.
//!
//! **Buffer limit.** A bounded channel allocates its slots up front, so
//! `queue`, `sub_buffer` and a `subscribe`'s `buffer` are each at most
//! [`MAX_BUFFER_SLOTS`]: a larger setting is an `InvalidInput` error from
//! [`Core::new`], a larger `buffer` a `bad_request`.

use crate::json::{obj, Json};
use crate::proto::{
    batch_op_ack, batch_op_error, batch_reply, error_reply, gap_event, ok_reply, transitions_event,
    update_error_kind, what_if_reply, BatchAck, Request, RequestBody,
};
use crate::server::ServiceConfig;
use deltanet::persist::{self, PersistError, RecoveryPolicy};
use deltanet::{FsBackend, PersistNet, Session, ShardedDeltaNet, Snapshot};
use netmodel::topology::Topology;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;

/// The most slots any bounded channel gets: 65,536, 2 MiB of 32-byte
/// slots — 256× the default subscriber buffer, 512× the default queue.
pub(crate) const MAX_BUFFER_SLOTS: usize = 1 << 16;

/// A queued request with its connection's reply channel.
pub(crate) struct Item {
    pub(crate) request: Request,
    pub(crate) reply: Sender<Answer>,
}

/// A reply: the line, what the connection does after writing it, and the
/// channel's sender handed back. The sender travels with each request, so
/// a core that stops without answering closes the channel.
pub(crate) struct Answer {
    pub(crate) line: String,
    pub(crate) then: Then,
    pub(crate) reply: Sender<Answer>,
}

/// What a connection does after writing a reply.
pub(crate) enum Then {
    Read,
    /// The reply acked `shutdown`.
    Stop,
    /// Write the subscriber's events until the core drops their sender,
    /// sleeping `pace_ms` before each (the slow-consumer knob for tests).
    Pump {
        events: Receiver<String>,
        pace_ms: u64,
    },
}

struct Subscriber {
    events: SyncSender<String>,
    /// Events dropped since the last line this subscriber received; a gap
    /// marker carrying this count is delivered once the buffer has room.
    dropped: u64,
    alive: bool,
}

/// The daemon's engine side (see the module docs).
pub(crate) struct Core {
    /// The engine, its journal when one is mounted, the op position and
    /// the transitions baseline.
    pub(crate) session: Session,
    /// The topology with every node's drop link pre-created.
    pub(crate) topology: Arc<Topology>,
    window: usize,
    pub(crate) queue: usize,
    sub_buffer: usize,
    audit: bool,
    /// The last transitions event's sequence number.
    seq: u64,
    audits: u64,
    mismatches: u64,
    subscribers: Vec<Subscriber>,
    /// Requests in arrival order, the open window's at the front.
    pub(crate) pending: VecDeque<Item>,
    /// A `shutdown` has been answered.
    pub(crate) shutting_down: bool,
}

impl Core {
    /// Prepares the topology and opens the session: a monitored sharded
    /// engine, built fresh or recovered from the checkpoint directory.
    pub(crate) fn new(mut topology: Topology, mut config: ServiceConfig) -> io::Result<Core> {
        let (queue, sub_buffer) = (config.queue, config.sub_buffer);
        if queue.max(sub_buffer) > MAX_BUFFER_SLOTS {
            let limit = format!("each at most MAX_BUFFER_SLOTS ({MAX_BUFFER_SLOTS})");
            let message = format!("queue {queue} / sub_buffer {sub_buffer}: {limit}");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
        config.engine.monitor_violations = true;
        config.shards = config.shards.max(1);
        // Drop links must exist before engine construction: each shard clones
        // the topology, so links created later would be unknown to the engine.
        let nodes: Vec<_> = topology.nodes().collect();
        for node in nodes {
            topology.drop_link(node);
        }
        let session = open_session(&topology, &config)?;
        Ok(Core {
            // Every event covers >= 1 op, so the recovered op count is an
            // upper bound on any seq a previous life issued.
            seq: session.ops_applied(),
            session,
            topology: Arc::new(topology),
            window: config.window.max(1),
            queue: config.queue.max(1),
            sub_buffer: config.sub_buffer.max(1),
            audit: config.audit,
            audits: 0,
            mismatches: 0,
            subscribers: Vec::new(),
            pending: VecDeque::new(),
            shutting_down: false,
        })
    }

    /// Whether the open window can take more: every queued request is an
    /// update, and together they apply fewer than `window` ops.
    pub(crate) fn has_room(&self) -> bool {
        let ops = self.pending.iter().map(|item| item.request.body.op_count());
        ops.sum::<Option<usize>>().is_some_and(|n| n < self.window)
    }

    /// Answers the request at the front of the queue, or applies the window
    /// of updates there; does nothing on an empty queue.
    pub(crate) fn step(&mut self) {
        let Some(Item { request, reply }) = self.pending.pop_front() else {
            return;
        };
        let id = request.id;
        let mut then = Then::Read;
        let line = match request.body {
            RequestBody::Insert(_) | RequestBody::Remove(_) | RequestBody::Batch(_) => {
                self.pending.push_front(Item { request, reply });
                return self.apply_window();
            }
            RequestBody::WhatIf {
                src,
                dst,
                check_loops,
            } => match self.topology.link_between(src, dst) {
                Some(link) => {
                    let checker = self.session.net().checker();
                    what_if_reply(id, &checker.what_if_link_failure(link, check_loops)).render()
                }
                None => {
                    let message = format!("no link {} -> {}", src.0, dst.0);
                    error_reply(id, "unknown_link", &message).render()
                }
            },
            RequestBody::Stats => self.stats(id).render(),
            RequestBody::Snapshot(path) => self.snapshot(id, path),
            RequestBody::Subscribe { buffer, pace_ms } => {
                let slots = if buffer == 0 { self.sub_buffer } else { buffer };
                if slots > MAX_BUFFER_SLOTS {
                    let message =
                        format!("`buffer` is above MAX_BUFFER_SLOTS ({MAX_BUFFER_SLOTS})");
                    error_reply(id, "bad_request", &message).render()
                } else {
                    let (sender, events) = mpsc::sync_channel(slots);
                    self.subscribers.push(Subscriber {
                        events: sender,
                        dropped: 0,
                        alive: true,
                    });
                    then = Then::Pump { events, pace_ms };
                    acked(id, "subscribed")
                }
            }
            RequestBody::Shutdown => {
                self.shutting_down = true;
                then = Then::Stop;
                acked(id, "shutting_down")
            }
        };
        answer(reply, line, then);
    }

    /// Applies the window at the front of the queue and acks every request
    /// it covers up to and including a failing one.
    fn apply_window(&mut self) {
        let (mut ops, mut len) = (Vec::new(), 0);
        while let Some(n) = self
            .pending
            .get(len)
            .and_then(|i| i.request.body.op_count())
        {
            if len > 0 && ops.len() + n > self.window {
                break;
            }
            self.pending[len].request.body.append_ops(&mut ops);
            len += 1;
        }
        let ops_before = self.session.ops_applied();
        let (reports, failure) = self.session.apply(&ops);
        let applied = reports.len();
        // The acks of window ops `offset..upto`, each with its own report.
        let acks_of = |offset: usize, upto: usize| -> Vec<BatchAck> {
            (offset..upto)
                .map(|i| batch_op_ack(ops_before + (i + 1) as u64, &reports[i]))
                .collect()
        };

        let mut offset = 0; // window-local index of the request's first op
        for _ in 0..len {
            let Item { request, reply } = self.pending.pop_front().expect("queued window");
            let batch = matches!(request.body, RequestBody::Batch(_));
            let end = offset + request.body.op_count().unwrap_or(0);
            let line = if end <= applied {
                if batch {
                    batch_reply(request.id, true, end - offset, acks_of(offset, end)).render()
                } else {
                    ok_reply(request.id, ops_before + end as u64, &reports[offset]).render()
                }
            } else {
                // This request owns the failure; its applied prefix acks
                // like any other applied op.
                let error = failure.as_ref().expect("partial request implies failure");
                let kind = update_error_kind(&error.error);
                let message = error.error.to_string();
                if batch {
                    let mut acks = acks_of(offset, applied);
                    acks.push(batch_op_error(kind, &message));
                    for _ in applied + 1..end {
                        let skipped = "an earlier op in this batch failed";
                        acks.push(batch_op_error("skipped", skipped));
                    }
                    batch_reply(request.id, false, applied - offset, acks).render()
                } else {
                    error_reply(request.id, kind, &message).render()
                }
            };
            answer(reply, line, Then::Read);
            if end > applied {
                // The requests behind the failure stay queued, in order:
                // their ops did not apply.
                break;
            }
            offset = end;
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

    /// A durable daemon checkpoints into its own directory; a plain one
    /// writes the snapshot where the client asked.
    fn snapshot(&mut self, id: u64, path: String) -> String {
        let session = &mut self.session;
        let dir = session.journal().and_then(|j| j.dir());
        let dir = dir.map(|dir| dir.display().to_string());
        let written = match dir {
            Some(_) => session.checkpoint_now(),
            None => {
                Snapshot::of_net(session.net(), session.ops_applied()).write_to(Path::new(&path))
            }
        };
        match written {
            Ok(()) => obj(vec![
                ("id", Json::int(id)),
                ("ok", Json::Bool(true)),
                ("path", Json::str(dir.unwrap_or(path))),
                ("ops_applied", Json::int(session.ops_applied())),
            ])
            .render(),
            Err(e) => error_reply(id, "io", &e.to_string()).render(),
        }
    }

    fn stats(&self, id: u64) -> Json {
        let net = self.session.net();
        let shards = net.as_sharded().map_or(1, ShardedDeltaNet::shard_count);
        // Counted by identity: rendering each violation's packets only to
        // count them would cost O(plane) on the engine thread.
        let violations = net.monitor_keys().map_or(0, |keys| keys.len());
        let net = net.checker();
        obj(vec![
            ("id", Json::int(id)),
            ("ok", Json::Bool(true)),
            ("ops_applied", Json::int(self.session.ops_applied())),
            ("rules", Json::int(net.rule_count())),
            ("atoms", Json::int(net.class_count())),
            ("violations", Json::int(violations)),
            ("shards", Json::int(shards)),
            ("window", Json::int(self.window)),
            ("queue", Json::int(self.queue)),
            ("subscribers", Json::int(self.subscribers.len())),
            ("events", Json::int(self.seq)),
            ("audits", Json::int(self.audits)),
            ("mismatches", Json::int(self.mismatches)),
            ("durable", Json::Bool(self.session.journal().is_some())),
        ])
    }

    /// Closes the journal (a durable engine syncs its log); dropping the
    /// core then ends every event pump.
    pub(crate) fn close(mut self) -> Result<(), PersistError> {
        self.session.close()
    }
}

/// Sends one reply, handing the channel's sender back with it.
fn answer(reply: Sender<Answer>, line: String, then: Then) {
    let back = reply.clone();
    let _ = reply.send(Answer {
        line,
        then,
        reply: back,
    });
}

/// `{"id": id, "ok": true, <key>: true}`.
fn acked(id: u64, key: &str) -> String {
    let ok = Json::Bool(true);
    obj(vec![("id", Json::int(id)), ("ok", ok.clone()), (key, ok)]).render()
}

/// The daemon's session: a monitored sharded engine at
/// `config.parallelism`, built fresh, or recovered from the checkpoint
/// directory when one is mounted, together with the journal that resumes it.
fn open_session(topology: &Topology, config: &ServiceConfig) -> io::Result<Session> {
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
    if net.last_events().is_none() {
        net.enable_monitor();
    }
    Ok(Session::new(net, journal))
}

impl Subscriber {
    /// Non-blocking delivery: once the buffer has room after a drop, a gap
    /// marker goes out *before* the next event, so the consumer knows its
    /// stream has a hole.
    fn deliver(&mut self, line: &str) {
        if self.dropped > 0 {
            if !self.offer(gap_event(self.dropped).render()) {
                return;
            }
            self.dropped = 0;
        }
        self.offer(line.to_string());
    }

    /// One `try_send`: a full buffer counts the event as dropped, and a
    /// gone receiver retires the subscriber.
    fn offer(&mut self, line: String) -> bool {
        match self.events.try_send(line) {
            Ok(()) => return true,
            Err(TrySendError::Full(_)) => self.dropped += 1,
            Err(TrySendError::Disconnected(_)) => self.alive = false,
        }
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::parse;
    use crate::proto::{batch_request, op_request, parse_request};
    use deltanet::Parallelism;
    use netmodel::checker::InvariantViolation;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::{LinkId, NodeId};
    use netmodel::trace::Op;

    /// A monitored 1-shard core over an `a -> b` topology. Driving the core
    /// directly makes window composition deterministic — socket-level
    /// tests can't control which requests coalesce.
    pub(crate) fn test_core() -> (Core, NodeId, LinkId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let config = ServiceConfig {
            shards: 1,
            parallelism: Parallelism::fixed(1),
            window: 32,
            queue: 8,
            sub_buffer: 4,
            ..ServiceConfig::default()
        };
        (Core::new(topo, config).expect("build the core"), a, ab)
    }

    pub(crate) fn insert(id: u64, src: NodeId, link: LinkId) -> Op {
        let prefix: IpPrefix = format!("10.{id}.0.0/16").parse().expect("valid prefix");
        Op::Insert(Rule::forward(RuleId(id), prefix, 10, src, link))
    }

    /// A request line, decoded against the core's topology, that replies
    /// on `reply`.
    pub(crate) fn item(core: &Core, line: &str, reply: &Sender<Answer>) -> Item {
        let request = parse_request(line, &core.topology).expect("a valid request");
        let reply = reply.clone();
        Item { request, reply }
    }

    /// A single-op request: an `insert` or a `remove`.
    pub(crate) fn op_item(core: &Core, id: u64, op: Op, reply: &Sender<Answer>) -> Item {
        item(core, &op_request(id, &op, &core.topology).render(), reply)
    }

    pub(crate) fn batch_item(core: &Core, id: u64, ops: &[Op], reply: &Sender<Answer>) -> Item {
        item(
            core,
            &batch_request(id, ops, &core.topology).render(),
            reply,
        )
    }

    /// The next reply waiting on `rx`, parsed.
    pub(crate) fn json(rx: &Receiver<Answer>) -> Json {
        let answer = rx.try_recv().expect("an ack line must be waiting");
        parse(&answer.line).expect("ack is json")
    }

    pub(crate) fn is_ok(j: &Json) -> Option<bool> {
        j.get("ok").and_then(Json::as_bool)
    }

    pub(crate) fn at(j: &Json) -> Option<u64> {
        j.get("at").and_then(Json::as_u64)
    }

    fn stat(core: &mut Core, key: &str) -> u64 {
        let (tx, rx) = mpsc::channel();
        core.pending
            .push_back(item(core, r#"{"id": 90, "op": "stats"}"#, &tx));
        core.step();
        let stats = json(&rx);
        stats
            .get(key)
            .and_then(Json::as_u64)
            .expect("a stats counter")
    }

    /// A `subscribe` asking for more than [`MAX_BUFFER_SLOTS`] is a
    /// `bad_request` carrying its id, registers no subscriber, and the
    /// connection reads on.
    #[test]
    fn over_cap_subscribe_is_a_bad_request_and_the_connection_reads_on() {
        let (mut core, _, _) = test_core();
        let (tx, rx) = mpsc::channel();
        let line = format!(
            r#"{{"id": 1, "op": "subscribe", "buffer": {}}}"#,
            MAX_BUFFER_SLOTS + 1
        );
        core.pending.push_back(item(&core, &line, &tx));
        core.step();
        let answer = rx.try_recv().expect("a reply");
        assert!(matches!(answer.then, Then::Read));
        let reply = parse(&answer.line).expect("json");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(is_ok(&reply), Some(false));
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some("bad_request")
        );
        let error = reply.get("error").and_then(Json::as_str).expect("error");
        assert!(error.contains("MAX_BUFFER_SLOTS (65536)"), "{error}");
        assert_eq!(stat(&mut core, "subscribers"), 0);

        // `buffer: 0` still means the default.
        core.pending.push_back(item(
            &core,
            r#"{"id": 2, "op": "subscribe", "buffer": 0}"#,
            &tx,
        ));
        core.step();
        assert!(matches!(
            rx.try_recv().expect("ack").then,
            Then::Pump { .. }
        ));
        assert_eq!(stat(&mut core, "subscribers"), 1);
    }

    /// A `queue` or `sub_buffer` above [`MAX_BUFFER_SLOTS`] is refused
    /// before any channel is made.
    #[test]
    fn over_cap_queue_or_sub_buffer_is_invalid_input() {
        let over = MAX_BUFFER_SLOTS + 1;
        for config in [
            ServiceConfig {
                queue: over,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                sub_buffer: over,
                ..ServiceConfig::default()
            },
        ] {
            let Err(e) = Core::new(Topology::new(), config) else {
                panic!("a {over}-slot buffer must be refused");
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains("MAX_BUFFER_SLOTS"), "{e}");
        }
    }

    /// `stats` counts the active violations by identity, and the count is
    /// the length of their rendering, on a plane with a loop and a
    /// blackhole.
    #[test]
    fn stats_counts_the_violations_it_does_not_render() {
        let mut topo = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| topo.add_node(name));
        let (ab, ba, ac) = (
            topo.add_link(a, b),
            topo.add_link(b, a),
            topo.add_link(a, c),
        );
        let config = ServiceConfig {
            shards: 1,
            parallelism: Parallelism::fixed(1),
            ..ServiceConfig::default()
        };
        let mut core = Core::new(topo, config).expect("build the core");
        let hop = |id: u64, prefix: &str, src: NodeId, link: LinkId| {
            let prefix: IpPrefix = prefix.parse().expect("valid prefix");
            Op::Insert(Rule::forward(RuleId(id), prefix, 10, src, link))
        };
        // 10/16 loops a -> b -> a; 11/16 dies at c, which has no rule.
        let ops = [
            hop(1, "10.0.0.0/16", a, ab),
            hop(2, "10.0.0.0/16", b, ba),
            hop(3, "11.0.0.0/16", a, ac),
        ];
        let (tx, rx) = mpsc::channel();
        core.pending.push_back(batch_item(&core, 1, &ops, &tx));
        core.step();
        assert_eq!(is_ok(&json(&rx)), Some(true));
        let rendered = core.session.net().checker().active_violations();
        let rendered = rendered.expect("the daemon monitors");
        assert!(matches!(
            rendered.as_slice(),
            [
                InvariantViolation::ForwardingLoop { .. },
                InvariantViolation::Blackhole { .. }
            ]
        ));
        assert_eq!(stat(&mut core, "violations"), rendered.len() as u64);
    }

    /// The drop-with-gap policy, step by step: a 2-slot subscriber nobody
    /// drains keeps two events and counts the rest; once drained, the next
    /// window delivers a gap marker with that count before its own event;
    /// and a subscriber whose receiver is gone is removed.
    #[test]
    fn undrained_subscriber_drops_then_gaps_then_is_removed() {
        let (mut core, a, ab) = test_core();
        let (tx, rx) = mpsc::channel();
        core.pending.push_back(item(
            &core,
            r#"{"id": 1, "op": "subscribe", "buffer": 2}"#,
            &tx,
        ));
        core.step();
        let Then::Pump { events, .. } = rx.try_recv().expect("subscribe ack").then else {
            panic!("a subscribe ack turns the connection into a pump");
        };
        // One rule flapping on a -> b toggles the blackhole at b: every
        // one-op window emits exactly one transitions event.
        let window = |core: &mut Core, i: u64| {
            let op = match i % 2 {
                0 => insert(1, a, ab),
                _ => Op::Remove(RuleId(1)),
            };
            core.pending.push_back(op_item(core, i, op, &tx));
            core.step();
            assert_eq!(is_ok(&json(&rx)), Some(true));
        };

        for i in 0..5 {
            window(&mut core, i);
        }
        let kept: Vec<String> = events.try_iter().collect();
        assert_eq!(kept.len(), 2, "{kept:?}");
        assert_eq!(core.subscribers[0].dropped, 3);

        window(&mut core, 5);
        let lines: Vec<Json> = events.try_iter().map(|l| parse(&l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], gap_event(3));
        assert_eq!(
            lines[1].get("event").and_then(Json::as_str),
            Some("transitions")
        );
        assert_eq!(lines[1].get("seq").and_then(Json::as_u64), Some(6));
        assert_eq!(stat(&mut core, "events"), 6);

        let before = stat(&mut core, "subscribers");
        drop(events);
        window(&mut core, 6);
        assert_eq!(stat(&mut core, "subscribers"), before - 1);
    }
}

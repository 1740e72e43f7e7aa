//! Differential tests for the verification daemon: the event stream and
//! final state of a live server over loopback, with interleaved clients,
//! must be bit-identical to what an offline [`ShardedDeltaNet`] fed the
//! same ops in the acknowledged order shows between successive full scans
//! — an oracle that never reads the monitor's repair.
//!
//! The acks' `at` field — the 1-based global count of applied ops — is the
//! daemon's serialization order, so concurrent clients' interleavings are
//! fully reconstructible and the oracle replays them exactly.

use deltanet::{
    CheckpointConfig, DeltaNetConfig, Durability, MonitorTransitions, Parallelism, ShardedDeltaNet,
    Snapshot, ViolationKey,
};
use netmodel::checker::Checker;
use netmodel::checker::InvariantViolation;
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use service::json::{obj, parse, Json};
use service::proto::{batch_request, op_request, transitions_event, what_if_reply};
use service::server::{CheckpointSetup, Server, ServiceConfig};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// A blocking ndjson client: one request out, one reply line back.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to daemon");
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { reader, writer }
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("write request");
        self.writer.flush().expect("flush request");
        let reply = self
            .read_line()
            .expect("daemon replies one line per request");
        parse(&reply).unwrap_or_else(|e| panic!("reply is not json ({e}): {reply}"))
    }

    /// Reads every remaining line until the daemon closes the connection
    /// (the event-stream tail of a subscriber).
    fn drain(mut self) -> Vec<String> {
        let mut lines = Vec::new();
        while let Some(line) = self.read_line() {
            lines.push(line);
        }
        lines
    }
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing integer `{key}` in {}", j.render()))
}

fn ok(j: &Json) -> bool {
    j.get("ok").and_then(Json::as_bool) == Some(true)
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {}", j.render()))
}

fn pfx(s: &str) -> IpPrefix {
    s.parse().expect("valid prefix")
}

/// A 4-node unidirectional ring: inserting one rule per hop for a prefix
/// closes a forwarding loop; any missing hop strands traffic (blackhole).
fn ring_topology() -> (Topology, Vec<NodeId>, Vec<LinkId>) {
    let mut topo = Topology::new();
    let nodes = topo.add_nodes("s", 4);
    let links = (0..4)
        .map(|i| topo.add_link(nodes[i], nodes[(i + 1) % 4]))
        .collect();
    (topo, nodes, links)
}

/// One client's op sequence: rule ids and the prefix are private to the
/// lane, so any interleaving of lanes is valid (a lane never removes
/// another lane's rules), while the violation *keys* (cycle node sets,
/// blackhole nodes) are shared — transitions genuinely depend on the
/// global order the daemon picks.
fn lane_ops(lane: u64, rounds: usize, nodes: &[NodeId], links: &[LinkId]) -> Vec<Op> {
    let prefix = pfx(&format!("10.{lane}.0.0/16"));
    let rule = |k: usize| {
        Rule::forward(
            RuleId(1000 * lane + k as u64),
            prefix,
            10,
            nodes[k],
            links[k],
        )
    };
    let mut ops = Vec::new();
    for _ in 0..rounds {
        for i in 0..4 {
            ops.push(Op::Insert(rule(i))); // ...3rd insert closes the loop
        }
        ops.push(Op::Remove(RuleId(1000 * lane + 3))); // loop breaks, s3 strands
        ops.push(Op::Insert(rule(3))); // loop re-forms
        for i in 0..4 {
            ops.push(Op::Remove(RuleId(1000 * lane + i as u64)));
        }
    }
    ops
}

/// The offline oracle: the same prepared topology (drop links for every
/// node, as the daemon creates) and engine config as the daemon's.
fn oracle(topo: &Topology, shards: usize) -> ShardedDeltaNet {
    let mut prepared = topo.clone();
    let nodes: Vec<NodeId> = prepared.nodes().collect();
    for node in nodes {
        prepared.drop_link(node);
    }
    let config = DeltaNetConfig {
        monitor_violations: true,
        ..DeltaNetConfig::default()
    };
    let mut net =
        ShardedDeltaNet::with_parallelism(prepared, config, shards, Parallelism::fixed(1));
    net.enable_monitor();
    net
}

/// The violation identities a full scan of `net` finds.
fn scan_keys(net: &ShardedDeltaNet) -> BTreeSet<ViolationKey> {
    let mut scan = net.check_all_loops();
    scan.extend(net.check_all_blackholes());
    scan.iter()
        .map(|violation| match violation {
            InvariantViolation::ForwardingLoop { nodes, .. } => ViolationKey::Loop(nodes.clone()),
            InvariantViolation::Blackhole { node, .. } => ViolationKey::Blackhole(*node),
        })
        .collect()
}

/// Replays `order` (the daemon's acked serialization) per-op through the
/// oracle and renders the exact event lines a window=1 daemon must emit —
/// each op's diff of the full scans around it, when not empty — plus the
/// final violation count.
fn expected_stream(topo: &Topology, shards: usize, order: &[(u64, Op)]) -> (Vec<String>, usize) {
    let mut net = oracle(topo, shards);
    let mut before = scan_keys(&net);
    let mut lines = Vec::new();
    let mut seq = 0u64;
    for (at, op) in order {
        net.apply_batch(std::slice::from_ref(op))
            .expect("oracle replays the acked order cleanly");
        let after = scan_keys(&net);
        let t = MonitorTransitions {
            appeared: after.difference(&before).cloned().collect(),
            resolved: before.difference(&after).cloned().collect(),
        };
        if !t.is_empty() {
            seq += 1;
            lines.push(transitions_event(seq, *at, *at, &t).render());
        }
        before = after;
    }
    (lines, before.len())
}

/// Sorts per-client `(at, op)` acks into the daemon's global order and
/// checks the positions are exactly `1..=n` — no holes, no duplicates.
fn global_order(mut acked: Vec<(u64, Op)>) -> Vec<(u64, Op)> {
    acked.sort_by_key(|(at, _)| *at);
    let ats: Vec<u64> = acked.iter().map(|(at, _)| *at).collect();
    assert_eq!(
        ats,
        (1..=acked.len() as u64).collect::<Vec<_>>(),
        "acked `at` positions must form the exact global apply order"
    );
    acked
}

fn spawn_subscriber(addr: SocketAddr, extra: &str) -> thread::JoinHandle<Vec<String>> {
    let mut client = Client::connect(addr);
    let ack = client.request(&format!("{{\"id\": 1, \"op\": \"subscribe\"{extra}}}"));
    assert!(
        ack.get("subscribed").and_then(Json::as_bool) == Some(true),
        "subscribe ack: {}",
        ack.render()
    );
    thread::spawn(move || client.drain())
}

#[test]
fn per_op_stream_matches_offline_monitor_across_three_subscribers() {
    let (topo, nodes, links) = ring_topology();
    let config = ServiceConfig {
        shards: 2,
        window: 1, // per-op windows: the event stream is fully predictable
        audit: true,
        ..ServiceConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", topo.clone(), config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    // Subscribers register before any op, so all of them must see the
    // whole stream.
    let subscribers: Vec<_> = (0..3).map(|_| spawn_subscriber(addr, "")).collect();

    // Three clients interleave their lanes over separate connections.
    let workers: Vec<_> = (0..3u64)
        .map(|lane| {
            let ops = lane_ops(lane, 2, &nodes, &links);
            let topo = topo.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut acked = Vec::new();
                for (i, op) in ops.iter().enumerate() {
                    let reply = client.request(&op_request(i as u64, op, &topo).render());
                    assert!(ok(&reply), "op rejected: {}", reply.render());
                    acked.push((u(&reply, "at"), *op));
                }
                acked
            })
        })
        .collect();
    let acked: Vec<(u64, Op)> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let order = global_order(acked);
    let total = order.len() as u64;

    let (expected, oracle_violations) = expected_stream(&topo, 2, &order);
    assert!(
        !expected.is_empty(),
        "the flap trace must produce transitions"
    );

    let mut control = Client::connect(addr);
    let stats = control.request(r#"{"id": 90, "op": "stats"}"#);
    assert!(ok(&stats), "{}", stats.render());
    assert_eq!(u(&stats, "ops_applied"), total);
    assert_eq!(u(&stats, "violations"), oracle_violations as u64);
    assert_eq!(u(&stats, "subscribers"), 3);
    assert!(u(&stats, "audits") >= 1, "audit mode must have run");
    assert_eq!(
        u(&stats, "mismatches"),
        0,
        "incremental monitor diverged from full rescans"
    );
    assert_eq!(u(&stats, "events"), expected.len() as u64);

    let bye = control.request(r#"{"id": 91, "op": "shutdown"}"#);
    assert!(bye.get("shutting_down").and_then(Json::as_bool) == Some(true));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    for (i, sub) in subscribers.into_iter().enumerate() {
        let lines = sub.join().expect("subscriber thread");
        assert_eq!(
            lines, expected,
            "subscriber {i} diverged from the offline monitor"
        );
    }
}

#[test]
fn windowed_batches_converge_with_zero_audit_mismatches() {
    let (topo, nodes, links) = ring_topology();
    let config = ServiceConfig {
        shards: 2,
        window: 16, // several batch items coalesce into one apply_batch
        audit: true,
        ..ServiceConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", topo.clone(), config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    let subscriber = spawn_subscriber(addr, "");

    let workers: Vec<_> = (0..3u64)
        .map(|lane| {
            let ops = lane_ops(lane, 2, &nodes, &links);
            let topo = topo.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut acked = Vec::new();
                for (i, chunk) in ops.chunks(5).enumerate() {
                    let reply = client.request(&batch_request(i as u64, chunk, &topo).render());
                    assert!(ok(&reply), "batch rejected: {}", reply.render());
                    assert_eq!(u(&reply, "applied"), chunk.len() as u64);
                    let acks = reply
                        .get("acks")
                        .and_then(Json::as_arr)
                        .expect("acks array");
                    assert_eq!(acks.len(), chunk.len());
                    let first = u(&acks[0], "at");
                    for (k, (ack, op)) in acks.iter().zip(chunk).enumerate() {
                        // A batch item is applied whole, so its ops take
                        // consecutive global positions.
                        assert_eq!(u(ack, "at"), first + k as u64, "{}", reply.render());
                        acked.push((u(ack, "at"), *op));
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<(u64, Op)> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let order = global_order(acked);
    let total = order.len() as u64;

    // Event boundaries depend on how items coalesced, but the final state
    // must match an oracle replay of the acked order exactly.
    let (_, oracle_violations) = expected_stream(&topo, 2, &order);

    let mut control = Client::connect(addr);
    let stats = control.request(r#"{"id": 90, "op": "stats"}"#);
    assert_eq!(u(&stats, "ops_applied"), total);
    assert_eq!(u(&stats, "violations"), oracle_violations as u64);
    assert_eq!(
        u(&stats, "mismatches"),
        0,
        "incremental monitor diverged from full rescans"
    );
    let bye = control.request(r#"{"id": 91, "op": "shutdown"}"#);
    assert!(ok(&bye));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The windowed event stream is still well-formed: seq is dense, op
    // ranges are ordered and disjoint, and every event carries a change.
    let lines = subscriber.join().expect("subscriber thread");
    let mut prev_last = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let event = parse(line).expect("event json");
        assert_eq!(field(&event, "event"), "transitions");
        assert_eq!(u(&event, "seq"), i as u64 + 1, "{line}");
        let first = u(&event, "first_op");
        let last = u(&event, "last_op");
        assert!(
            first > prev_last && first <= last && last <= total,
            "{line}"
        );
        let appeared = event
            .get("appeared")
            .and_then(Json::as_arr)
            .expect("appeared");
        let resolved = event
            .get("resolved")
            .and_then(Json::as_arr)
            .expect("resolved");
        assert!(!appeared.is_empty() || !resolved.is_empty(), "{line}");
        prev_last = last;
    }
}

#[test]
fn mid_batch_failure_acks_applied_prefix_and_daemon_continues() {
    let (topo, nodes, links) = ring_topology();
    let server = Server::bind("127.0.0.1:0", topo.clone(), ServiceConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    let prefix = pfx("10.0.0.0/8");
    let r1 = Op::Insert(Rule::forward(RuleId(1), prefix, 10, nodes[0], links[0]));
    let bad = Op::Remove(RuleId(999)); // never inserted
    let r2 = Op::Insert(Rule::forward(RuleId(2), prefix, 10, nodes[1], links[1]));

    let mut client = Client::connect(addr);
    let reply = client.request(&batch_request(7, &[r1, bad, r2], &topo).render());
    assert!(!ok(&reply), "{}", reply.render());
    assert_eq!(u(&reply, "applied"), 1, "{}", reply.render());
    let acks = reply
        .get("acks")
        .and_then(Json::as_arr)
        .expect("acks array");
    assert_eq!(acks.len(), 3);
    assert!(
        ok(&acks[0]),
        "prefix op must be acked applied: {}",
        reply.render()
    );
    assert_eq!(u(&acks[0], "at"), 1);
    assert_eq!(field(&acks[1], "kind"), "unknown_rule");
    assert_eq!(field(&acks[2], "kind"), "skipped");

    // The applied prefix is real state and the daemon is not poisoned:
    // the op behind the failure can be resubmitted and lands at position 2.
    let reply = client.request(&op_request(8, &r2, &topo).render());
    assert!(ok(&reply), "{}", reply.render());
    assert_eq!(u(&reply, "at"), 2);
    let stats = client.request(r#"{"id": 9, "op": "stats"}"#);
    assert_eq!(u(&stats, "ops_applied"), 2);
    assert_eq!(u(&stats, "rules"), 2);
    let bye = client.request(r#"{"id": 10, "op": "shutdown"}"#);
    assert!(ok(&bye));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

#[test]
fn over_nested_line_is_a_bad_request_and_the_daemon_keeps_serving() {
    let (topo, nodes, links) = ring_topology();
    let server = Server::bind("127.0.0.1:0", topo.clone(), ServiceConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    // One stack frame per level would overflow the connection thread —
    // an abort of the whole daemon — long before 100 k levels.
    let mut hostile = Client::connect(addr);
    for line in ["[".repeat(100_000), r#"{"a":"#.repeat(100_000)] {
        let reply = hostile.request(&line);
        assert!(!ok(&reply), "{}", reply.render());
        assert_eq!(field(&reply, "kind"), "bad_request");
        assert!(
            field(&reply, "error").contains("nesting"),
            "{}",
            reply.render()
        );
    }

    let mut client = Client::connect(addr);
    let rule = Op::Insert(Rule::forward(
        RuleId(1),
        pfx("10.0.0.0/8"),
        10,
        nodes[0],
        links[0],
    ));
    let reply = client.request(&op_request(1, &rule, &topo).render());
    assert!(ok(&reply), "{}", reply.render());
    assert_eq!(u(&reply, "at"), 1);
    let bye = client.request(r#"{"id": 2, "op": "shutdown"}"#);
    assert!(ok(&bye));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

#[test]
fn slow_subscriber_gaps_but_never_stalls_the_engine() {
    // One link a -> b; flapping the single rule toggles the blackhole at b,
    // so every op emits exactly one transitions event.
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let ab = topo.add_link(a, b);
    let config = ServiceConfig {
        shards: 1,
        window: 1,
        ..ServiceConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", topo.clone(), config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    const PACE_MS: u64 = 50;
    const BURST: u64 = 20;
    const TAIL: u64 = 3;
    let fast = spawn_subscriber(addr, "");
    // A 2-slot buffer + a 50ms-per-line pump: the deterministic slow
    // consumer. (Two slots, not one: after a drop episode the gap marker
    // and the next event are sent back-to-back, and both must fit for the
    // stream to stay accounted.)
    let slow = spawn_subscriber(addr, &format!(", \"buffer\": 2, \"pace_ms\": {PACE_MS}"));

    let rule = Rule::forward(RuleId(1), pfx("10.0.0.0/8"), 10, a, ab);
    let flap = |i: u64| {
        if i % 2 == 0 {
            Op::Insert(rule)
        } else {
            Op::Remove(RuleId(1))
        }
    };
    let mut client = Client::connect(addr);
    let mut order = Vec::new();
    let start = Instant::now();
    for i in 0..BURST {
        let reply = client.request(&op_request(i, &flap(i), &topo).render());
        assert!(ok(&reply), "{}", reply.render());
        order.push((u(&reply, "at"), flap(i)));
    }
    let elapsed = start.elapsed();
    // Delivering the burst through the slow pump takes >= BURST * PACE_MS;
    // the acks must come back long before that, or the engine was stalled
    // behind the subscriber.
    assert!(
        elapsed < Duration::from_millis(BURST * PACE_MS / 2),
        "applies stalled behind the slow subscriber: {elapsed:?}"
    );

    // Trailing paced ops: by now the slow pump has drained its buffer, so
    // the pending gap marker (then the fresh events) can be delivered.
    for i in BURST..BURST + TAIL {
        thread::sleep(Duration::from_millis(300));
        let reply = client.request(&op_request(i, &flap(i), &topo).render());
        assert!(ok(&reply), "{}", reply.render());
        order.push((u(&reply, "at"), flap(i)));
    }
    let order = global_order(order);
    let total = order.len() as u64;

    let bye = client.request(r#"{"id": 99, "op": "shutdown"}"#);
    assert!(ok(&bye));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The fast subscriber saw the full oracle stream, untouched by its
    // slow peer.
    let (expected, _) = expected_stream(&topo, 1, &order);
    assert_eq!(
        expected.len() as u64,
        total,
        "every flap op emits one event"
    );
    assert_eq!(fast.join().expect("fast subscriber"), expected);

    // The slow subscriber's stream has a hole — and says so: delivered
    // events plus gap-marker drop counts account for every event emitted.
    let slow_lines = slow.join().expect("slow subscriber");
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut gaps = 0u64;
    for line in &slow_lines {
        let event = parse(line).expect("event json");
        match field(&event, "event") {
            "transitions" => delivered += 1,
            "gap" => {
                gaps += 1;
                dropped += u(&event, "dropped");
            }
            other => panic!("unexpected event kind {other}: {line}"),
        }
    }
    assert!(
        gaps >= 1,
        "slow subscriber never saw a gap marker: {slow_lines:?}"
    );
    assert!(delivered < total, "slow subscriber somehow kept up");
    assert_eq!(
        delivered + dropped,
        total,
        "gap markers must account exactly for the dropped events: {slow_lines:?}"
    );
}

/// The two request kinds no other test sends. `what_if` on a loaded link
/// answers what the offline engine answers, and on a node pair with no
/// link it is an `unknown_link`. `snapshot` writes where the client asked
/// on a plain daemon, and checkpoints into its own directory on a durable
/// one.
#[test]
fn what_if_and_snapshot_answer_like_the_offline_engine() {
    let (topo, nodes, links) = ring_topology();
    let dir = std::env::temp_dir().join(format!("deltanet-service-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("ckpt")).expect("create scratch dirs");
    let ops: Vec<Op> = (0..3)
        .map(|i| {
            Op::Insert(Rule::forward(
                RuleId(i),
                pfx("10.0.0.0/8"),
                10,
                nodes[i as usize],
                links[i as usize],
            ))
        })
        .collect();
    // Snapshots restore over the daemon's topology: a drop link per node.
    let mut prepared = topo.clone();
    for node in nodes.iter() {
        prepared.drop_link(*node);
    }
    let checkpoint = CheckpointSetup {
        dir: dir.join("ckpt"),
        config: CheckpointConfig::default(),
    };
    for durable in [false, true] {
        let config = ServiceConfig {
            checkpoint: durable.then(|| checkpoint.clone()),
            ..ServiceConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", topo.clone(), config).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let server_thread = thread::spawn(move || server.run());
        let mut client = Client::connect(addr);
        let reply = client.request(&batch_request(1, &ops, &topo).render());
        assert!(ok(&reply), "{}", reply.render());

        let mut net = oracle(&topo, ServiceConfig::default().shards);
        net.apply_batch(&ops).expect("the oracle applies the batch");
        let reply = client
            .request(r#"{"id": 2, "op": "what_if", "src": 1, "dst": 2, "check_loops": true}"#);
        let expected = what_if_reply(2, &net.what_if_link_failure(links[1], true));
        assert_eq!(reply, expected, "{}", reply.render());
        // The ring runs one way: there is no link back from s1 to s0.
        let reply = client.request(r#"{"id": 3, "op": "what_if", "src": 1, "dst": 0}"#);
        assert_eq!(u(&reply, "id"), 3);
        assert_eq!(field(&reply, "kind"), "unknown_link");
        assert_eq!(field(&reply, "error"), "no link 1 -> 0");

        let path = dir.join("plain.dnsnap");
        let request = obj(vec![
            ("id", Json::int(4)),
            ("op", Json::str("snapshot")),
            ("path", Json::str(path.display().to_string())),
        ]);
        let reply = client.request(&request.render());
        assert!(ok(&reply), "{}", reply.render());
        assert_eq!(u(&reply, "ops_applied"), ops.len() as u64);
        if durable {
            assert_eq!(field(&reply, "path"), checkpoint.dir.display().to_string());
            let name = format!("snap-{:012}.dnsnap", ops.len());
            assert!(checkpoint.dir.join(name).exists(), "no new checkpoint");
        } else {
            assert_eq!(field(&reply, "path"), path.display().to_string());
            let snapshot = Snapshot::read_from(&path).expect("read the snapshot");
            assert_eq!(snapshot.ops_applied(), ops.len() as u64);
            let restored = snapshot.restore(&prepared).expect("restore");
            assert_eq!(restored.checker().rule_count(), net.rule_count());
        }
        let bye = client.request(r#"{"id": 5, "op": "shutdown"}"#);
        assert!(ok(&bye));
        server_thread
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_daemon_recovers_and_resumes_the_stream() {
    let (topo, nodes, links) = ring_topology();
    let prefix = pfx("10.0.0.0/8");
    let dir = std::env::temp_dir().join(format!("deltanet-service-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let config = || ServiceConfig {
        shards: 2,
        window: 1,
        checkpoint: Some(CheckpointSetup {
            dir: dir.clone(),
            config: CheckpointConfig {
                every_ops: 8,
                retain: 2,
                durability: Durability::FsyncPerBatch,
            },
        }),
        ..ServiceConfig::default()
    };

    // First life: close a forwarding loop, then shut down cleanly.
    let server = Server::bind("127.0.0.1:0", topo.clone(), config()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    for i in 0..4 {
        let op = Op::Insert(Rule::forward(
            RuleId(i),
            prefix,
            10,
            nodes[i as usize],
            links[i as usize],
        ));
        let reply = client.request(&op_request(i, &op, &topo).render());
        assert!(ok(&reply), "{}", reply.render());
        assert_eq!(u(&reply, "at"), i + 1);
    }
    let stats = client.request(r#"{"id": 80, "op": "stats"}"#);
    assert_eq!(u(&stats, "ops_applied"), 4);
    assert_eq!(
        u(&stats, "violations"),
        1,
        "the loop is live: {}",
        stats.render()
    );
    assert!(stats.get("durable").and_then(Json::as_bool) == Some(true));
    let bye = client.request(r#"{"id": 81, "op": "shutdown"}"#);
    assert!(ok(&bye));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // Second life: the daemon recovers the checkpoint dir, the loop is
    // still active, and the op counter resumes where it left off.
    let server = Server::bind("127.0.0.1:0", topo.clone(), config()).expect("re-bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());
    let subscriber = spawn_subscriber(addr, "");
    let mut client = Client::connect(addr);
    let stats = client.request(r#"{"id": 82, "op": "stats"}"#);
    assert_eq!(u(&stats, "ops_applied"), 4, "recovery resumes the op count");
    assert_eq!(u(&stats, "violations"), 1, "the loop survived the restart");
    let op = Op::Remove(RuleId(3));
    let reply = client.request(&op_request(83, &op, &topo).render());
    assert!(ok(&reply), "{}", reply.render());
    assert_eq!(u(&reply, "at"), 5, "positions continue across the restart");
    let bye = client.request(r#"{"id": 84, "op": "shutdown"}"#);
    assert!(ok(&bye));
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The post-restart event covers exactly the resumed position: the loop
    // resolves and the stranded traffic at s3 surfaces.
    let lines = subscriber.join().expect("subscriber thread");
    assert_eq!(lines.len(), 1, "{lines:?}");
    let event = parse(&lines[0]).expect("event json");
    assert_eq!(u(&event, "first_op"), 5);
    assert_eq!(u(&event, "last_op"), 5);
    // seq resumes from the recovered op count (4) — an upper bound on any
    // seq the first life issued — so it stays monotone across the restart.
    assert_eq!(u(&event, "seq"), 5, "{lines:?}");
    let appeared = event
        .get("appeared")
        .and_then(Json::as_arr)
        .expect("appeared");
    let resolved = event
        .get("resolved")
        .and_then(Json::as_arr)
        .expect("resolved");
    assert!(
        appeared
            .iter()
            .any(|k| k.as_str().is_some_and(|s| s.contains("blackhole"))),
        "{lines:?}"
    );
    assert!(
        resolved
            .iter()
            .any(|k| k.as_str().is_some_and(|s| s.contains("forwarding loop"))),
        "{lines:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

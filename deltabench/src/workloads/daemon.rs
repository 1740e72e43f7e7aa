//! `daemon-stream`: socket → ack, as a controller sees the verifier. The
//! daemon runs on an ephemeral loopback port at its default configuration
//! (2 shards, 32-op windows, monitor on). One writer connection sends
//! `batch` requests of 32 ops in a closed loop — one request in flight,
//! every per-op ack awaited — while a second thread drains one `subscribe`
//! connection. The stable plane is preloaded through the same socket; the
//! flap cycles are the measured section. One latency sample = request
//! written → reply line read.
//!
//! Load generation is this one process: the main thread plus the drain
//! thread, two connections, over the host's loopback interface.

use crate::engine_api::{self as api, Segment};
use crate::harness::{
    derive_seed, fastest, probe, timed, us_between, MainSummary, PassCtx, PassResult,
};
use crate::stats;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// No per-op probes, full scans, log, query or secondary field here; the
/// daemon's `stats` op tells nothing of its shards or its live bytes.
pub const IDLE_LAYERS: &[&str] = &[
    "atoms.create_us_per_op",
    "atoms.allocated",
    "engine.insert_us_per_op",
    "engine.remove_us_per_op",
    "engine.update_us_p99",
    "engine.update_us_p999",
    "engine.update_us_max",
    "engine.compact_ms",
    "engine.compactions",
    "engine.affected_classes_max",
    "engine.live_mb",
    "loops.",
    "blackholes.",
    "shard.",
    "persist.",
    "query.",
    "multifield.",
];

/// `(stable prefixes, flapping prefixes, cycles)`: ~141 k ops in ~4.3 k
/// requests.
const FULL: (usize, usize, usize) = (400, 150, 30);
const QUICK: (usize, usize, usize) = (40, 15, 2);

/// A reply that takes longer than this is a failed run, not a slow one.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

pub fn inputs(seed: u64, quick: bool) -> (Segment, usize) {
    let (stable, flapping, cycles) = if quick { QUICK } else { FULL };
    api::gen_flapping(derive_seed(seed, 30), stable, flapping, cycles)
}

/// One request line, the id it carries, and the ops it holds.
struct RequestLine {
    id: u64,
    line: String,
    ops: usize,
}

/// What the drain thread saw on the subscription.
#[derive(Default)]
struct Drained {
    events: u64,
    /// Events the daemon dropped because the subscriber was slow.
    gaps: u64,
    /// Arrival time and `first_op` of every transitions event.
    stamps: Vec<(Instant, u64)>,
}

fn drain(reader: BufReader<TcpStream>) -> Drained {
    let mut drained = Drained::default();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let now = Instant::now();
        let Some(event) = api::parse_json(&line) else {
            continue;
        };
        if let Some(dropped) = api::json_u64(&event, "dropped") {
            drained.gaps += dropped;
        } else if let Some(first_op) = api::json_u64(&event, "first_op") {
            drained.events += 1;
            drained.stamps.push((now, first_op));
        }
    }
    drained
}

/// A connection to the daemon: one line out, one line back.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Connection {
    fn open(daemon: &api::Daemon) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(daemon.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
        stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Writes one request line and reads its reply line; `None` on any
    /// socket error or a closed connection.
    fn round_trip(&mut self, line: &str) -> Option<&str> {
        self.writer.write_all(line.as_bytes()).ok()?;
        self.writer.write_all(b"\n").ok()?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(n) if n > 0 => Some(self.reply.trim_end()),
            _ => None,
        }
    }
}

/// Whether `reply` acks every op of the request: the daemon renders
/// `{"id": N, "ok": true, "applied": K, "acks": [...]}`, so the check is a
/// prefix comparison — cheap enough to sit between two requests.
fn acks_all(reply: Option<&str>, request: &RequestLine) -> bool {
    let expected = format!(
        "{{\"id\": {}, \"ok\": true, \"applied\": {},",
        request.id, request.ops
    );
    reply.is_some_and(|r| r.starts_with(&expected))
}

/// The deep check the oracle makes on a reply: every ack `ok`, positions
/// exactly `first_at, first_at + 1, …`.
fn acks_in_order(reply: &str, first_at: u64, ops: usize) -> bool {
    let Some(parsed) = api::parse_json(reply) else {
        return false;
    };
    let Some(acks) = api::json_arr(&parsed, "acks") else {
        return false;
    };
    acks.len() == ops
        && acks.iter().zip(first_at..).all(|(ack, at)| {
            api::json_bool(ack, "ok") == Some(true) && api::json_u64(ack, "at") == Some(at)
        })
}

/// Renders every request line of a pass: `(preload, measured)`. Client-side
/// encoding is the load generator's work, not the daemon's, so it happens
/// in set-up, before the clock of either section starts.
fn encode_requests(segment: &Segment, stable_ops: usize) -> (Vec<RequestLine>, Vec<RequestLine>) {
    let window = api::daemon_window();
    let (stable, flaps) = segment.ops().split_at(stable_ops);
    let mut next_id = 0u64;
    let mut encode = |ops: &[api::Op]| -> Vec<RequestLine> {
        ops.chunks(window)
            .map(|chunk| {
                next_id += 1;
                RequestLine {
                    id: next_id,
                    line: api::encode_batch_request(next_id, chunk, &segment.topology),
                    ops: chunk.len(),
                }
            })
            .collect()
    };
    let preload = encode(stable);
    (preload, encode(flaps))
}

struct StreamPass {
    result: PassResult,
    /// Ops applied by the daemon, preload included, per its `stats`.
    stats_ops_applied: u64,
    stats_violations: u64,
    total_ops: u64,
    clean_shutdown: bool,
    acks_in_order: bool,
    gaps: u64,
}

fn stream_pass(ctx: &mut PassCtx, deep_check: bool) -> StreamPass {
    let window = api::daemon_window();
    let start = Instant::now();
    ctx.tracer.enter("harness.setup");
    ctx.tracer.enter("workloads.generate");
    let ((segment, stable_ops), generate_s) = timed(|| inputs(ctx.seed, ctx.quick));
    let (stable, flaps) = segment.ops().split_at(stable_ops);
    let (preload_requests, requests) = encode_requests(&segment, stable_ops);
    let next_id = (preload_requests.len() + requests.len()) as u64;
    ctx.tracer.exit();

    ctx.tracer.enter("service.boot");
    let daemon = api::boot_daemon(&segment.topology).expect("bind the daemon on loopback");
    let mut subscription = Connection::open(&daemon).expect("connect the subscriber");
    let subscribed = subscription
        .round_trip(&api::encode_subscribe_request(next_id + 1, 0))
        .is_some_and(|r| r.contains("\"subscribed\": true"));
    let drain_thread = std::thread::spawn(move || drain(subscription.reader));
    let mut conn = Connection::open(&daemon).expect("connect the writer");
    ctx.tracer.exit();

    let mut failed = 0u64;
    ctx.tracer.enter("service.preload");
    let (_, preload_s) = timed(|| {
        for request in &preload_requests {
            if !acks_all(conn.round_trip(&request.line), request) {
                failed += request.ops as u64;
            }
        }
    });
    ctx.tracer.exit();
    ctx.tracer.exit();
    let setup_s = start.elapsed().as_secs_f64();

    let mut samples_us = Vec::with_capacity(requests.len());
    let mut sent = Vec::with_capacity(requests.len());
    let mut in_order = true;
    let mut next_at = stable.len() as u64 + 1;
    ctx.tracer.enter("harness.measured");
    let section = Instant::now();
    for request in &requests {
        let start = Instant::now();
        let reply = conn.round_trip(&request.line);
        let end = Instant::now();
        samples_us.push(us_between(start, end));
        sent.push(start);
        ctx.tracer.record("service.request", start, end);
        if !acks_all(reply, request) {
            failed += request.ops as u64;
        }
        if deep_check {
            in_order &= reply.is_some_and(|r| acks_in_order(r, next_at, request.ops));
            next_at += request.ops as u64;
        }
    }
    let measured_s = section.elapsed().as_secs_f64();
    ctx.tracer.exit();

    let stats = conn
        .round_trip(&api::encode_plain_request(next_id + 2, "stats"))
        .and_then(api::parse_json);
    let stat = |key: &str| {
        stats
            .as_ref()
            .and_then(|s| api::json_u64(s, key))
            .unwrap_or(0)
    };
    let (stats_ops_applied, stats_violations, atoms) =
        (stat("ops_applied"), stat("violations"), stat("atoms"));
    let bye = conn
        .round_trip(&api::encode_plain_request(next_id + 3, "shutdown"))
        .is_some_and(|r| r.contains("\"ok\": true"));
    drop(conn);
    let clean_shutdown = daemon.join() && bye && subscribed;
    let drained = drain_thread.join().unwrap_or_default();

    // Event lag: request written → the event covering its first op read by
    // the subscriber. Events of the preload are skipped.
    let first_measured_op = stable.len() as u64 + 1;
    let lags: Vec<f64> = drained
        .stamps
        .iter()
        .filter(|&&(_, first_op)| first_op >= first_measured_op)
        .filter_map(|&(arrived, first_op)| {
            let request = ((first_op - first_measured_op) / window as u64) as usize;
            Some(us_between(*sent.get(request)?, arrived))
        })
        .collect();

    let result = PassResult {
        setup_s,
        generate_s,
        preload_s,
        measured_s,
        attempted: flaps.len() as u64,
        failed,
        samples_us,
        sample_ops: 1.0,
        counts: vec![
            ("ops", segment.ops().len() as u64),
            ("requests", requests.len() as u64),
            ("ops_applied", stats_ops_applied),
            ("final_atoms", atoms),
            ("violations", stats_violations),
            ("events", drained.events),
            ("gaps", drained.gaps),
        ],
        layer: vec![
            ("atoms.final_count", atoms as f64),
            ("monitor.active_violations", stats_violations as f64),
            ("service.events", drained.events as f64),
            ("service.gaps", drained.gaps as f64),
            (
                "service.event_lag_us_p50",
                stats::percentile(&stats::sorted(lags), 50.0),
            ),
        ],
    };
    StreamPass {
        result,
        stats_ops_applied,
        stats_violations,
        total_ops: segment.ops().len() as u64,
        clean_shutdown,
        acks_in_order: in_order,
        gaps: drained.gaps,
    }
}

/// The same windows through `apply_batch` in-process, on the engine shape
/// the daemon runs; one sample = one window.
struct InProcess {
    result: PassResult,
    violations: usize,
    transitions: u64,
    /// Reports of the measured windows, for the encode probe.
    reports: Vec<Vec<api::UpdateReport>>,
}

fn in_process(ctx: &PassCtx, monitor: bool) -> InProcess {
    let window = api::daemon_window();
    let (segment, stable_ops) = inputs(ctx.seed, ctx.quick);
    let (stable, flaps) = segment.ops().split_at(stable_ops);
    let mut net = api::build_like_daemon(&segment.topology, monitor);
    for chunk in stable.chunks(window) {
        api::apply_window(&mut net, chunk);
    }
    let mut samples_us = Vec::with_capacity(flaps.len() / window + 1);
    let mut reports = Vec::with_capacity(flaps.len() / window + 1);
    let section = Instant::now();
    for chunk in flaps.chunks(window) {
        let start = Instant::now();
        let applied = api::apply_window(&mut net, chunk);
        samples_us.push(us_between(start, Instant::now()));
        reports.push(applied.unwrap_or_default());
    }
    InProcess {
        result: PassResult {
            measured_s: section.elapsed().as_secs_f64(),
            attempted: flaps.len() as u64,
            samples_us,
            sample_ops: 1.0,
            ..PassResult::default()
        },
        violations: net.plane_stats().active_violations.unwrap_or(0),
        transitions: net.transitions(),
        reports,
    }
}

pub fn pass(ctx: &mut PassCtx) -> PassResult {
    stream_pass(ctx, false).result
}

/// Ack positions are exactly 1..n, the daemon applied n ops, its final
/// violation count equals the in-process engine's, no event was
/// dropped, and it shut down cleanly.
pub fn oracle(ctx: &mut PassCtx) -> Vec<String> {
    let mut problems = Vec::new();
    let pass = stream_pass(ctx, true);
    if !pass.acks_in_order {
        problems.push("ack positions are not consecutive from the first op".into());
    }
    if pass.stats_ops_applied != pass.total_ops {
        problems.push(format!(
            "daemon applied {} ops, {} were sent",
            pass.stats_ops_applied, pass.total_ops
        ));
    }
    let reference = in_process(ctx, true);
    if pass.stats_violations != reference.violations as u64 {
        problems.push(format!(
            "daemon holds {} violations, the in-process engine {}",
            pass.stats_violations, reference.violations
        ));
    }
    if pass.gaps != 0 {
        problems.push(format!("{} events were dropped", pass.gaps));
    }
    if !pass.clean_shutdown {
        problems.push("the daemon did not shut down cleanly".into());
    }
    problems
}

pub fn probes(ctx: &mut PassCtx, main: &MainSummary, repeats: usize) -> Vec<(&'static str, f64)> {
    let (segment, stable_ops) = inputs(ctx.seed, ctx.quick);
    let topology = &segment.topology;
    let lines: Vec<String> = encode_requests(&segment, stable_ops)
        .1
        .into_iter()
        .map(|r| r.line)
        .collect();
    let per_request = |seconds: f64| seconds * 1e6 / lines.len().max(1) as f64;

    let json_parse_us = fastest(repeats, || {
        per_request(
            timed(|| {
                lines
                    .iter()
                    .filter(|l| api::parse_json(l).is_some())
                    .count()
            })
            .1,
        )
    });
    let decode_us = fastest(repeats, || {
        per_request(
            timed(|| {
                lines
                    .iter()
                    .filter(|l| api::decode_request(l, topology))
                    .count()
            })
            .1,
        )
    });

    let (mut reports, mut transitions) = (Vec::new(), 0);
    let monitored = probe(repeats, || {
        let run = in_process(ctx, true);
        (reports, transitions) = (run.reports, run.transitions);
        run.result
    });
    let bare_window_us = probe(repeats, || in_process(ctx, false).result).latency_us_p50;
    let encode_us = fastest(repeats, || {
        per_request(
            timed(|| {
                let mut at = 1u64;
                let mut bytes = 0usize;
                for (id, reports) in reports.iter().enumerate() {
                    bytes += api::encode_batch_reply(id as u64, at, reports).len();
                    at += reports.len() as u64;
                }
                bytes
            })
            .1,
        )
    });

    let window = api::daemon_window() as f64;
    vec![
        ("service.json_parse_us_per_req", json_parse_us),
        ("service.proto_decode_us_per_req", decode_us),
        ("service.proto_encode_us_per_req", encode_us),
        ("service.inproc_window_us_p50", monitored.latency_us_p50),
        (
            "service.transport_us_per_req",
            main.latency_us_p50 - decode_us - monitored.latency_us_p50 - encode_us,
        ),
        (
            "service.overhead_ratio",
            monitored.ops_per_s / main.ops_per_s,
        ),
        ("service.req_us_p99", main.latency_us_p99),
        ("service.req_us_max", main.latency_us_max),
        (
            "monitor.repair_us_per_op",
            (monitored.latency_us_p50 - bare_window_us) / window,
        ),
        ("monitor.transitions", transitions as f64),
        ("engine.update_us_per_op", bare_window_us / window),
    ]
}

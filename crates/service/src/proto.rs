//! The daemon's line-delimited ndjson protocol: request parsing and
//! response/event encoding.
//!
//! One JSON object per line in both directions. Every request carries a
//! client-chosen `id` echoed on its reply, so clients may pipeline.
//! The protocol is transport-agnostic — the same framing runs over TCP and
//! stdin/stdout — and deliberately integer-exact (see [`crate::json`]).
//!
//! ## Requests
//!
//! ```text
//! {"id": 1, "op": "insert", "rule": {"id": 7, "src": 0, "dst": 3,
//!                                    "prefix": "10.0.0.0/8", "priority": 100}}
//! {"id": 2, "op": "remove", "rule_id": 7}
//! {"id": 3, "op": "batch", "ops": [{"op": "insert", "rule": {...}},
//!                                  {"op": "remove", "rule_id": 9}]}
//! {"id": 4, "op": "what_if", "src": 0, "dst": 3, "check_loops": true}
//! {"id": 5, "op": "stats"}
//! {"id": 6, "op": "snapshot", "path": "state.dnsnap"}
//! {"id": 7, "op": "subscribe", "buffer": 64, "pace_ms": 0}
//! {"id": 8, "op": "shutdown"}
//! ```
//!
//! A rule's `dst` is a peer node id, or the string `"drop"` for the source
//! node's drop link; `sec` (optional) lists `[lo, hi)` intervals for
//! secondary header fields in field order.
//!
//! ## Replies
//!
//! Success: `{"id": N, "ok": true, ...}` with op-specific fields (`at` is
//! the 1-based global count of applied ops after this one). Failure:
//! `{"id": N, "ok": false, "kind": "...", "error": "..."}` where `kind` is
//! one of `bad_request`, `unknown_rule`, `duplicate_rule`, `unknown_link`,
//! `outside_shard`, `field_mismatch`, or `skipped` (a batch op behind the
//! failing one). A `batch` reply carries per-op acks: the window's
//! applied-prefix semantics — ops before the failure index are applied and
//! acked `ok`, the failing op carries its error, later ops are `skipped`.
//! Every applied op acks with its report (`affected_classes`,
//! `changed_links`, `violations`), also when a later op of its window —
//! in its own request or another request coalesced behind it — failed.
//!
//! ## Events (subscription stream)
//!
//! ```text
//! {"event": "transitions", "seq": 3, "first_op": 17, "last_op": 20,
//!  "appeared": ["forwarding loop through a -> b"], "resolved": []}
//! {"event": "gap", "dropped": 5}
//! ```
//!
//! `appeared`/`resolved` carry [`ViolationKey`] display strings, each list
//! sorted — exactly the per-window transition a `replay --monitor` oracle
//! computes. A `gap` marker replaces events a slow consumer missed.

use crate::json::{obj, parse, Json};
use deltanet::{MonitorTransitions, ViolationKey};
use netmodel::checker::{UpdateError, UpdateReport, WhatIfReport};
use netmodel::interval::{Bound, Interval};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{NodeId, Topology};
use netmodel::trace::Op;
use std::fmt;

/// A protocol-level error: the line could not be turned into an engine op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// The request id, when one could be extracted from the bad line.
    pub id: Option<u64>,
    /// What was wrong.
    pub message: String,
}

impl ProtoError {
    fn new(id: Option<u64>, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// One parsed client request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen id, echoed on the reply.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations a client can ask for.
#[derive(Clone, Debug)]
pub enum RequestBody {
    /// Apply a single insertion.
    Insert(Rule),
    /// Apply a single removal.
    Remove(RuleId),
    /// Apply an ordered batch with applied-prefix semantics.
    Batch(Vec<Op>),
    /// Link-failure analysis of the `src -> dst` link.
    WhatIf {
        /// Source node of the link.
        src: NodeId,
        /// Destination node of the link.
        dst: NodeId,
        /// Also run loop checks on the affected portion.
        check_loops: bool,
    },
    /// Engine statistics.
    Stats,
    /// Write a snapshot of the current state to a file on the server.
    Snapshot(String),
    /// Turn this connection into a violation event stream.
    Subscribe {
        /// Event buffer capacity (0 picks the server default).
        buffer: usize,
        /// Debug/test knob: the event writer sleeps this long per line,
        /// making slow-consumer behaviour deterministic.
        pace_ms: u64,
    },
    /// Stop the daemon after draining in-flight work.
    Shutdown,
}

/// Parses one request line against `topo` (node/link references resolve
/// eagerly so malformed rules never reach the engine queue).
pub fn parse_request(line: &str, topo: &Topology) -> Result<Request, ProtoError> {
    let value = parse(line).map_err(|e| ProtoError::new(None, e.to_string()))?;
    let id = value
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::new(None, "missing or non-integer `id`"))?;
    let fail = |msg: String| ProtoError::new(Some(id), msg);
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing `op`".to_string()))?;
    let body = match op {
        "insert" => {
            let rule = value
                .get("rule")
                .ok_or_else(|| fail("missing `rule`".into()))?;
            RequestBody::Insert(parse_rule(rule, topo).map_err(&fail)?)
        }
        "remove" => RequestBody::Remove(RuleId(
            value
                .get("rule_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| fail("missing or non-integer `rule_id`".into()))?,
        )),
        "batch" => {
            let items = value
                .get("ops")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("missing `ops` array".into()))?;
            let mut ops = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                ops.push(parse_batch_op(item, topo).map_err(|m| fail(format!("ops[{i}]: {m}")))?);
            }
            RequestBody::Batch(ops)
        }
        "what_if" => {
            let src = node(value.get("src"), topo).map_err(|m| fail(format!("src: {m}")))?;
            let dst = node(value.get("dst"), topo).map_err(|m| fail(format!("dst: {m}")))?;
            let check_loops = value
                .get("check_loops")
                .map(|v| v.as_bool().ok_or("`check_loops` must be a bool"))
                .transpose()
                .map_err(|m| fail(m.into()))?
                .unwrap_or(false);
            RequestBody::WhatIf {
                src,
                dst,
                check_loops,
            }
        }
        "stats" => RequestBody::Stats,
        "snapshot" => RequestBody::Snapshot(
            value
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("missing `path`".into()))?
                .to_string(),
        ),
        "subscribe" => RequestBody::Subscribe {
            buffer: value
                .get("buffer")
                .map(|v| v.as_u64().ok_or("`buffer` must be a non-negative integer"))
                .transpose()
                .map_err(|m| fail(m.into()))?
                .unwrap_or(0) as usize,
            pace_ms: value
                .get("pace_ms")
                .map(|v| v.as_u64().ok_or("`pace_ms` must be a non-negative integer"))
                .transpose()
                .map_err(|m| fail(m.into()))?
                .unwrap_or(0),
        },
        "shutdown" => RequestBody::Shutdown,
        other => return Err(fail(format!("unknown op `{other}`"))),
    };
    Ok(Request { id, body })
}

fn parse_batch_op(item: &Json, topo: &Topology) -> Result<Op, String> {
    let op = item
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing `op`")?;
    match op {
        "insert" => {
            let rule = item.get("rule").ok_or("missing `rule`")?;
            Ok(Op::Insert(parse_rule(rule, topo)?))
        }
        "remove" => Ok(Op::Remove(RuleId(
            item.get("rule_id")
                .and_then(Json::as_u64)
                .ok_or("missing or non-integer `rule_id`")?,
        ))),
        other => Err(format!("unknown batch op `{other}`")),
    }
}

fn node(value: Option<&Json>, topo: &Topology) -> Result<NodeId, String> {
    let n = value
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer node id")?;
    if (n as usize) < topo.node_count() {
        Ok(NodeId(n as u32))
    } else {
        Err(format!(
            "node {n} out of range (topology has {} nodes)",
            topo.node_count()
        ))
    }
}

fn parse_rule(value: &Json, topo: &Topology) -> Result<Rule, String> {
    let id = RuleId(
        value
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("rule: missing or non-integer `id`")?,
    );
    let src = node(value.get("src"), topo).map_err(|m| format!("rule src: {m}"))?;
    let prefix: IpPrefix = value
        .get("prefix")
        .and_then(Json::as_str)
        .ok_or("rule: missing `prefix`")?
        .parse()
        .map_err(|e| format!("rule prefix: {e}"))?;
    let priority = value
        .get("priority")
        .and_then(Json::as_u64)
        .ok_or("rule: missing or non-integer `priority`")?
        .try_into()
        .map_err(|_| "rule: priority out of range".to_string())?;
    let dst = value.get("dst").ok_or("rule: missing `dst`")?;
    let mut rule = if dst.as_str() == Some("drop") {
        // The server pre-creates every node's drop link before the engine
        // is built, so a read-only lookup suffices here.
        let link = topo
            .out_links(src)
            .iter()
            .copied()
            .find(|&l| topo.is_drop_link(l))
            .ok_or_else(|| format!("rule: node {} has no drop link", src.0))?;
        Rule::drop(id, prefix, priority, src, link)
    } else {
        let dst = node(Some(dst), topo).map_err(|m| format!("rule dst: {m}"))?;
        let link = topo
            .link_between(src, dst)
            .ok_or_else(|| format!("rule: no link {} -> {}", src.0, dst.0))?;
        Rule::forward(id, prefix, priority, src, link)
    };
    if let Some(sec) = value.get("sec") {
        let items = sec.as_arr().ok_or("rule sec: must be an array")?;
        let mut intervals = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let pair = item
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("rule sec[{i}]: expected [lo, hi]"))?;
            let lo = pair[0]
                .as_u64()
                .ok_or_else(|| format!("rule sec[{i}]: non-integer lo"))?;
            let hi = pair[1]
                .as_u64()
                .ok_or_else(|| format!("rule sec[{i}]: non-integer hi"))?;
            if lo >= hi {
                return Err(format!("rule sec[{i}]: empty interval [{lo}, {hi})"));
            }
            intervals.push(Interval::new(lo as Bound, hi as Bound));
        }
        rule = rule.with_secondary(netmodel::header::SecondaryMatch::new(&intervals));
    }
    Ok(rule)
}

/// Encodes a rule as its protocol JSON (the inverse of rule parsing).
pub fn rule_to_json(rule: &Rule, topo: &Topology) -> Json {
    let link = topo.link(rule.link);
    let dst = if topo.is_drop_link(rule.link) {
        Json::str("drop")
    } else {
        Json::int(link.dst.0)
    };
    let mut pairs = vec![
        ("id", Json::int(rule.id.0)),
        ("src", Json::int(rule.source.0)),
        ("dst", dst),
        ("prefix", Json::str(rule.prefix.to_string())),
        ("priority", Json::int(rule.priority)),
    ];
    if !rule.sec.is_empty() {
        pairs.push((
            "sec",
            Json::Arr(
                rule.sec
                    .intervals()
                    .iter()
                    .map(|iv| Json::Arr(vec![Json::int(iv.lo()), Json::int(iv.hi())]))
                    .collect(),
            ),
        ));
    }
    obj(pairs)
}

fn op_to_json(op: &Op, topo: &Topology) -> Vec<(&'static str, Json)> {
    match op {
        Op::Insert(rule) => vec![
            ("op", Json::str("insert")),
            ("rule", rule_to_json(rule, topo)),
        ],
        Op::Remove(id) => vec![("op", Json::str("remove")), ("rule_id", Json::int(id.0))],
    }
}

/// Encodes one op as a stand-alone `insert` / `remove` request line.
pub fn op_request(id: u64, op: &Op, topo: &Topology) -> Json {
    let mut pairs = vec![("id", Json::int(id))];
    pairs.extend(op_to_json(op, topo));
    obj(pairs)
}

/// Encodes a slice of ops as one `batch` request line.
pub fn batch_request(id: u64, ops: &[Op], topo: &Topology) -> Json {
    obj(vec![
        ("id", Json::int(id)),
        ("op", Json::str("batch")),
        (
            "ops",
            Json::Arr(ops.iter().map(|op| obj(op_to_json(op, topo))).collect()),
        ),
    ])
}

/// The stable error-kind slug of an [`UpdateError`].
pub fn update_error_kind(e: &UpdateError) -> &'static str {
    match e {
        UpdateError::UnknownRule(_) => "unknown_rule",
        UpdateError::DuplicateRule(_) => "duplicate_rule",
        UpdateError::UnknownLink { .. } => "unknown_link",
        UpdateError::OutsideShard { .. } => "outside_shard",
        UpdateError::FieldMismatch { .. } => "field_mismatch",
    }
}

/// An `{"ok": true}` reply for one applied op. `at` is the 1-based global
/// count of ops applied by the daemon after this one.
pub fn ok_reply(id: u64, at: u64, report: &UpdateReport) -> Json {
    obj(vec![
        ("id", Json::int(id)),
        ("ok", Json::Bool(true)),
        ("at", Json::int(at)),
        ("affected_classes", Json::int(report.affected_classes)),
        ("changed_links", Json::int(report.changed_links.len())),
        ("violations", Json::int(report.violations.len())),
    ])
}

/// An `{"ok": false}` reply with an error kind and message.
pub fn error_reply(id: u64, kind: &str, message: &str) -> Json {
    obj(vec![
        ("id", Json::int(id)),
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
}

/// Same shape without a usable id (`"id": null`) — unparseable lines.
pub fn error_reply_no_id(kind: &str, message: &str) -> Json {
    obj(vec![
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
}

/// Per-op acks of a batch reply (no top-level `id`; nested under `acks`).
pub fn batch_op_ack(at: u64, report: &UpdateReport) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("at", Json::int(at)),
        ("affected_classes", Json::int(report.affected_classes)),
        ("changed_links", Json::int(report.changed_links.len())),
        ("violations", Json::int(report.violations.len())),
    ])
}

/// A failed or skipped op inside a batch reply.
pub fn batch_op_error(kind: &str, message: &str) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
}

/// The top-level batch reply: `applied` = the applied prefix length.
pub fn batch_reply(id: u64, ok: bool, applied: usize, acks: Vec<Json>) -> Json {
    obj(vec![
        ("id", Json::int(id)),
        ("ok", Json::Bool(ok)),
        ("applied", Json::int(applied)),
        ("acks", Json::Arr(acks)),
    ])
}

/// The reply to a `what_if` request.
pub fn what_if_reply(id: u64, report: &WhatIfReport) -> Json {
    obj(vec![
        ("id", Json::int(id)),
        ("ok", Json::Bool(true)),
        ("affected_classes", Json::int(report.affected_classes)),
        ("affected_links", Json::int(report.affected_links.len())),
        (
            "affected_packets",
            Json::Arr(
                report
                    .affected_packets
                    .iter()
                    .map(|iv| Json::Arr(vec![Json::int(iv.lo()), Json::int(iv.hi())]))
                    .collect(),
            ),
        ),
        ("violations", Json::int(report.violations.len())),
    ])
}

/// A `transitions` event line: the violations that appeared and resolved
/// over the window covering global ops `[first_op, last_op]` (1-based),
/// each list sorted by [`ViolationKey`] order.
pub fn transitions_event(
    seq: u64,
    first_op: u64,
    last_op: u64,
    transitions: &MonitorTransitions,
) -> Json {
    let keys =
        |ks: &[ViolationKey]| Json::Arr(ks.iter().map(|k| Json::str(k.to_string())).collect());
    obj(vec![
        ("event", Json::str("transitions")),
        ("seq", Json::int(seq)),
        ("first_op", Json::int(first_op)),
        ("last_op", Json::int(last_op)),
        ("appeared", keys(&transitions.appeared)),
        ("resolved", keys(&transitions.resolved)),
    ])
}

/// A `gap` event: `dropped` transition events were discarded because this
/// subscriber's buffer was full.
pub fn gap_event(dropped: u64) -> Json {
    obj(vec![
        ("event", Json::str("gap")),
        ("dropped", Json::int(dropped)),
    ])
}

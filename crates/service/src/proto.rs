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
//! [`parse_request`] decodes a line in one pass of the JSON lexer straight
//! into a [`Request`], resolving nodes and links as it goes: keys may come
//! in any order, unknown keys are skipped, and no [`Json`] tree is built.
//! Which check fails first, its message, and whether the error carries the
//! request's `id` are fixed by the tree decode this replaced, which the
//! crate's tests keep as the decoder's differential reference.
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
//! The replies to op requests are typed ([`Reply`], [`BatchAck`]): the
//! engine thread renders each one straight into one pre-sized line, in the
//! spacing [`Json::render`] uses. Replies off the op path (`what_if`,
//! `stats`, events) are built as [`Json`].
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

use crate::json::{obj, write_escaped, write_u64, Json, JsonError, Lexer, Token};
use deltanet::{MonitorTransitions, ViolationKey};
use netmodel::checker::{UpdateError, UpdateReport, WhatIfReport};
use netmodel::header::{SecondaryMatch, MAX_SECONDARY_FIELDS, MAX_SECONDARY_WIDTH};
use netmodel::interval::{Bound, Interval};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{NodeId, Topology};
use netmodel::trace::Op;
use std::borrow::Cow;
use std::fmt;

#[cfg(test)]
mod reference;

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
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed on the reply.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations a client can ask for.
#[derive(Clone, Debug, PartialEq)]
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
///
/// The line must be UTF-8, like any JSON text: a byte that is not is a
/// syntax error at its offset. The whole line is lexed before any field is
/// checked, so a syntax error anywhere is the error (with no `id`); then
/// the fields are checked in a fixed order and the first failure is
/// reported.
pub fn parse_request(line: impl AsRef<[u8]>, topo: &Topology) -> Result<Request, ProtoError> {
    let syntax = |e: JsonError| ProtoError::new(None, e.to_string());
    let line = std::str::from_utf8(line.as_ref()).map_err(|e| {
        syntax(JsonError {
            at: e.valid_up_to(),
            message: "invalid utf-8".to_string(),
        })
    })?;
    let mut lexer = Lexer::new(line);
    let fields = RequestFields::read(&mut lexer, topo)
        .and_then(|fields| lexer.finish().map(|()| fields))
        .map_err(syntax)?;
    fields.into_request(topo)
}

/// A field's value as the checks see it. Only the shapes some check
/// accepts are told apart; anything else (`null`, a float, a negative or
/// over-wide integer, an array, an object) is `Other`.
enum Scalar<'a> {
    U64(u64),
    Bool(bool),
    Str(Cow<'a, str>),
    Other,
}

impl<'a> Scalar<'a> {
    fn read(lexer: &mut Lexer<'a>) -> Result<Scalar<'a>, JsonError> {
        Ok(match lexer.value()? {
            Token::Int(n) => u64::try_from(n).map_or(Scalar::Other, Scalar::U64),
            Token::Bool(b) => Scalar::Bool(b),
            Token::Str(s) => Scalar::Str(s),
            Token::Array | Token::Object => {
                lexer.skip_rest()?;
                Scalar::Other
            }
            Token::Null | Token::Float(_) => Scalar::Other,
        })
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::U64(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Reads one value and hands each of its keys to `field`, which must read
/// or skip the key's value. A value that is not an object has no fields.
fn read_fields<'a>(
    lexer: &mut Lexer<'a>,
    mut field: impl FnMut(&mut Lexer<'a>, &str) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    match lexer.value()? {
        Token::Object => {
            while let Some(key) = lexer.next_key()? {
                field(lexer, &key)?;
            }
            Ok(())
        }
        Token::Array => lexer.skip_rest(),
        _ => Ok(()),
    }
}

/// Reads an array, decoding items in order with `item` until one fails;
/// that item's message is kept and the items after it are only lexed. A
/// value that is not an array is `Err(not_array)`.
fn read_items<'a, T>(
    lexer: &mut Lexer<'a>,
    not_array: &str,
    mut item: impl FnMut(&mut Lexer<'a>, usize) -> Result<Result<T, String>, JsonError>,
) -> Result<Result<Vec<T>, String>, JsonError> {
    match lexer.value()? {
        Token::Array => {}
        Token::Object => {
            lexer.skip_rest()?;
            return Ok(Err(not_array.to_string()));
        }
        _ => return Ok(Err(not_array.to_string())),
    }
    let mut items = Vec::new();
    let mut failed = None;
    let mut i = 0;
    while lexer.next_item()? {
        if failed.is_some() {
            lexer.skip_value()?;
        } else {
            match item(lexer, i)? {
                Ok(value) => items.push(value),
                Err(message) => failed = Some(message),
            }
        }
        i += 1;
    }
    Ok(failed.map_or(Ok(items), Err))
}

/// A request's fields, gathered in whatever order the line has them. A
/// `rule` and the `ops` are decoded as they are read, whatever the `op`
/// turns out to be; their first failure is kept for the check that needs it.
#[derive(Default)]
struct RequestFields<'a> {
    id: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
    rule: Option<Result<Rule, String>>,
    rule_id: Option<Scalar<'a>>,
    ops: Option<Result<Vec<Op>, String>>,
    src: Option<Scalar<'a>>,
    dst: Option<Scalar<'a>>,
    check_loops: Option<Scalar<'a>>,
    path: Option<Scalar<'a>>,
    buffer: Option<Scalar<'a>>,
    pace_ms: Option<Scalar<'a>>,
}

impl<'a> RequestFields<'a> {
    fn read(lexer: &mut Lexer<'a>, topo: &Topology) -> Result<Self, JsonError> {
        let mut f = RequestFields::default();
        read_fields(lexer, |lexer, key| {
            let slot = match key {
                "id" => &mut f.id,
                "op" => &mut f.op,
                "rule_id" => &mut f.rule_id,
                "src" => &mut f.src,
                "dst" => &mut f.dst,
                "check_loops" => &mut f.check_loops,
                "path" => &mut f.path,
                "buffer" => &mut f.buffer,
                "pace_ms" => &mut f.pace_ms,
                "rule" => {
                    f.rule = Some(read_rule(lexer, topo)?);
                    return Ok(());
                }
                "ops" => {
                    f.ops = Some(read_items(lexer, "missing `ops` array", |lexer, i| {
                        Ok(read_batch_op(lexer, topo)?.map_err(|m| format!("ops[{i}]: {m}")))
                    })?);
                    return Ok(());
                }
                _ => return lexer.skip_value(),
            };
            *slot = Some(Scalar::read(lexer)?);
            Ok(())
        })?;
        Ok(f)
    }

    /// The checks, in the tree decode's order.
    fn into_request(self, topo: &Topology) -> Result<Request, ProtoError> {
        let id = self
            .id
            .as_ref()
            .and_then(Scalar::as_u64)
            .ok_or_else(|| ProtoError::new(None, "missing or non-integer `id`"))?;
        let fail = |msg: String| ProtoError::new(Some(id), msg);
        let op = self
            .op
            .as_ref()
            .and_then(Scalar::as_str)
            .ok_or_else(|| fail("missing `op`".to_string()))?;
        let optional = |field: Option<Scalar>, message: &str| match field {
            None => Ok(None),
            Some(Scalar::U64(n)) => Ok(Some(n)),
            Some(_) => Err(fail(message.to_string())),
        };
        let body = match op {
            "insert" => RequestBody::Insert(
                self.rule
                    .ok_or_else(|| fail("missing `rule`".into()))?
                    .map_err(&fail)?,
            ),
            "remove" => RequestBody::Remove(RuleId(
                self.rule_id
                    .as_ref()
                    .and_then(Scalar::as_u64)
                    .ok_or_else(|| fail("missing or non-integer `rule_id`".into()))?,
            )),
            "batch" => RequestBody::Batch(
                self.ops
                    .unwrap_or_else(|| Err("missing `ops` array".into()))
                    .map_err(&fail)?,
            ),
            "what_if" => {
                let src = node(self.src.as_ref(), topo).map_err(|m| fail(format!("src: {m}")))?;
                let dst = node(self.dst.as_ref(), topo).map_err(|m| fail(format!("dst: {m}")))?;
                let check_loops = match self.check_loops {
                    None => false,
                    Some(Scalar::Bool(b)) => b,
                    Some(_) => return Err(fail("`check_loops` must be a bool".into())),
                };
                RequestBody::WhatIf {
                    src,
                    dst,
                    check_loops,
                }
            }
            "stats" => RequestBody::Stats,
            "snapshot" => match self.path {
                Some(Scalar::Str(path)) => RequestBody::Snapshot(path.into_owned()),
                _ => return Err(fail("missing `path`".into())),
            },
            "subscribe" => RequestBody::Subscribe {
                buffer: optional(self.buffer, "`buffer` must be a non-negative integer")?
                    .unwrap_or(0) as usize,
                pace_ms: optional(self.pace_ms, "`pace_ms` must be a non-negative integer")?
                    .unwrap_or(0),
            },
            "shutdown" => RequestBody::Shutdown,
            other => return Err(fail(format!("unknown op `{other}`"))),
        };
        Ok(Request { id, body })
    }
}

/// One item of a batch's `ops`.
fn read_batch_op<'a>(
    lexer: &mut Lexer<'a>,
    topo: &Topology,
) -> Result<Result<Op, String>, JsonError> {
    let (mut op, mut rule, mut rule_id) = (None, None, None);
    read_fields(lexer, |lexer, key| {
        match key {
            "op" => op = Some(Scalar::read(lexer)?),
            "rule" => rule = Some(read_rule(lexer, topo)?),
            "rule_id" => rule_id = Some(Scalar::read(lexer)?),
            _ => lexer.skip_value()?,
        }
        Ok(())
    })?;
    let Some(op) = op.as_ref().and_then(Scalar::as_str) else {
        return Ok(Err("missing `op`".into()));
    };
    Ok(match op {
        "insert" => rule
            .unwrap_or_else(|| Err("missing `rule`".into()))
            .map(Op::Insert),
        "remove" => rule_id
            .as_ref()
            .and_then(Scalar::as_u64)
            .map(|n| Op::Remove(RuleId(n)))
            .ok_or_else(|| "missing or non-integer `rule_id`".into()),
        other => Err(format!("unknown batch op `{other}`")),
    })
}

fn node(value: Option<&Scalar>, topo: &Topology) -> Result<NodeId, String> {
    let n = value
        .and_then(Scalar::as_u64)
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

/// A rule object, resolved against `topo`. A value that is not an object
/// has no fields, so it fails the first check.
fn read_rule<'a>(
    lexer: &mut Lexer<'a>,
    topo: &Topology,
) -> Result<Result<Rule, String>, JsonError> {
    let (mut id, mut src, mut dst, mut prefix, mut priority, mut sec) =
        (None, None, None, None, None, None);
    read_fields(lexer, |lexer, key| {
        let slot = match key {
            "id" => &mut id,
            "src" => &mut src,
            "dst" => &mut dst,
            "prefix" => &mut prefix,
            "priority" => &mut priority,
            "sec" => {
                sec = Some(read_items(
                    lexer,
                    "rule sec: must be an array",
                    read_interval,
                )?);
                return Ok(());
            }
            _ => return lexer.skip_value(),
        };
        *slot = Some(Scalar::read(lexer)?);
        Ok(())
    })?;
    Ok(resolve_rule([id, src, dst, prefix, priority], sec, topo))
}

fn resolve_rule(
    [id, src, dst, prefix, priority]: [Option<Scalar>; 5],
    sec: Option<Result<Vec<Interval>, String>>,
    topo: &Topology,
) -> Result<Rule, String> {
    let id = RuleId(
        id.as_ref()
            .and_then(Scalar::as_u64)
            .ok_or("rule: missing or non-integer `id`")?,
    );
    let src = node(src.as_ref(), topo).map_err(|m| format!("rule src: {m}"))?;
    let prefix: IpPrefix = prefix
        .as_ref()
        .and_then(Scalar::as_str)
        .ok_or("rule: missing `prefix`")?
        .parse()
        .map_err(|e| format!("rule prefix: {e}"))?;
    let priority = priority
        .as_ref()
        .and_then(Scalar::as_u64)
        .ok_or("rule: missing or non-integer `priority`")?
        .try_into()
        .map_err(|_| "rule: priority out of range".to_string())?;
    let dst = dst.ok_or("rule: missing `dst`")?;
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
        let dst = node(Some(&dst), topo).map_err(|m| format!("rule dst: {m}"))?;
        let link = topo
            .link_between(src, dst)
            .ok_or_else(|| format!("rule: no link {} -> {}", src.0, dst.0))?;
        Rule::forward(id, prefix, priority, src, link)
    };
    if let Some(intervals) = sec {
        let intervals = intervals?;
        secondary_limit(&intervals)?;
        rule = rule.with_secondary(SecondaryMatch::new(&intervals));
    }
    Ok(rule)
}

/// Item `i` of a rule's `sec`: a `[lo, hi)` pair of integers, `lo < hi`.
fn read_interval(lexer: &mut Lexer<'_>, i: usize) -> Result<Result<Interval, String>, JsonError> {
    let mut pair = [None, None];
    let mut len = 0;
    match lexer.value()? {
        Token::Array => {
            while lexer.next_item()? {
                match pair.get_mut(len) {
                    Some(slot) => *slot = Some(Scalar::read(lexer)?),
                    None => lexer.skip_value()?,
                }
                len += 1;
            }
        }
        Token::Object => lexer.skip_rest()?,
        _ => {}
    }
    if len != 2 {
        return Ok(Err(format!("rule sec[{i}]: expected [lo, hi]")));
    }
    let [lo, hi] = pair.map(|v| v.as_ref().and_then(Scalar::as_u64));
    let Some(lo) = lo else {
        return Ok(Err(format!("rule sec[{i}]: non-integer lo")));
    };
    let Some(hi) = hi else {
        return Ok(Err(format!("rule sec[{i}]: non-integer hi")));
    };
    Ok(if lo >= hi {
        Err(format!("rule sec[{i}]: empty interval [{lo}, {hi})"))
    } else {
        Ok(Interval::new(lo as Bound, hi as Bound))
    })
}

/// The secondary intervals the engine can represent: `SecondaryMatch::new`
/// asserts these limits, so a request is checked against them first.
fn secondary_limit(intervals: &[Interval]) -> Result<(), String> {
    if intervals.len() > MAX_SECONDARY_FIELDS {
        return Err(format!(
            "rule sec: at most {MAX_SECONDARY_FIELDS} secondary fields, got {}",
            intervals.len()
        ));
    }
    let limit: Bound = 1 << MAX_SECONDARY_WIDTH;
    match intervals.iter().position(|iv| iv.hi() > limit) {
        Some(i) => Err(format!(
            "rule sec[{i}]: hi {} exceeds the {MAX_SECONDARY_WIDTH}-bit field range",
            intervals[i].hi()
        )),
        None => Ok(()),
    }
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

/// What an applied op's ack carries: its position (the 1-based global
/// count of ops applied by the daemon after it) and its report's sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpAck {
    at: u64,
    affected_classes: usize,
    changed_links: usize,
    violations: usize,
}

impl OpAck {
    fn new(at: u64, report: &UpdateReport) -> OpAck {
        OpAck {
            at,
            affected_classes: report.affected_classes,
            changed_links: report.changed_links.len(),
            violations: report.violations.len(),
        }
    }

    /// Everything after an applied ack's `{` or `"id": N, `.
    fn write_tail(&self, out: &mut String) {
        out.push_str("\"ok\": true, \"at\": ");
        write_u64(self.at, out);
        out.push_str(", \"affected_classes\": ");
        write_u64(self.affected_classes as u64, out);
        out.push_str(", \"changed_links\": ");
        write_u64(self.changed_links as u64, out);
        out.push_str(", \"violations\": ");
        write_u64(self.violations as u64, out);
        out.push('}');
    }
}

/// Everything after a failure's `{` or `"id": N, `.
fn write_error_tail(kind: &str, message: &str, out: &mut String) {
    out.push_str("\"ok\": false, \"kind\": ");
    write_escaped(kind, out);
    out.push_str(", \"error\": ");
    write_escaped(message, out);
    out.push('}');
}

/// A typical applied ack's length, for sizing a reply's line up front.
const ACK_BYTES: usize = 96;

/// One op's entry in a `batch` reply's `acks`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchAck<'a> {
    /// `{"ok": true, "at": …, "affected_classes": …, "changed_links": …,
    /// "violations": …}`.
    Applied(OpAck),
    /// `{"ok": false, "kind": …, "error": …}`: the failing op, or `skipped`.
    Failed {
        /// The error-kind slug.
        kind: &'a str,
        /// The error message.
        message: &'a str,
    },
}

impl BatchAck<'_> {
    fn write(&self, out: &mut String) {
        out.push('{');
        match self {
            BatchAck::Applied(ack) => ack.write_tail(out),
            BatchAck::Failed { kind, message } => write_error_tail(kind, message, out),
        }
    }

    fn len_hint(&self) -> usize {
        match self {
            BatchAck::Applied(_) => ACK_BYTES,
            BatchAck::Failed { kind, message } => 32 + kind.len() + message.len(),
        }
    }
}

/// The reply to an op request, or to a line that is not a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    /// `{"id": N, "ok": true, "at": …, …}`: an `insert` or `remove` applied.
    Applied {
        /// The request id.
        id: u64,
        /// The op's ack.
        ack: OpAck,
    },
    /// `{"id": N, "ok": false, "kind": …, "error": …}`, with `"id": null`
    /// for a line no id could be read from.
    Error {
        /// The request id, if the line had one.
        id: Option<u64>,
        /// The error-kind slug.
        kind: &'a str,
        /// The error message.
        message: &'a str,
    },
    /// `{"id": N, "ok": …, "applied": K, "acks": [...]}`.
    Batch {
        /// The request id.
        id: u64,
        /// Whether every op applied.
        ok: bool,
        /// The applied prefix length.
        applied: usize,
        /// One ack per op of the request.
        acks: Vec<BatchAck<'a>>,
    },
}

impl Reply<'_> {
    /// The reply's line (no newline), rendered in one pass into a `String`
    /// sized up front, with room for the newline the server appends.
    pub fn render(&self) -> String {
        let hint = match self {
            Reply::Applied { .. } => 32 + ACK_BYTES,
            Reply::Error { kind, message, .. } => 48 + kind.len() + message.len(),
            Reply::Batch { acks, .. } => 64 + acks.iter().map(|a| a.len_hint() + 2).sum::<usize>(),
        };
        let mut out = String::with_capacity(hint);
        out.push_str("{\"id\": ");
        match self {
            Reply::Applied { id, ack } => {
                write_u64(*id, &mut out);
                out.push_str(", ");
                ack.write_tail(&mut out);
            }
            Reply::Error { id, kind, message } => {
                match id {
                    Some(id) => write_u64(*id, &mut out),
                    None => out.push_str("null"),
                }
                out.push_str(", ");
                write_error_tail(kind, message, &mut out);
            }
            Reply::Batch {
                id,
                ok,
                applied,
                acks,
            } => {
                write_u64(*id, &mut out);
                out.push_str(if *ok {
                    ", \"ok\": true"
                } else {
                    ", \"ok\": false"
                });
                out.push_str(", \"applied\": ");
                write_u64(*applied as u64, &mut out);
                out.push_str(", \"acks\": [");
                for (i, ack) in acks.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    ack.write(&mut out);
                }
                out.push_str("]}");
            }
        }
        out
    }
}

/// An `{"ok": true}` reply for one applied op. `at` is the 1-based global
/// count of ops applied by the daemon after this one.
pub fn ok_reply(id: u64, at: u64, report: &UpdateReport) -> Reply<'static> {
    Reply::Applied {
        id,
        ack: OpAck::new(at, report),
    }
}

/// An `{"ok": false}` reply with an error kind and message.
pub fn error_reply<'a>(id: u64, kind: &'a str, message: &'a str) -> Reply<'a> {
    Reply::Error {
        id: Some(id),
        kind,
        message,
    }
}

/// Same shape without a usable id (`"id": null`) — unparseable lines.
pub fn error_reply_no_id<'a>(kind: &'a str, message: &'a str) -> Reply<'a> {
    Reply::Error {
        id: None,
        kind,
        message,
    }
}

/// Per-op acks of a batch reply (no top-level `id`; nested under `acks`).
pub fn batch_op_ack(at: u64, report: &UpdateReport) -> BatchAck<'static> {
    BatchAck::Applied(OpAck::new(at, report))
}

/// A failed or skipped op inside a batch reply.
pub fn batch_op_error<'a>(kind: &'a str, message: &'a str) -> BatchAck<'a> {
    BatchAck::Failed { kind, message }
}

/// The top-level batch reply: `applied` = the applied prefix length.
pub fn batch_reply(id: u64, ok: bool, applied: usize, acks: Vec<BatchAck<'_>>) -> Reply<'_> {
    Reply::Batch {
        id,
        ok,
        applied,
        acks,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::checker::InvariantViolation;
    use netmodel::topology::LinkId;

    fn report(affected_classes: usize, changed_links: usize, violations: usize) -> UpdateReport {
        UpdateReport {
            affected_classes,
            changed_links: vec![LinkId(0); changed_links],
            violations: vec![
                InvariantViolation::Blackhole {
                    node: NodeId(0),
                    packets: Vec::new(),
                };
                violations
            ],
            ..UpdateReport::default()
        }
    }

    /// The exact bytes of every reply shape on the op path, as the
    /// `Json`-tree builders rendered them before the replies were typed.
    #[test]
    fn golden_reply_lines() {
        let goldens = [
            (
                ok_reply(7, 12, &report(3, 2, 1)).render(),
                r#"{"id": 7, "ok": true, "at": 12, "affected_classes": 3, "changed_links": 2, "violations": 1}"#,
            ),
            (
                error_reply(8, "unknown_rule", "unknown rule r9").render(),
                r#"{"id": 8, "ok": false, "kind": "unknown_rule", "error": "unknown rule r9"}"#,
            ),
            (
                error_reply_no_id(
                    "bad_request",
                    "invalid json at byte 0: unexpected character",
                )
                .render(),
                r#"{"id": null, "ok": false, "kind": "bad_request", "error": "invalid json at byte 0: unexpected character"}"#,
            ),
            (
                batch_reply(
                    9,
                    true,
                    2,
                    vec![
                        batch_op_ack(13, &report(1, 0, 0)),
                        batch_op_ack(14, &report(40, 5, 2)),
                    ],
                )
                .render(),
                r#"{"id": 9, "ok": true, "applied": 2, "acks": [{"ok": true, "at": 13, "affected_classes": 1, "changed_links": 0, "violations": 0}, {"ok": true, "at": 14, "affected_classes": 40, "changed_links": 5, "violations": 2}]}"#,
            ),
            (
                batch_reply(
                    10,
                    false,
                    1,
                    vec![
                        batch_op_ack(15, &report(2, 1, 0)),
                        batch_op_error("duplicate_rule", "duplicate rule r4"),
                        batch_op_error("skipped", "an earlier op in this batch failed"),
                        batch_op_error("skipped", "an earlier op in this batch failed"),
                    ],
                )
                .render(),
                r#"{"id": 10, "ok": false, "applied": 1, "acks": [{"ok": true, "at": 15, "affected_classes": 2, "changed_links": 1, "violations": 0}, {"ok": false, "kind": "duplicate_rule", "error": "duplicate rule r4"}, {"ok": false, "kind": "skipped", "error": "an earlier op in this batch failed"}, {"ok": false, "kind": "skipped", "error": "an earlier op in this batch failed"}]}"#,
            ),
            (
                batch_reply(u64::MAX, true, 0, vec![]).render(),
                r#"{"id": 18446744073709551615, "ok": true, "applied": 0, "acks": []}"#,
            ),
            (
                error_reply(11, "io", "can't open \"a\\b\"\nretry\t\u{1}").render(),
                r#"{"id": 11, "ok": false, "kind": "io", "error": "can't open \"a\\b\"\nretry\t\u0001"}"#,
            ),
            (
                batch_reply(
                    12,
                    false,
                    0,
                    vec![batch_op_error("bad \"kind\"", "line\\one\nline two")],
                )
                .render(),
                r#"{"id": 12, "ok": false, "applied": 0, "acks": [{"ok": false, "kind": "bad \"kind\"", "error": "line\\one\nline two"}]}"#,
            ),
        ];
        for (line, golden) in goldens {
            assert_eq!(line, golden);
        }
    }

    /// Regression: a `sec` list the engine cannot represent panicked the
    /// connection's thread inside `SecondaryMatch::new`; it is a request
    /// error now.
    #[test]
    fn unrepresentable_secondary_match_is_a_request_error() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.add_link(a, b);
        let insert = |sec: &str| {
            format!(
                r#"{{"id": 5, "op": "insert", "rule": {{"id": 1, "src": 0, "dst": 1, "prefix": "10.0.0.0/8", "priority": 1, "sec": {sec}}}}}"#
            )
        };
        let cases = [
            (
                "[[0, 1], [0, 1], [0, 1]]",
                "rule sec: at most 2 secondary fields, got 3",
            ),
            (
                "[[0, 9223372036854775809]]",
                "rule sec[0]: hi 9223372036854775809 exceeds the 63-bit field range",
            ),
        ];
        for (sec, message) in cases {
            let err = parse_request(insert(sec), &topo).unwrap_err();
            assert_eq!(err, ProtoError::new(Some(5), message));
        }
        assert!(parse_request(insert("[[0, 9223372036854775808]]"), &topo).is_ok());
    }
}

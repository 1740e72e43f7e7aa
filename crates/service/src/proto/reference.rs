//! The tree decode [`super::parse_request`] replaced, kept as its
//! differential reference: parse the whole line into a [`Json`] tree, then
//! look the fields up. It fixes what the direct decoder must reproduce —
//! which check runs first, every message, and when the request `id` is
//! known. The one change from the decode that shipped is the secondary
//! interval guard in [`parse_rule`], which both decoders gained together:
//! without it a `sec` list the engine cannot represent panicked the
//! connection's thread inside `SecondaryMatch::new`.

use super::{secondary_limit, ProtoError, Request, RequestBody};
use crate::json::{parse, Json};
use netmodel::interval::{Bound, Interval};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{NodeId, Topology};
use netmodel::trace::Op;

/// Parses one request line against `topo` through a [`Json`] tree.
pub(super) fn parse_request(line: &str, topo: &Topology) -> Result<Request, ProtoError> {
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
        secondary_limit(&intervals)?;
        rule = rule.with_secondary(netmodel::header::SecondaryMatch::new(&intervals));
    }
    Ok(rule)
}

/// The direct decoder against this reference on seeded, generated lines:
/// both `Ok` with equal requests, or both `Err` with equal `id` and
/// message. A line that is not UTF-8 (a bit flip can make one) has no
/// reference; the direct decoder must reject it with no `id`.
mod differential {
    use super::parse_request as reference;
    use crate::json::{obj, Json, MAX_DEPTH};
    use crate::proto::{batch_request, op_request, parse_request};
    use netmodel::topology::Topology;
    use netmodel::trace::Op;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Cases per seed: a few hundred in debug, 4,000 (12,000 over the
    /// three seeds) in release.
    fn cases() -> usize {
        if cfg!(debug_assertions) {
            300
        } else {
            4_000
        }
    }

    #[test]
    fn direct_decode_matches_the_tree_decode() {
        for seed in [1, 7, 0xDEC0DE] {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = testutil::random_topology(&mut rng, 5, true);
            let (mut ok, mut err) = (0, 0);
            for case in 0..cases() {
                let line = generate_line(&mut rng, &topo, case as u64);
                let direct = parse_request(&line, &topo);
                if direct.is_ok() {
                    ok += 1;
                } else {
                    err += 1;
                }
                match std::str::from_utf8(&line) {
                    Ok(text) => assert_eq!(
                        direct,
                        reference(text, &topo),
                        "seed {seed}, case {case}: {text}"
                    ),
                    Err(_) => {
                        let e = direct.expect_err("a line that is not UTF-8 is rejected");
                        assert_eq!(e.id, None, "seed {seed}, case {case}: {e}");
                    }
                }
            }
            // Both outcomes are well represented, so neither path is vacuous.
            assert!(ok * 5 > cases() && err * 5 > cases(), "ok {ok}, err {err}");
        }
    }

    /// One request line: a valid request of a random kind, rendered with
    /// shuffled keys, unknown keys, escapes and whitespace, then (most of
    /// the time) mutated in the tree or in its bytes.
    fn generate_line(rng: &mut StdRng, topo: &Topology, id: u64) -> Vec<u8> {
        let mut request = base_request(rng, topo, id);
        if rng.gen_bool(0.4) {
            // Up to three changes, so two checks can fail on one line and
            // the order they run in shows.
            for _ in 0..rng.gen_range(1..4) {
                mutate_tree(&mut request, rng);
            }
        }
        let mut line = String::new();
        ws(rng, &mut line);
        render(&request, rng, &mut line);
        ws(rng, &mut line);
        let mut bytes = line.into_bytes();
        if rng.gen_bool(0.35) {
            mutate_bytes(&mut bytes, rng);
        }
        bytes
    }

    fn ops(rng: &mut StdRng, topo: &Topology, n: usize) -> Vec<Op> {
        let width = *[8, 32].choose(rng).expect("non-empty");
        let gen = testutil::OpGen::new(width, 40, 0.3);
        let gen = if rng.gen_bool(0.5) {
            gen.with_secondary(&[8, 16])
        } else {
            gen
        };
        testutil::random_ops(rng, topo, n, gen)
    }

    fn base_request(rng: &mut StdRng, topo: &Topology, id: u64) -> Json {
        let head = |op: &str| vec![("id", Json::int(id)), ("op", Json::str(op))];
        let node = |rng: &mut StdRng| Json::int(rng.gen_range(0..topo.node_count() + 2));
        match rng.gen_range(0..12) {
            0..=2 => {
                let n = rng.gen_range(1..4);
                let op = *ops(rng, topo, n).choose(rng).expect("n >= 1");
                op_request(id, &op, topo)
            }
            3..=6 => {
                let n = rng.gen_range(0..6);
                batch_request(id, &ops(rng, topo, n), topo)
            }
            7 => {
                let mut pairs = head("what_if");
                pairs.push(("src", node(rng)));
                pairs.push(("dst", node(rng)));
                if rng.gen_bool(0.5) {
                    pairs.push(("check_loops", Json::Bool(rng.gen_bool(0.5))));
                }
                obj(pairs)
            }
            8 => {
                let mut pairs = head("subscribe");
                if rng.gen_bool(0.6) {
                    pairs.push(("buffer", Json::int(rng.gen_range(0..100u64))));
                }
                if rng.gen_bool(0.6) {
                    pairs.push(("pace_ms", Json::int(rng.gen_range(0..10u64))));
                }
                obj(pairs)
            }
            9 => {
                let mut pairs = head("snapshot");
                pairs.push(("path", Json::Str(text(rng))));
                obj(pairs)
            }
            10 => obj(head(["stats", "shutdown"].choose(rng).expect("non-empty"))),
            _ => obj(head(&text(rng))),
        }
    }

    /// A short string over characters that need escaping, multi-byte
    /// characters and plain ASCII.
    fn text(rng: &mut StdRng) -> String {
        const CHARS: &[char] = &[
            'a', 'b', 'z', '0', '.', '/', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '☃', '😀',
        ];
        let len = rng.gen_range(0..8);
        (0..len)
            .map(|_| *CHARS.choose(rng).expect("non-empty"))
            .collect()
    }

    fn ws(rng: &mut StdRng, out: &mut String) {
        if rng.gen_bool(0.15) {
            out.push_str(
                ["", " ", "  ", "\t", "\r\n", " \n "]
                    .choose(rng)
                    .expect("non-empty"),
            );
        }
    }

    /// Renders `value` as JSON, varying what the grammar leaves free:
    /// object key order (shuffled), whitespace between tokens, and how a
    /// string's characters are written (`\uXXXX` and `\/` escapes).
    fn render(value: &Json, rng: &mut StdRng, out: &mut String) {
        match value {
            Json::Str(s) => render_string(s, rng, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    render(item, rng, out);
                    ws(rng, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let mut order: Vec<&(String, Json)> = pairs.iter().collect();
                if rng.gen_bool(0.5) {
                    order.shuffle(rng);
                }
                out.push('{');
                for (i, (key, value)) in order.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    render_string(key, rng, out);
                    ws(rng, out);
                    out.push(':');
                    ws(rng, out);
                    render(value, rng, out);
                    ws(rng, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&scalar.render()),
        }
    }

    fn render_string(s: &str, rng: &mut StdRng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' if rng.gen_bool(0.3) => out.push_str("\\/"),
                c if (c as u32) < 0x20 || ((c as u32) < 0x10000 && rng.gen_bool(0.1)) => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// A value of a random shape: the type confusions every field check
    /// must catch, and nesting on either side of [`MAX_DEPTH`].
    fn junk(rng: &mut StdRng) -> Json {
        match rng.gen_range(0..14) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Int(-1),
            3 => Json::Int(i128::from(u64::MAX) + 1),
            4 => Json::Int(i128::from(rng.gen_range(0..8u64))),
            5 => Json::Int(i128::MAX),
            6 => Json::Float(1.5),
            7 => Json::str("drop"),
            8 => Json::Str(text(rng)),
            9 => Json::Arr(vec![]),
            10 => Json::Arr(vec![Json::int(rng.gen_range(0..4u64)), Json::int(u64::MAX)]),
            11 => obj(vec![]),
            _ => {
                // Nested so the line crosses the cap by one level, or not.
                let depth = MAX_DEPTH - rng.gen_range(0..3);
                let mut value = Json::Int(1);
                for level in 0..depth {
                    value = if level % 2 == 0 {
                        Json::Arr(vec![value])
                    } else {
                        obj(vec![("k", value)])
                    };
                }
                value
            }
        }
    }

    /// One structural change somewhere in the tree: a key dropped,
    /// duplicated or added, or a value replaced by [`junk`].
    fn mutate_tree(value: &mut Json, rng: &mut StdRng) {
        match value {
            Json::Obj(pairs) if !pairs.is_empty() && rng.gen_bool(0.6) => {
                let i = rng.gen_range(0..pairs.len());
                descend_or(&mut pairs[i].1, rng, |value, rng| *value = junk(rng));
            }
            Json::Obj(pairs) => {
                let i = rng.gen_range(0..pairs.len() + 1);
                match rng.gen_range(0..3) {
                    0 if i < pairs.len() => {
                        pairs.remove(i);
                    }
                    1 if i < pairs.len() => {
                        let duplicate = pairs[i].clone();
                        pairs.push(duplicate);
                    }
                    _ => pairs.insert(i.min(pairs.len()), (text(rng), junk(rng))),
                }
            }
            Json::Arr(items) if !items.is_empty() => {
                let i = rng.gen_range(0..items.len());
                if rng.gen_bool(0.2) {
                    items.remove(i);
                } else {
                    descend_or(&mut items[i], rng, |value, rng| *value = junk(rng));
                }
            }
            other => *other = junk(rng),
        }
    }

    fn descend_or(value: &mut Json, rng: &mut StdRng, here: impl FnOnce(&mut Json, &mut StdRng)) {
        if matches!(value, Json::Obj(_) | Json::Arr(_)) && rng.gen_bool(0.7) {
            mutate_tree(value, rng);
        } else {
            here(value, rng);
        }
    }

    /// One byte-level change: a truncation, a bit flip, a leading zero, a
    /// fraction or exponent, or a number past `u64` (or `i128`).
    fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut StdRng) {
        if bytes.is_empty() {
            return;
        }
        let digit_starts: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
            .collect();
        let digit_start = digit_starts.choose(rng).copied();
        match (rng.gen_range(0..5), digit_start) {
            (0, _) | (_, None) => bytes.truncate(rng.gen_range(0..bytes.len())),
            (1, _) => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8);
            }
            (2, Some(at)) => bytes.insert(at, b'0'),
            (3, Some(at)) => {
                let end = (at..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                let tail = *[".5", "e2", "E-1", ".", "e"]
                    .choose(rng)
                    .expect("non-empty");
                bytes.splice(end..end, tail.bytes());
            }
            (_, Some(at)) => {
                let big = *[
                    "18446744073709551616",
                    "170141183460469231731687303715884105728",
                ]
                .choose(rng)
                .expect("non-empty");
                bytes.splice(at..at, big.bytes());
            }
        }
    }
}

//! Back-compat: pre-multi-field artifacts (format v1 snapshots, format v2
//! delta logs) committed under `tests/fixtures/` must keep loading, through
//! their rule registries, as single-field engines that equal a fresh replay
//! of the same trace — and a multi-field operation replayed into such an
//! engine must fail with a clean [`PersistError::Mismatch`], never a panic.
//!
//! The fixture files were generated by the v2-era code from the exact
//! topology and trace replicated below ([`fixture_topology`] /
//! [`fixture_ops`]): a 4-switch bidirectional ring with drop links, 12
//! operations (10 inserts, 2 removes) over 32-bit prefixes, with the
//! snapshot taken after operation 6. They are committed bytes, not
//! regenerated, so any accidental format change that breaks old artifacts
//! fails here first.
//!
//! `v3-mf-fixture.dnsnap` pins what the v2 pair cannot: per-rule secondary
//! matches and the sharded kind, whose arena sections (the secondary
//! lattices among them) a restore now skips. It was written by the
//! format-3 code from [`mf_fixture_net`] after [`MF_SNAPSHOT_AT`]
//! operations of [`mf_fixture_ops`] — 2 shards, `dst:32 × 8 × 6`,
//! monitored, one explicit `compact()` on the way.
//! `v4-mf-fixture.dnsnap` is the format-4 image of the same engine: its
//! rule set, configuration, monitor flag and shard count.

use std::fs;
use std::path::{Path, PathBuf};

use deltanet::persist::{self, recover, PersistError};
use deltanet::{DeltaNet, DeltaNetConfig, PersistNet, ShardedDeltaNet, Snapshot};
use netmodel::header::SecondaryMatch;
use netmodel::interval::Interval;
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_topology() -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let n = topo.add_nodes("s", 4);
    for i in 0..4 {
        topo.add_bidi_link(n[i], n[(i + 1) % 4]);
    }
    for node in topo.switch_nodes().collect::<Vec<_>>() {
        topo.drop_link(node);
    }
    (topo, n)
}

fn fixture_ops(topo: &Topology, n: &[NodeId]) -> Vec<Op> {
    let p = |s: &str| -> IpPrefix { s.parse().unwrap() };
    let link = |a: usize, b: usize| -> LinkId { topo.link_between(n[a], n[b]).unwrap() };
    let dl0 = topo
        .out_links(n[0])
        .iter()
        .copied()
        .find(|&l| topo.is_drop_link(l))
        .unwrap();
    vec![
        Op::Insert(Rule::forward(
            RuleId(1),
            p("10.0.0.0/8"),
            10,
            n[0],
            link(0, 1),
        )),
        Op::Insert(Rule::forward(
            RuleId(2),
            p("10.0.0.0/8"),
            10,
            n[1],
            link(1, 2),
        )),
        Op::Insert(Rule::forward(
            RuleId(3),
            p("10.0.0.0/16"),
            20,
            n[2],
            link(2, 3),
        )),
        Op::Insert(Rule::forward(
            RuleId(4),
            p("10.0.0.0/8"),
            10,
            n[3],
            link(3, 0),
        )),
        Op::Insert(Rule::drop(RuleId(5), p("10.1.2.0/24"), 30, n[0], dl0)),
        Op::Insert(Rule::forward(
            RuleId(6),
            p("192.168.0.0/16"),
            5,
            n[1],
            link(1, 0),
        )),
        Op::Remove(RuleId(2)),
        Op::Insert(Rule::forward(
            RuleId(7),
            p("10.0.0.0/9"),
            15,
            n[1],
            link(1, 2),
        )),
        Op::Insert(Rule::forward(
            RuleId(8),
            p("0.0.0.0/0"),
            1,
            n[2],
            link(2, 1),
        )),
        Op::Remove(RuleId(6)),
        Op::Insert(Rule::forward(
            RuleId(9),
            p("10.128.0.0/9"),
            12,
            n[0],
            link(0, 3),
        )),
        Op::Insert(Rule::forward(
            RuleId(10),
            p("172.16.0.0/12"),
            8,
            n[3],
            link(3, 2),
        )),
    ]
}

#[test]
fn v2_artifacts_recover_bit_identically_to_fresh_replay() {
    let (topo, n) = fixture_topology();
    let ops = fixture_ops(&topo, &n);

    let (recovered, replayed) = recover(
        &topo,
        &fixture("v2-fixture.dnsnap"),
        &fixture("v2-fixture.dnlog"),
    )
    .expect("v2 artifacts must keep recovering");
    assert_eq!(replayed, ops.len() as u64);

    // A v2-era artifact yields a single-field engine.
    let config = match &recovered {
        PersistNet::Single(net) => {
            assert!(!net.is_multifield());
            net.config()
        }
        PersistNet::Sharded(_) => panic!("fixture is a single-engine snapshot"),
    };
    assert_eq!(config.secondary_count(), 0);

    // Fresh replay of the replicated trace lands on the same plane.
    let mut fresh = PersistNet::Single(Box::new(DeltaNet::new(topo.clone(), config)));
    for op in &ops {
        fresh.checker_mut().try_apply(op).unwrap();
    }
    assert_eq!(
        persist::state_digest(&recovered),
        persist::state_digest(&fresh),
        "recovered state differs from a fresh replay"
    );
    // The snapshot's six rules were inserted in id order and none was
    // removed before it, so the rebuild retraces the replay's first six
    // ops and the two engines are identical down to atom ids.
    let (PersistNet::Single(a), PersistNet::Single(b)) = (&recovered, &fresh) else {
        unreachable!("both engines are single")
    };
    let atoms = |n: &DeltaNet| n.atoms().iter().collect::<Vec<_>>();
    assert_eq!(atoms(a), atoms(b), "atoms");
    let labels = |n: &DeltaNet| {
        let ids = |set: &deltanet::AtomSet| set.iter().collect::<Vec<_>>();
        n.labels()
            .iter()
            .map(|(l, set)| (l, ids(set)))
            .collect::<Vec<_>>()
    };
    assert_eq!(labels(a), labels(b), "labels");
    let books = |n: &DeltaNet| (n.allocated_atoms(), n.live_bytes(), n.reclaimable_bounds());
    assert_eq!(books(a), books(b), "allocation, live bytes and books");
}

#[test]
fn v2_snapshot_reads_as_single_field() {
    let snap = Snapshot::read_from(&fixture("v2-fixture.dnsnap")).unwrap();
    assert_eq!(snap.ops_applied(), 6);
    assert_eq!(snap.config().secondary_count(), 0);
    let (topo, _) = fixture_topology();
    let net = snap.restore(&topo).unwrap();
    assert_eq!(net.checker().rule_count(), 6);
}

#[test]
fn v2_log_reads_and_rules_carry_no_secondary_fields() {
    let ops = persist::read_log(&fixture("v2-fixture.dnlog")).unwrap();
    assert_eq!(ops.len(), 12);
    for op in &ops {
        if let Op::Insert(rule) = op {
            assert!(
                !rule.is_multifield(),
                "{:?} decoded with secondary fields",
                rule.id
            );
        }
    }
}

/// A v3 log whose tail carries a multi-field insert, replayed into the
/// single-field engine a v2 snapshot restores to: recovery must surface the
/// field-count disagreement as a clean [`PersistError::Mismatch`].
#[test]
fn multifield_op_into_single_field_engine_is_a_clean_mismatch() {
    let (topo, n) = fixture_topology();
    let mut ops = fixture_ops(&topo, &n);
    let l01 = topo.link_between(n[0], n[1]).unwrap();
    ops.push(Op::Insert(
        Rule::forward(RuleId(99), "10.9.0.0/16".parse().unwrap(), 7, n[0], l01)
            .with_secondary(SecondaryMatch::new(&[Interval::new(5, 9)])),
    ));

    let dir = std::env::temp_dir().join(format!("deltanet-backcompat-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("mixed.dnlog");
    let mut bytes = Vec::from(&b"DNLG\x03"[..]);
    for op in &ops {
        bytes.extend_from_slice(&persist::encode_record(op));
    }
    fs::write(&log_path, bytes).unwrap();

    let err = match recover(&topo, &fixture("v2-fixture.dnsnap"), &log_path) {
        Ok(_) => panic!("a multi-field op must not replay into a single-field engine"),
        Err(e) => e,
    };
    match err {
        PersistError::Mismatch(msg) => {
            assert!(
                msg.contains("secondary header field"),
                "unexpected mismatch message: {msg}"
            );
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

/// Operations of [`mf_fixture_ops`] the v3 fixture snapshot incorporates.
const MF_SNAPSHOT_AT: usize = 120;
/// The one explicit `compact()` of the fixture run happens after this many.
const MF_COMPACT_AT: usize = 80;

fn mf_fixture_net(topo: &Topology) -> PersistNet {
    let config = DeltaNetConfig {
        monitor_violations: true,
        ..DeltaNetConfig::default()
    }
    .with_secondary(&[8, 6]);
    PersistNet::Sharded(Box::new(ShardedDeltaNet::new(topo.clone(), config, 2)))
}

/// 150 operations from a fixed LCG (no crate the fixture could drift with):
/// about two inserts per removal, prefixes from a pool of 12 so bounds are
/// shared and revived, secondary matches on zero, one or both fields.
fn mf_fixture_ops(topo: &Topology) -> Vec<Op> {
    let mut state = 0x5eed_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let prefixes: Vec<IpPrefix> = [
        "0.0.0.0/0",
        "10.0.0.0/8",
        "10.0.0.0/16",
        "10.1.0.0/16",
        "10.1.2.0/24",
        "10.128.0.0/9",
        "64.0.0.0/2",
        "128.0.0.0/1",
        "172.16.0.0/12",
        "192.168.0.0/16",
        "192.168.7.0/24",
        "200.0.0.0/5",
    ]
    .iter()
    .map(|p| p.parse().unwrap())
    .collect();
    let links = topo.link_count() as u64;
    let mut live: Vec<RuleId> = Vec::new();
    let mut ops = Vec::new();
    for i in 0..150u64 {
        if !live.is_empty() && next(3) == 0 {
            let id = live.swap_remove(next(live.len() as u64) as usize);
            ops.push(Op::Remove(id));
            continue;
        }
        let link = LinkId(next(links) as u32);
        let source = topo.link(link).src;
        let prefix = prefixes[next(prefixes.len() as u64) as usize];
        let priority = 1 + next(6) as u32;
        let rule = if topo.is_drop_link(link) {
            Rule::drop(RuleId(i), prefix, priority, source, link)
        } else {
            Rule::forward(RuleId(i), prefix, priority, source, link)
        };
        let fields = [0, 1, 1, 2][next(4) as usize];
        let blocks: Vec<Interval> = [8u32, 6][..fields]
            .iter()
            .map(|&width| {
                let lo = next(1 << width) & !7;
                let hi = (lo + 8 * (1 + next(3))).min(1 << width);
                Interval::new(lo.into(), hi.into())
            })
            .collect();
        let sec = if blocks.is_empty() {
            SecondaryMatch::default()
        } else {
            SecondaryMatch::new(&blocks)
        };
        live.push(rule.id);
        ops.push(Op::Insert(rule.with_secondary(sec)));
    }
    ops
}

/// Applies `ops[from..to]` the way the fixture run did.
fn mf_replay(net: &mut PersistNet, ops: &[Op], from: usize, to: usize) {
    for (i, op) in ops.iter().enumerate().take(to).skip(from) {
        net.checker_mut()
            .try_apply(op)
            .expect("fixture ops are well formed");
        if i + 1 == MF_COMPACT_AT {
            let PersistNet::Sharded(sharded) = net else {
                panic!("the fixture engine is sharded");
            };
            sharded.compact();
        }
    }
}

/// The v3 fixture restores through its registry, re-encodes byte for byte
/// to the committed v4 image — which is also what a fresh replay of the
/// fixture's trace encodes to, and which re-encodes to itself — and the
/// restored engine stays on a fresh replay's plane over 30 further ops.
#[test]
fn v3_multifield_sharded_snapshot_restores_and_reencodes_byte_for_byte() {
    let (topo, _) = fixture_topology();
    let ops = mf_fixture_ops(&topo);
    let v3 = fs::read(fixture("v3-mf-fixture.dnsnap")).unwrap();
    let v4 = fs::read(fixture("v4-mf-fixture.dnsnap")).unwrap();

    let snap = Snapshot::from_bytes(&v3).unwrap();
    assert_eq!(snap.ops_applied(), MF_SNAPSHOT_AT as u64);
    assert_eq!(
        (snap.shard_count(), snap.config().secondary_count()),
        (2, 2)
    );
    let mut restored = snap.restore(&topo).expect("v3 fixture must keep restoring");
    assert!(restored.monitor_keys().is_some());
    assert_eq!(
        Snapshot::of_net(&restored, MF_SNAPSHOT_AT as u64).to_bytes(),
        v4,
        "the restored engine no longer encodes to the committed v4 bytes"
    );
    let decoded = Snapshot::from_bytes(&v4).unwrap();
    assert_eq!(
        decoded.to_bytes(),
        v4,
        "v4 decode + encode is not byte-stable"
    );
    let from_v4 = decoded.restore(&topo).unwrap();
    assert_eq!(
        persist::state_digest(&from_v4),
        persist::state_digest(&restored)
    );

    // The restored engine and a fresh replay of the whole trace stay on
    // one plane over 30 further operations.
    let mut fresh = mf_fixture_net(&topo);
    mf_replay(&mut fresh, &ops, 0, MF_SNAPSHOT_AT);
    assert_eq!(
        Snapshot::of_net(&fresh, MF_SNAPSHOT_AT as u64).to_bytes(),
        v4,
        "a fresh replay no longer lands on the committed v4 bytes"
    );
    assert_eq!(
        persist::state_digest(&restored),
        persist::state_digest(&fresh)
    );
    mf_replay(&mut fresh, &ops, MF_SNAPSHOT_AT, ops.len());
    mf_replay(&mut restored, &ops, MF_SNAPSHOT_AT, ops.len());
    assert_eq!(ops.len(), MF_SNAPSHOT_AT + 30);
    assert_eq!(
        persist::state_digest(&restored),
        persist::state_digest(&fresh)
    );
}

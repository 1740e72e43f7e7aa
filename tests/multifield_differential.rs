//! Multi-field differential suite: the incremental Delta-net engine over a
//! dst × src (and dst × src × dport) header space, compared against
//!
//! 1. the stateless Veriflow-RI cross-product oracle
//!    ([`veriflow_ri::scan_multifield`]), which recomputes every
//!    equivalence class of every field from the live rule set alone and
//!    shares no code and no owner cells with the engine. The engine's full
//!    scans (`check_all_loops` + `check_all_blackholes` — the set-at-a-time
//!    kernel run from scratch over every atom) must agree with it, in the
//!    order- and numbering-invariant form, after **every** operation of
//!    the stand-alone legs and every window of the sharded one: *kernel ==
//!    independent reference*.
//! 2. those full scans, which the live monitor — the same kernel, but
//!    repaired update by update — must equal as plain `Vec`s, same
//!    grouping, normalization and order, after **every** operation, state
//!    and events: *incremental == from scratch*.
//!
//! (A third, tuple-at-a-time evaluation that reads the engine's own owner
//! cells lives in `deltanet::multifield`'s unit tests.)
//!
//! Runs over the stand-alone engine and 1/2/4/7-way sharded engines, with
//! monitoring on and off, compaction on and off, per-op applies and
//! `apply_batch` windows, §3.3 aggregation windows, and a snapshot →
//! restore → continue leg — the combinations the multi-field code touches.
//! Every leg runs on the differential driver in `tests/support/`
//! ([`Oracle::MultiField`], [`Oracle::Monitor`], [`Oracle::Restore`]);
//! everything is seeded, and a failure names its seed, op, shape and oracle.

mod support;

use delta_net::deltanet::PersistNet;
use delta_net::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::Oracle::{Monitor, MultiField, Restore};
use support::{assert_equivalent, config, full_scan, run, Shape, Stream, END, LOOPS, MONITOR};
use testutil::{random_ops, random_topology, OpGen};

const SEC_WIDTHS: [u8; 1] = [6];

/// Loops checked per update, and a monitor if `monitor`.
fn checks(monitor: bool) -> u8 {
    if monitor {
        LOOPS | MONITOR
    } else {
        LOOPS
    }
}
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// `len` ops of dst × `sec` churn on a `switches`-switch topology drawn from
/// `seed` first.
fn churn(seed: u64, switches: usize, len: usize, sec: &[u8]) -> (Topology, Stream<'static>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_topology(&mut rng, switches, true);
    let gen = OpGen::new(8, 20, 0.3).with_secondary(sec);
    let ops = random_ops(&mut rng, &topo, len, gen);
    (topo, Stream::Ops(ops))
}

/// Even seeds: monitor on. Seeds ≡ 0/1 (mod 4): compaction on, with a
/// threshold low enough that automatic passes fire mid-trace. Mid-trace,
/// monitored seeds fork a snapshot-restored twin that then takes the same
/// ops: its state and events must stay equal to the uninterrupted engine's
/// (its monitor was never seeded by this process, and no per-class state
/// came back with it).
#[test]
fn single_engine_matches_oracle_and_monitor() {
    for i in 0..6u64 {
        let (monitor, compact) = (i % 2 == 0, if i % 4 < 2 { Some(4) } else { None });
        let seed = 0x4D_F1E1D ^ i;
        let (topo, ops) = churn(seed, 5, 120, &SEC_WIDTHS);
        let shape = Shape {
            restore: monitor.then_some((60, 60)),
            ..Shape::new(0, config(checks(monitor), compact, &SEC_WIDTHS))
        };
        let all = [(MultiField, 1), (Monitor, 1), (Restore, 1)];
        let oracles = if monitor { &all[..] } else { &all[..1] };
        let net = run(&format!("seed {seed:#x}"), &topo, ops, &shape, oracles);
        assert!(matches!(net, PersistNet::Single(n) if n.is_multifield()));
    }
}

/// Monitor seeds go through `apply_batch` windows, so the repair also runs
/// under the concurrent per-shard groups; the others apply op by op.
#[test]
fn sharded_engine_matches_oracle_at_every_shard_count() {
    for &shards in &SHARD_COUNTS {
        for i in 0..4u64 {
            let (monitor, compact) = (i % 2 == 0, if i < 2 { Some(4) } else { None });
            let seed = 0x5AD_F1E1D ^ (i << 8) ^ shards as u64;
            let (topo, ops) = churn(seed, 5, 100, &SEC_WIDTHS);
            let shape = Shape {
                window: if monitor { 10 } else { 0 },
                ..Shape::new(shards, config(checks(monitor), compact, &SEC_WIDTHS))
            };
            let all = [(MultiField, 10), (Monitor, 10)];
            let oracles = if monitor { &all[..] } else { &all[..1] };
            run(&format!("seed {seed:#x}"), &topo, ops, &shape, oracles);
        }
    }
}

/// dst × src × dport: both secondary slots in use, deliberately tiny field
/// widths so the class cross product stays cheap while every combination
/// of constrained/wildcard fields occurs.
#[test]
fn three_field_header_space_matches_oracle() {
    const SEC3: [u8; 2] = [4, 3];
    for seed in (0..3u64).map(|i| 0x3F1E1D ^ i) {
        let (topo, ops) = churn(seed, 4, 80, &SEC3);
        let shape = Shape::new(0, config(LOOPS | MONITOR, Some(4), &SEC3));
        assert_eq!(shape.config.header_space().field_count(), 3);
        let oracles = [(Monitor, 1), (MultiField, 1)];
        run(&format!("seed {seed:#x}"), &topo, ops, &shape, &oracles);
    }
}

/// The per-update reports must notice every loop that appears: whenever
/// the oracle says the plane has a loop that was not there before an
/// insert, the insert's own report must carry a loop violation.
#[test]
fn per_update_violations_match_oracle_transitions() {
    for seed in (0..4u64).map(|i| 0x0DD_5EED ^ i) {
        let (topo, ops) = churn(seed, 4, 80, &SEC_WIDTHS);
        let shape = Shape::new(0, config(LOOPS, None, &SEC_WIDTHS));
        let case = format!("seed {seed:#x}");
        run(&case, &topo, ops, &shape, &[(MultiField, 1)]);
    }
}

/// The ACL-style dst × src workload generator feeds straight into a
/// multi-field engine, and the resulting plane agrees with the oracle.
#[test]
fn acl_workload_replays_and_matches_oracle() {
    use workloads::rulegen::{generate_multifield_rules, MultiFieldConfig};
    use workloads::topologies::four_switch_ring;
    let topo = four_switch_ring();
    let prefixes: Vec<IpPrefix> = (0..8u128)
        .map(|i| IpPrefix::new((10 << 24) | (i << 16), 16, 32))
        .collect();
    let config = MultiFieldConfig {
        sec_widths: vec![6],
        ..MultiFieldConfig::default()
    };
    let gen = generate_multifield_rules(&topo, &prefixes, &config);
    let shape = Shape::new(0, DeltaNetConfig::default().with_secondary(&gen.sec_widths));
    let (topo, ops) = (&gen.topology, Stream::Ops(gen.trace.ops().to_vec()));
    let net = run("acl workload", topo, ops, &shape, &[(MultiField, END)]);
    assert_eq!(net.checker().rule_count(), gen.rules.len());
    // The deny overlay produces real multi-field blackholes: denied
    // (dst, src) classes arrive at a switch and die at the drop link.
    assert!(full_scan(&net).iter().any(|v| !v.is_loop()));
}

/// §3.3 aggregation windows under multi-field monitoring: a batch of
/// secondary-splitting inserts and removes lands inside one window; the
/// monitor, repaired per update even inside a window, must be bit-identical
/// to the full scans after every op, and the scans must match the stateless
/// oracle at every window boundary. Automatic compaction is deferred while
/// a window is open, so an explicit `compact()` afterwards checks the
/// monitor remap and the walk kernel's class renumbering too.
#[test]
fn aggregation_window_with_secondary_splits_matches_oracle() {
    for seed in (0..3u64).map(|i| 0xA66_F1E1D ^ i) {
        let (topo, ops) = churn(seed, 5, 90, &SEC_WIDTHS);
        let shape = Shape {
            window: 9,
            aggregate: true,
            compact_every: Some(END),
            ..Shape::new(0, config(LOOPS | MONITOR, Some(4), &SEC_WIDTHS))
        };
        let oracles = [(Monitor, 1), (MultiField, 9)];
        run(&format!("seed {seed:#x}"), &topo, ops, &shape, &oracles);
    }
}

/// A loop closed in exactly one secondary class must surface as exactly
/// one appeared event — even though the closing insert also splits the
/// secondary lattice, renumbering the classes under the repair (which must
/// not double-report, and the blackhole that persists in the *other*
/// classes must not flap).
#[test]
fn secondary_constrained_loop_fires_one_appeared_event() {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let (ab, ba) = (topo.add_link(a, b), topo.add_link(b, a));
    let rule = |id, prefix, src, link, sec: &[_]| {
        let rule = Rule::forward(RuleId(id), prefix, 5, src, link);
        Op::Insert(rule.with_secondary(SecondaryMatch::new(sec)))
    };
    let ops = vec![
        // Pre-split the secondary lattice so several classes exist up front.
        rule(1, IpPrefix::new(32, 3, 8), a, ab, &[Interval::new(2, 4)]),
        // a forwards [0,16) to b for every source class (b blackholes it) …
        rule(2, IpPrefix::new(0, 4, 8), a, ab, &[]),
        // … and the closing insert sends it back only for sources in [8,16).
        rule(3, IpPrefix::new(0, 4, 8), b, ba, &[Interval::new(8, 16)]),
    ];
    // The monitor agrees with the full plane after every op.
    let shape = Shape::new(0, config(LOOPS | MONITOR, None, &SEC_WIDTHS));
    let oracles = [(Monitor, 1), (MultiField, 1)];
    let net = run("one-class loop", &topo, Stream::Ops(ops), &shape, &oracles);
    let PersistNet::Single(single) = &net else {
        unreachable!("a single-engine shape")
    };
    let events = single.monitor().expect("monitor is on").last_events();
    assert_eq!(events.len(), 1, "expected one event, got {events:?}");
    assert!(events[0].appeared, "loop must appear, got {events:?}");
    assert_eq!(events[0].key, ViolationKey::Loop(vec![a, b]));
    // The single-class loop coexists with the all-other-classes blackhole.
    let scan = full_scan(&net);
    assert!(scan.iter().any(|v| v.is_loop()));
    assert!(scan.iter().any(|v| !v.is_loop()));
    let active = net.checker().active_violations().unwrap();
    assert_equivalent("one-class loop", &active, &scan);
}

#[test]
fn field_mismatch_is_rejected_cleanly() {
    let mut rng = StdRng::seed_from_u64(7);
    let topo = random_topology(&mut rng, 3, true);
    // Single-field engine rejects a rule constraining a secondary field.
    let mut net = DeltaNet::new(topo.clone(), config(LOOPS, None, &[]));
    let node = topo.switch_nodes().next().unwrap();
    let link = topo.out_links(node)[0];
    let rule = Rule::forward(RuleId(1), IpPrefix::new(0, 0, 8), 1, node, link)
        .with_secondary(SecondaryMatch::new(&[Interval::new(1, 5)]));
    let err = net.try_apply(&Op::Insert(rule)).unwrap_err();
    let named = err.to_string().contains("secondary header field");
    assert!(named, "unexpected error: {err}");
    assert_eq!(net.rule_count(), 0, "rejected insert must not mutate");
    // A multi-field engine rejects a rule whose secondary interval falls
    // outside the declared width.
    let mut net = DeltaNet::new(topo.clone(), config(LOOPS, None, &SEC_WIDTHS));
    let wide = Rule::forward(RuleId(2), IpPrefix::new(0, 0, 8), 1, node, link)
        .with_secondary(SecondaryMatch::new(&[Interval::new(0, 1 << 7)]));
    assert!(net.try_apply(&Op::Insert(wide)).is_err());
    // The same checks hold behind the sharded engine's validation.
    let mut sharded = ShardedDeltaNet::new(topo.clone(), config(LOOPS, None, &[]), 2);
    assert!(sharded.try_apply(&Op::Insert(rule)).is_err());
    assert_eq!(sharded.rule_count(), 0);
}

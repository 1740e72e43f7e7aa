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
//!    and events ([`MonitorOracle`]): *incremental == from scratch*.
//!
//! (A third, tuple-at-a-time evaluation that reads the engine's own owner
//! cells lives in `deltanet::multifield`'s unit tests.)
//!
//! Runs over the stand-alone engine and 1/2/4/7-way sharded engines, with
//! monitoring on and off, compaction on and off, per-op applies and
//! `apply_batch` windows, §3.3 aggregation windows, and a snapshot →
//! restore → continue leg — the combinations the multi-field code touches.
//! Everything is seeded; a failure reproduces from the printed seed.

use delta_net::deltanet::{MonitorTransitions, PersistNet, Snapshot, TransitionTracker};
use delta_net::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use testutil::{blackholes_by_node, loops_by_cycle, random_ops_multifield, random_topology};

const WIDTH: u8 = 8;
const SEC_WIDTHS: [u8; 1] = [6];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
/// The sharded leg's `apply_batch` window, and how often its unmonitored
/// half compares against the Veriflow-RI oracle; the stand-alone legs
/// compare after every operation.
const SHARDED_WINDOW: usize = 10;

fn mf_config(monitor: bool, compact_threshold: Option<usize>) -> DeltaNetConfig {
    DeltaNetConfig {
        field_width: WIDTH,
        check_loops_per_update: true,
        compact_threshold,
        monitor_violations: monitor,
        ..DeltaNetConfig::default()
    }
    .with_secondary(&SEC_WIDTHS)
}

fn full_scan_single(net: &DeltaNet) -> Vec<InvariantViolation> {
    let mut out = net.check_all_loops();
    out.extend(net.check_all_blackholes());
    out
}

fn full_scan_sharded(net: &ShardedDeltaNet) -> Vec<InvariantViolation> {
    let mut out = net.check_all_loops();
    out.extend(net.check_all_blackholes());
    out
}

/// Asserts that two violation sets agree on loops and blackholes in the
/// order-, atom-numbering- and shard-invariant comparison form.
fn assert_equivalent(label: &str, actual: &[InvariantViolation], expected: &[InvariantViolation]) {
    assert_eq!(
        loops_by_cycle(actual),
        loops_by_cycle(expected),
        "{label}: loops diverge"
    );
    assert_eq!(
        blackholes_by_node(actual),
        blackholes_by_node(expected),
        "{label}: blackholes diverge"
    );
}

/// The per-op oracle of a monitored stand-alone engine: after every
/// operation the live state must equal the full scans exactly — same
/// grouping, normalization and order — and the operation's events must be
/// the identity diff of successive full scans.
struct MonitorOracle {
    tracker: TransitionTracker,
    compactions: usize,
}

impl MonitorOracle {
    fn new(net: &DeltaNet) -> Self {
        assert!(net.active_violations().expect("monitor is on").is_empty());
        MonitorOracle {
            tracker: TransitionTracker::new(),
            compactions: net.compactions(),
        }
    }

    fn check(&mut self, net: &DeltaNet, label: &str) {
        let scan = full_scan_single(net);
        let active = net.active_violations().expect("monitor is on");
        assert_eq!(active, scan, "{label}: monitor diverged from full scans");
        let keys = scan.iter().map(|violation| match violation {
            InvariantViolation::ForwardingLoop { nodes, .. } => ViolationKey::Loop(nodes.clone()),
            InvariantViolation::Blackhole { node, .. } => ViolationKey::Blackhole(*node),
        });
        let expected = self.tracker.observe(keys.collect());
        // A compaction pass at the end of the op remaps the monitor, which
        // forgets the op's events; the tracker has still moved on.
        if net.compactions() == self.compactions {
            let events = net.monitor().expect("monitor is on").last_events();
            let side = |appeared: bool| -> Vec<ViolationKey> {
                let of_side = events.iter().filter(|e| e.appeared == appeared);
                of_side.map(|e| e.key.clone()).collect()
            };
            let reported = MonitorTransitions {
                appeared: side(true),
                resolved: side(false),
            };
            assert_eq!(reported, expected, "{label}: events diverged from scans");
        }
        self.compactions = net.compactions();
    }
}

/// The engine `net` becomes after a snapshot round trip through bytes.
fn restored_copy(net: &DeltaNet, topo: &Topology, ops_applied: usize) -> DeltaNet {
    let bytes = Snapshot::of_single(net, ops_applied as u64).to_bytes();
    let snapshot = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
    match snapshot.restore(topo).expect("snapshot restores") {
        PersistNet::Single(restored) => *restored,
        PersistNet::Sharded(_) => panic!("a stand-alone snapshot restored sharded"),
    }
}

fn track(live: &mut Vec<Rule>, op: &Op) {
    match op {
        Op::Insert(rule) => live.push(*rule),
        Op::Remove(id) => live.retain(|r| r.id != *id),
    }
}

#[test]
fn single_engine_matches_oracle_and_monitor() {
    for seed in 0..6u64 {
        // Even seeds: monitor on. Seeds ≡ 0/1 (mod 4): compaction on, with
        // a threshold low enough that automatic passes fire mid-trace.
        let monitor = seed % 2 == 0;
        let compact = if seed % 4 < 2 { Some(4) } else { None };
        let mut rng = StdRng::seed_from_u64(0x4D_F1E1D ^ seed);
        let topo = random_topology(&mut rng, 5, true);
        let ops = random_ops_multifield(&mut rng, &topo, 120, WIDTH, &SEC_WIDTHS, 20, 0.3);
        let mut net = DeltaNet::new(topo.clone(), mf_config(monitor, compact));
        assert!(net.is_multifield());
        let mut per_op = monitor.then(|| MonitorOracle::new(&net));
        // Mid-trace, monitored seeds fork a snapshot-restored copy that
        // then takes the same ops: its state and events must stay equal to
        // the uninterrupted engine's (its monitor was never seeded by this
        // process, and no per-class state came back with it).
        let mut restored: Option<DeltaNet> = None;
        let mut live: Vec<Rule> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            net.try_apply(op)
                .unwrap_or_else(|e| panic!("seed {seed} op {i} rejected: {e}"));
            track(&mut live, op);
            if let Some(oracle) = per_op.as_mut() {
                oracle.check(&net, &format!("seed {seed} op {i}"));
            }
            if let Some(copy) = restored.as_mut() {
                copy.try_apply(op)
                    .unwrap_or_else(|e| panic!("seed {seed} op {i} rejected after restore: {e}"));
                let label = format!("seed {seed} op {i} restored-vs-uninterrupted");
                assert_eq!(copy.active_violations(), net.active_violations(), "{label}");
                assert_eq!(
                    copy.monitor().expect("monitor restored").last_events(),
                    net.monitor().expect("monitor is on").last_events(),
                    "{label}"
                );
            } else if monitor && i + 1 == ops.len() / 2 {
                restored = Some(restored_copy(&net, &topo, i + 1));
            }
            let scan = full_scan_single(&net);
            let oracle = scan_multifield(&topo, &live, WIDTH, &SEC_WIDTHS);
            assert_equivalent(
                &format!("seed {seed} op {i} scan-vs-oracle"),
                &scan,
                &oracle,
            );
        }
        assert_eq!(restored.is_some(), monitor);
    }
}

#[test]
fn sharded_engine_matches_oracle_at_every_shard_count() {
    for &shards in &SHARD_COUNTS {
        for seed in 0..4u64 {
            let monitor = seed % 2 == 0;
            let compact = if seed < 2 { Some(4) } else { None };
            let mut rng = StdRng::seed_from_u64(0x5AD_F1E1D ^ (seed << 8) ^ shards as u64);
            let topo = random_topology(&mut rng, 5, true);
            let ops = random_ops_multifield(&mut rng, &topo, 100, WIDTH, &SEC_WIDTHS, 20, 0.3);
            let mut net = ShardedDeltaNet::new(topo.clone(), mf_config(monitor, compact), shards);
            let mut live: Vec<Rule> = Vec::new();
            if monitor {
                // Monitor seeds go through `apply_batch`, so the repair
                // also runs under the concurrent per-shard groups.
                for (w, window) in ops.chunks(SHARDED_WINDOW).enumerate() {
                    net.apply_batch(window)
                        .unwrap_or_else(|e| panic!("shards {shards} seed {seed} window {w}: {e}"));
                    for op in window {
                        track(&mut live, op);
                    }
                    let scan = full_scan_sharded(&net);
                    let oracle = scan_multifield(&topo, &live, WIDTH, &SEC_WIDTHS);
                    assert_equivalent(
                        &format!("shards {shards} seed {seed} window {w} scan-vs-oracle"),
                        &scan,
                        &oracle,
                    );
                    let active = net.active_violations().expect("monitor is on");
                    assert_equivalent(
                        &format!("shards {shards} seed {seed} window {w} monitor-vs-scan"),
                        &active,
                        &scan,
                    );
                }
            } else {
                for (i, op) in ops.iter().enumerate() {
                    net.try_apply(op)
                        .unwrap_or_else(|e| panic!("shards {shards} seed {seed} op {i}: {e}"));
                    track(&mut live, op);
                    if (i + 1) % SHARDED_WINDOW != 0 && i + 1 != ops.len() {
                        continue;
                    }
                    let scan = full_scan_sharded(&net);
                    let oracle = scan_multifield(&topo, &live, WIDTH, &SEC_WIDTHS);
                    assert_equivalent(
                        &format!("shards {shards} seed {seed} op {i} scan-vs-oracle"),
                        &scan,
                        &oracle,
                    );
                }
            }
        }
    }
}

#[test]
fn three_field_header_space_matches_oracle() {
    // dst × src × dport: both secondary slots in use, deliberately tiny
    // field widths so the class cross product stays cheap while every
    // combination of constrained/wildcard fields occurs.
    const SEC3: [u8; 2] = [4, 3];
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x3F1E1D ^ seed);
        let topo = random_topology(&mut rng, 4, true);
        let ops = random_ops_multifield(&mut rng, &topo, 80, WIDTH, &SEC3, 20, 0.3);
        let config = DeltaNetConfig {
            field_width: WIDTH,
            check_loops_per_update: true,
            compact_threshold: Some(4),
            monitor_violations: true,
            ..DeltaNetConfig::default()
        }
        .with_secondary(&SEC3);
        assert_eq!(config.header_space().field_count(), 3);
        let mut net = DeltaNet::new(topo.clone(), config);
        let mut per_op = MonitorOracle::new(&net);
        let mut live: Vec<Rule> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            net.try_apply(op)
                .unwrap_or_else(|e| panic!("seed {seed} op {i} rejected: {e}"));
            track(&mut live, op);
            per_op.check(&net, &format!("seed {seed} op {i}"));
            let scan = full_scan_single(&net);
            let oracle = scan_multifield(&topo, &live, WIDTH, &SEC3);
            assert_equivalent(
                &format!("seed {seed} op {i} scan-vs-oracle"),
                &scan,
                &oracle,
            );
        }
    }
}

#[test]
fn per_update_violations_match_oracle_transitions() {
    // The per-update reports must notice every loop that appears: whenever
    // the oracle says the plane has a loop that was not there before the
    // op, the op's own report must carry a loop violation.
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x0DD_5EED ^ seed);
        let topo = random_topology(&mut rng, 4, true);
        let ops = random_ops_multifield(&mut rng, &topo, 80, WIDTH, &SEC_WIDTHS, 20, 0.3);
        let mut net = DeltaNet::new(topo.clone(), mf_config(false, None));
        let mut live: Vec<Rule> = Vec::new();
        let mut before = scan_multifield(&topo, &live, WIDTH, &SEC_WIDTHS);
        for (i, op) in ops.iter().enumerate() {
            let report = net
                .try_apply(op)
                .unwrap_or_else(|e| panic!("seed {seed} op {i} rejected: {e}"));
            track(&mut live, op);
            let after = scan_multifield(&topo, &live, WIDTH, &SEC_WIDTHS);
            let loops_before = loops_by_cycle(&before);
            for (cycle, _) in loops_by_cycle(&after) {
                if matches!(op, Op::Insert(_)) && !loops_before.contains_key(&cycle) {
                    assert!(
                        report.has_loop(),
                        "seed {seed} op {i}: oracle sees new loop {cycle:?}, report is clean"
                    );
                }
            }
            before = after;
        }
    }
}

#[test]
fn acl_workload_replays_and_matches_oracle() {
    // The ACL-style dst × src workload generator feeds straight into a
    // multi-field engine, and the resulting plane agrees with the oracle.
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
    let mut net = DeltaNet::new(
        gen.topology.clone(),
        DeltaNetConfig::default().with_secondary(&gen.sec_widths),
    );
    let mut live: Vec<Rule> = Vec::new();
    for op in gen.trace.ops() {
        net.try_apply(op).expect("generated op must be accepted");
        track(&mut live, op);
    }
    assert_eq!(net.rule_count(), gen.rules.len());
    // The deny overlay produces real multi-field blackholes: denied
    // (dst, src) classes arrive at a switch and die at the drop link.
    let scan = full_scan_single(&net);
    assert!(scan.iter().any(|v| !v.is_loop()));
    let oracle = scan_multifield(&gen.topology, &live, 32, &gen.sec_widths);
    assert_equivalent("acl workload", &scan, &oracle);
}

#[test]
fn aggregation_window_with_secondary_splits_matches_oracle() {
    // §3.3 aggregation windows under multi-field monitoring: a batch of
    // secondary-splitting inserts and removes lands inside one window, and
    // at every window boundary the incrementally repaired monitor must be
    // bit-identical to the full scans and the stateless oracle. Automatic
    // compaction is deferred while a window is open, so an explicit
    // `compact()` afterwards checks the monitor remap and the walk
    // kernel's class renumbering too.
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0xA66_F1E1D ^ seed);
        let topo = random_topology(&mut rng, 5, true);
        let ops = random_ops_multifield(&mut rng, &topo, 90, WIDTH, &SEC_WIDTHS, 20, 0.3);
        let mut net = DeltaNet::new(topo.clone(), mf_config(true, Some(4)));
        let mut per_op = MonitorOracle::new(&net);
        let mut live: Vec<Rule> = Vec::new();
        let mut windows_with_sec_splits = 0usize;
        let mut windows_with_removes = 0usize;
        for (w, window) in ops.chunks(9).enumerate() {
            net.begin_aggregate();
            for (i, op) in window.iter().enumerate() {
                net.try_apply(op)
                    .unwrap_or_else(|e| panic!("seed {seed} window {w} op {i}: {e}"));
                track(&mut live, op);
                // The monitor is repaired per update even inside a window.
                per_op.check(&net, &format!("seed {seed} window {w} op {i}"));
            }
            let agg = net.take_aggregate();
            if !agg.sec_splits.is_empty() {
                windows_with_sec_splits += 1;
            }
            if window.iter().any(|op| matches!(op, Op::Remove(_))) {
                windows_with_removes += 1;
            }
            let scan = full_scan_single(&net);
            let oracle = scan_multifield(&topo, &live, WIDTH, &SEC_WIDTHS);
            assert_equivalent(
                &format!("seed {seed} window {w} scan-vs-oracle"),
                &scan,
                &oracle,
            );
            let active = net.active_violations().expect("monitor is on");
            assert_equivalent(
                &format!("seed {seed} window {w} monitor-vs-scan"),
                &active,
                &scan,
            );
        }
        assert!(
            windows_with_sec_splits > 0 && windows_with_removes > 0,
            "seed {seed}: trace too tame (sec-splitting windows: \
             {windows_with_sec_splits}, windows with removes: {windows_with_removes})"
        );
        net.compact();
        let scan = full_scan_single(&net);
        let active = net.active_violations().expect("monitor is on");
        assert_equivalent(
            &format!("seed {seed} post-compact monitor-vs-scan"),
            &active,
            &scan,
        );
    }
}

#[test]
fn secondary_constrained_loop_fires_one_appeared_event() {
    // A loop closed in exactly one secondary class must surface as exactly
    // one appeared event — even though the closing insert also splits the
    // secondary lattice, renumbering the classes under the repair (which
    // must not double-report, and the blackhole that persists in the
    // *other* classes must not flap).
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let ab = topo.add_link(a, b);
    let ba = topo.add_link(b, a);
    let mut net = DeltaNet::new(topo, mf_config(true, None));
    // Pre-split the secondary lattice so several classes exist up front.
    net.insert_rule(
        Rule::forward(RuleId(1), IpPrefix::new(32, 3, WIDTH), 5, a, ab)
            .with_secondary(SecondaryMatch::new(&[Interval::new(2, 4)])),
    );
    // a forwards [0,16) to b for every source class (b blackholes it) …
    net.insert_rule(Rule::forward(
        RuleId(2),
        IpPrefix::new(0, 4, WIDTH),
        5,
        a,
        ab,
    ));
    // … and the closing insert sends it back only for sources in [8,16).
    net.insert_rule(
        Rule::forward(RuleId(3), IpPrefix::new(0, 4, WIDTH), 5, b, ba)
            .with_secondary(SecondaryMatch::new(&[Interval::new(8, 16)])),
    );
    let events = net.monitor().expect("monitor is on").last_events();
    assert_eq!(events.len(), 1, "expected one event, got {events:?}");
    assert!(events[0].appeared, "loop must appear, got {events:?}");
    assert_eq!(events[0].key, ViolationKey::Loop(vec![a, b]));
    // The single-class loop coexists with the all-other-classes blackhole,
    // and the monitor agrees with the full plane.
    let scan = full_scan_single(&net);
    assert!(scan.iter().any(|v| v.is_loop()));
    assert!(scan.iter().any(|v| !v.is_loop()));
    let active = net.active_violations().expect("monitor is on");
    assert_equivalent("one-class loop", &active, &scan);
}

#[test]
fn field_mismatch_is_rejected_cleanly() {
    let mut rng = StdRng::seed_from_u64(7);
    let topo = random_topology(&mut rng, 3, true);
    // Single-field engine rejects a rule constraining a secondary field.
    let mut net = DeltaNet::new(
        topo.clone(),
        DeltaNetConfig {
            field_width: WIDTH,
            ..DeltaNetConfig::default()
        },
    );
    let node = topo.switch_nodes().next().unwrap();
    let link = topo.out_links(node)[0];
    let rule = Rule::forward(RuleId(1), IpPrefix::new(0, 0, WIDTH), 1, node, link)
        .with_secondary(SecondaryMatch::new(&[Interval::new(1, 5)]));
    let err = net.try_apply(&Op::Insert(rule)).unwrap_err();
    assert!(
        err.to_string().contains("secondary header field"),
        "unexpected error: {err}"
    );
    assert_eq!(net.rule_count(), 0, "rejected insert must not mutate");
    // A multi-field engine rejects a rule whose secondary interval falls
    // outside the declared width.
    let mut net = DeltaNet::new(topo.clone(), mf_config(false, None));
    let wide = Rule::forward(RuleId(2), IpPrefix::new(0, 0, WIDTH), 1, node, link)
        .with_secondary(SecondaryMatch::new(&[Interval::new(0, 1 << 7)]));
    assert!(net.try_apply(&Op::Insert(wide)).is_err());
    // The same checks hold behind the sharded engine's validation.
    let mut sharded = ShardedDeltaNet::new(
        topo.clone(),
        DeltaNetConfig {
            field_width: WIDTH,
            ..DeltaNetConfig::default()
        },
        2,
    );
    assert!(sharded.try_apply(&Op::Insert(rule)).is_err());
    assert_eq!(sharded.rule_count(), 0);
}

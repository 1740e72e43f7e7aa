//! Footprint pins, by count: what the monitor repair and the per-update
//! loop check allocate must depend on the update, not on how many atoms the
//! plane holds. Timings on a shared box cannot show that; bytes requested
//! from the allocator repeat exactly.
//!
//! Two planes on one topology hold the same violations (one loop shared by
//! two prefixes, one blackhole) under ~1 k and ~64 k allocated atoms; the
//! filler is live rules, so the labels are as long as the atom range. Every
//! atom the probes touch is allocated after the filler and so carries a high
//! id on the large plane — the case in which a bitset over the atom range,
//! or a cloned label, would show.

use deltanet::loops::find_loops_from_seeds;
use deltanet::{DeltaGraph, DeltaNet, ViolationMonitor};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use testutil::alloc_count::{allocated_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rule ids of the two probes.
const PROBE: RuleId = RuleId(1_000_001);
const CLOSER: RuleId = RuleId(1_000_002);

struct Plane {
    net: DeltaNet,
    /// Forwards a prefix of its own along s0 -> s1 -> s2 -> drop: its flap
    /// is a one-pair delta that touches no violation.
    probe: Rule,
    /// Closes the loop s0 -> s1 -> s2 -> s0 for the second of two prefixes
    /// riding it, above a drop rule for the same prefix: its flap takes one
    /// atom off a cycle that stays, and puts it back.
    closer: Rule,
}

fn prefix(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

fn plane(filler_rules: u32) -> Plane {
    let mut topo = Topology::new();
    let s: Vec<NodeId> = topo.add_nodes("s", 3);
    let t = topo.add_node("t");
    let ring: Vec<LinkId> = (0..3)
        .map(|i| topo.add_link(s[i], s[(i + 1) % 3]))
        .collect();
    let to_t = topo.add_link(s[0], t);
    let drop_t = topo.drop_link(t);
    let drop_s2 = topo.drop_link(s[2]);
    let mut net = DeltaNet::with_topology(topo);
    let mut next_id = 0;
    let mut id = || {
        next_id += 1;
        RuleId(next_id)
    };

    // Filler: disjoint /24s under 10/8 forwarded s0 -> t, where a default
    // drop rule takes everything — two atoms a rule, no violation.
    net.insert_rule(Rule::drop(id(), prefix("0.0.0.0/0"), 0, t, drop_t));
    for i in 0..filler_rules {
        let p = prefix(&format!("10.{}.{}.0/24", i >> 7, (i & 0x7f) << 1));
        net.insert_rule(Rule::forward(id(), p, 1, s[0], to_t));
    }

    // One loop carried by two prefixes, one blackhole at s2.
    let (p1, p2) = (prefix("172.16.0.0/16"), prefix("172.17.0.0/16"));
    for p in [p1, p2] {
        net.insert_rule(Rule::forward(id(), p, 1, s[0], ring[0]));
        net.insert_rule(Rule::forward(id(), p, 1, s[1], ring[1]));
    }
    net.insert_rule(Rule::forward(id(), p1, 1, s[2], ring[2]));
    net.insert_rule(Rule::drop(id(), p2, 1, s[2], drop_s2));
    let closer = Rule::forward(CLOSER, p2, 5, s[2], ring[2]);
    net.insert_rule(closer);
    net.insert_rule(Rule::forward(
        id(),
        prefix("192.168.0.0/16"),
        1,
        s[1],
        ring[1],
    ));

    // The probe's path, and one flap of the probe so its atoms exist.
    let p = prefix("198.51.100.0/24");
    net.insert_rule(Rule::forward(id(), p, 1, s[1], ring[1]));
    net.insert_rule(Rule::drop(id(), p, 1, s[2], drop_s2));
    let probe = Rule::forward(PROBE, p, 5, s[0], ring[0]);
    net.insert_rule(probe);
    net.remove_rule(PROBE);
    Plane { net, probe, closer }
}

/// Toggles `rule` twice (out and back in, or in and back out), feeding each
/// delta-graph to `monitor`; returns the bytes allocated inside the two
/// `apply_update` calls.
fn flap(net: &mut DeltaNet, monitor: &mut ViolationMonitor, rule: Rule) -> [u64; 2] {
    std::array::from_fn(|_| {
        if net.rule(rule.id).is_some() {
            net.remove_rule(rule.id);
        } else {
            net.insert_rule(rule);
        }
        let delta: DeltaGraph = net.last_delta().clone();
        assert!(delta.splits.is_empty() && !delta.is_empty());
        let (bytes, ()) =
            allocated_bytes(|| monitor.apply_update(net.topology(), net.labels(), &delta));
        assert!(
            monitor.last_events().is_empty(),
            "the probes move no identity"
        );
        bytes
    })
}

#[test]
fn monitor_repair_allocation_is_independent_of_the_atom_count() {
    let mut cold = Vec::new();
    for (filler_rules, min_atoms) in [(500, 1_000), (32_000, 64_000)] {
        let Plane {
            mut net,
            probe,
            closer,
        } = plane(filler_rules);
        assert!(net.allocated_atoms() >= min_atoms);
        let mut monitor = ViolationMonitor::from_state(net.topology(), net.labels(), net.atoms());
        assert_eq!((monitor.loop_count(), monitor.blackhole_count()), (1, 1));

        // Cold: the first repairs size the monitor's scratch.
        cold.push([
            flap(&mut net, &mut monitor, probe),
            flap(&mut net, &mut monitor, closer),
        ]);
        // Warm: an update that transitions no identity allocates nothing —
        // whether it misses every violation (the probe's one-pair delta) or
        // retires an atom from a cycle and re-admits it (the closer's).
        assert_eq!(flap(&mut net, &mut monitor, probe), [0, 0]);
        assert_eq!(flap(&mut net, &mut monitor, closer), [0, 0]);

        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(monitor.active_violations(net.atoms()), expect);
    }
    assert_eq!(cold[0], cold[1], "cold repair bytes: 1 k vs 64 k atoms");
    assert!(cold[0][0][0] > 0, "the first repair sizes the scratch");
}

#[test]
fn seeded_loop_check_allocation_is_independent_of_the_atom_count() {
    let mut bytes = Vec::new();
    for filler_rules in [500, 32_000] {
        let Plane { mut net, probe, .. } = plane(filler_rules);
        net.insert_rule(probe);
        let seeds = net.last_delta().added.clone();
        assert_eq!(seeds.len(), 1);
        let (allocated, loops) = allocated_bytes(|| {
            find_loops_from_seeds(net.topology(), net.labels(), net.atoms(), &seeds)
        });
        assert!(loops.is_empty());
        // The free function makes a local scratch: three node-count vectors
        // (allowing the allocator's rounding), and nothing else.
        let nodes = net.topology().node_count() as u64;
        assert!(allocated <= 2 * 3 * 4 * nodes, "{allocated} bytes");
        bytes.push(allocated);
    }
    assert_eq!(bytes[0], bytes[1], "loop-check bytes: 1 k vs 64 k atoms");
}

//! Footprint pins, by count: what the monitor repair and the per-update
//! loop check allocate must depend on the update, not on how many atoms the
//! plane holds — on single-field engines and, through the set-at-a-time
//! kernel, on multi-field ones. Timings on a shared box cannot show that;
//! bytes requested from the allocator repeat exactly.
//!
//! Two planes on one topology hold the same violations (one loop shared by
//! two prefixes, one blackhole) under ~1 k and ~64 k allocated atoms; the
//! filler is live rules, so the labels are as long as the atom range. Every
//! atom the probes touch is allocated after the filler and so carries a high
//! id on the large plane — the case in which a bitset over the atom range,
//! or a cloned label, would show.

use deltanet::loops::find_loops_from_seeds;
use deltanet::{DeltaGraph, DeltaNet, DeltaNetConfig, ViolationMonitor};
use netmodel::header::SecondaryMatch;
use netmodel::interval::Interval;
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use testutil::alloc_count::{allocated_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rule ids of the probes (the multi-field plane has a third).
const PROBE: RuleId = RuleId(1_000_001);
const CLOSER: RuleId = RuleId(1_000_002);
const PLUG: RuleId = RuleId(1_000_003);

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

/// A dst × src plane twice over, fed the same operations: `full` monitors
/// and checks every update, `bare` does neither — so the bytes an update
/// allocates on `full` beyond what it allocates on `bare` are exactly the
/// multi-field repair's and seeded check's.
struct MfPlane {
    nets: Pair,
    /// Sends one source block of a prefix down s0 -> s1 -> s2 -> drop: its
    /// flap touches no violation.
    probe: Rule,
    /// Discards at s2 the source blocks of a looping prefix that otherwise
    /// die there, next to another prefix that dies there regardless: its
    /// flap takes one atom off a blackhole that stays, and puts it back.
    plug: Rule,
    /// Closes s0 -> t -> s0 for one source block of a prefix of its own:
    /// its flap raises and retires a loop no other atom rides.
    looper: Rule,
}

struct Pair {
    full: DeltaNet,
    bare: DeltaNet,
    next_id: u64,
}

impl Pair {
    fn install(&mut self, rule: impl Fn(RuleId) -> Rule) {
        self.next_id += 1;
        self.full.insert_rule(rule(RuleId(self.next_id)));
        self.bare.insert_rule(rule(RuleId(self.next_id)));
    }
}

fn src(lo: u128, hi: u128) -> SecondaryMatch {
    SecondaryMatch::new(&[Interval::new(lo, hi)])
}

/// The violations and the probes' atoms come first, so they carry the same
/// low ids whatever the filler — the size of a new identity's atom set is a
/// function of its atom's id.
fn mf_plane(filler_rules: u32) -> MfPlane {
    let mut topo = Topology::new();
    let s: Vec<NodeId> = topo.add_nodes("s", 3);
    let t = topo.add_node("t");
    let ring: Vec<LinkId> = (0..3)
        .map(|i| topo.add_link(s[i], s[(i + 1) % 3]))
        .collect();
    let (to_t, from_t) = (topo.add_link(s[0], t), topo.add_link(t, s[0]));
    let (drop_t, drop_s2) = (topo.drop_link(t), topo.drop_link(s[2]));
    let config = DeltaNetConfig::default().with_secondary(&[6]);
    let mut nets = Pair {
        full: DeltaNet::new(
            topo.clone(),
            DeltaNetConfig {
                monitor_violations: true,
                ..config
            },
        ),
        bare: DeltaNet::new(
            topo,
            DeltaNetConfig {
                check_loops_per_update: false,
                ..config
            },
        ),
        next_id: 0,
    };

    nets.install(|id| Rule::drop(id, prefix("0.0.0.0/0"), 0, t, drop_t));
    // One prefix loops round the ring for sources in [8, 16) and dies at s2
    // for sources in [16, 64) — unless the plug discards those.
    let looping = prefix("172.16.0.0/16");
    nets.install(|id| Rule::forward(id, looping, 1, s[0], ring[0]));
    nets.install(|id| Rule::forward(id, looping, 1, s[1], ring[1]));
    nets.install(|id| Rule::forward(id, looping, 5, s[2], ring[2]).with_secondary(src(8, 16)));
    nets.install(|id| Rule::drop(id, looping, 1, s[2], drop_s2).with_secondary(src(0, 8)));
    let plug = Rule::drop(PLUG, looping, 1, s[2], drop_s2).with_secondary(src(16, 64));
    // A second prefix dies at s2 in every class, keeping that blackhole.
    nets.install(|id| Rule::forward(id, prefix("172.18.0.0/16"), 1, s[1], ring[1]));
    // The probe's path.
    let probed = prefix("198.51.100.0/24");
    nets.install(|id| Rule::forward(id, probed, 1, s[1], ring[1]));
    nets.install(|id| Rule::drop(id, probed, 1, s[2], drop_s2));
    let probe = Rule::forward(PROBE, probed, 5, s[0], ring[0]).with_secondary(src(8, 16));
    // t bounces a prefix back to s0, which has nothing for it but the
    // looper.
    let bounced = prefix("172.19.0.0/16");
    nets.install(|id| Rule::forward(id, bounced, 1, t, from_t));
    let looper = Rule::forward(CLOSER, bounced, 5, s[0], to_t).with_secondary(src(8, 16));
    // One flap of each probe, so its atoms exist before the filler's.
    for rule in [probe, plug, looper] {
        nets.install(|_| rule);
        nets.full.remove_rule(rule.id);
        nets.bare.remove_rule(rule.id);
    }

    // Filler: disjoint /24s under 10/8 forwarded s0 -> t and dropped there.
    for i in 0..filler_rules {
        let p = prefix(&format!("10.{}.{}.0/24", i >> 7, (i & 0x7f) << 1));
        nets.install(|id| Rule::forward(id, p, 1, s[0], to_t));
    }
    let monitor = nets.full.monitor().expect("monitoring is on");
    assert_eq!((monitor.loop_count(), monitor.blackhole_count()), (1, 2));
    MfPlane {
        nets,
        probe,
        plug,
        looper,
    }
}

impl MfPlane {
    /// Toggles `rule` twice on both engines; returns, per toggle, the bytes
    /// the monitored and checked update allocated beyond the bare one, and
    /// the identity transitions it caused.
    fn flap(&mut self, rule: Rule) -> [(u64, usize); 2] {
        std::array::from_fn(|_| {
            let toggle = |net: &mut DeltaNet| {
                if net.rule(rule.id).is_some() {
                    allocated_bytes(|| net.remove_rule(rule.id)).0
                } else {
                    allocated_bytes(|| net.insert_rule(rule)).0
                }
            };
            let (full, bare) = (toggle(&mut self.nets.full), toggle(&mut self.nets.bare));
            let monitor = self.nets.full.monitor().expect("monitoring is on");
            (full - bare, monitor.last_events().len())
        })
    }
}

#[test]
fn multifield_repair_and_check_allocate_by_the_update_not_the_plane() {
    let mut moving = Vec::new();
    let mut atoms = Vec::new();
    for filler_rules in [500, 5_000] {
        let mut plane = mf_plane(filler_rules);
        atoms.push(plane.nets.full.atom_count());
        let (probe, plug, looper) = (plane.probe, plane.plug, plane.looper);
        // Cold: the first repairs size the kernel's and the monitor's
        // scratch.
        for rule in [probe, plug, looper] {
            plane.flap(rule);
        }
        // Warm: an update that transitions no identity allocates nothing
        // in the repair or the seeded check — whether it misses every
        // violation (the probe) or retires an atom from a blackhole and
        // re-admits it (the plug).
        assert_eq!(plane.flap(probe), [(0, 0), (0, 0)]);
        let holes = |net: &DeltaNet| net.check_all_blackholes();
        let unplugged = holes(&plane.nets.full);
        let [plugged, back] = plane.flap(plug);
        assert_eq!((plugged, back), ((0, 0), (0, 0)));
        assert_eq!(holes(&plane.nets.full), unplugged);
        plane.nets.full.insert_rule(plug);
        assert_ne!(holes(&plane.nets.full), unplugged, "the plug moves an atom");
        plane.nets.full.remove_rule(plug.id);

        // An update that does move an identity pays for the identity: the
        // cycle, its atom set, the event, the report.
        let [raised, retired] = plane.flap(looper);
        assert_eq!((raised.1, retired.1), (1, 1), "one loop up, one down");
        assert!(raised.0 > 0);
        moving.push([raised.0, retired.0]);

        let mut expect = plane.nets.full.check_all_loops();
        expect.extend(plane.nets.full.check_all_blackholes());
        assert_eq!(plane.nets.full.active_violations(), Some(expect));
    }
    assert!(atoms[1] >= 10 * atoms[0] - 100, "atoms: {atoms:?}");
    assert_eq!(moving[0], moving[1], "transition bytes: {atoms:?} atoms");
}

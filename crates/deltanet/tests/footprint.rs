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
//!
//! The daemon's per-window step (a monitored sharded engine's window
//! through a `Session`, and the transitions it publishes) is pinned the
//! same way against the number of standing violations.

use deltanet::{DeltaNet, DeltaNetConfig, Parallelism, PersistNet, Session, ShardedDeltaNet};
use netmodel::checker::Checker;
use netmodel::header::SecondaryMatch;
use netmodel::interval::Interval;
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use testutil::alloc_count::{allocated_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rule ids of the probes (the multi-field plane has two more).
const PROBE: RuleId = RuleId(1_000_001);
const CLOSER: RuleId = RuleId(1_000_002);
const PLUG: RuleId = RuleId(1_000_003);
const SHADOWED: RuleId = RuleId(1_000_004);

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
    plane_with(filler_rules, DeltaNetConfig::default())
}

fn plane_with(filler_rules: u32, config: DeltaNetConfig) -> Plane {
    let mut topo = Topology::new();
    let s: Vec<NodeId> = topo.add_nodes("s", 3);
    let t = topo.add_node("t");
    let ring: Vec<LinkId> = (0..3)
        .map(|i| topo.add_link(s[i], s[(i + 1) % 3]))
        .collect();
    let to_t = topo.add_link(s[0], t);
    let drop_t = topo.drop_link(t);
    let drop_s2 = topo.drop_link(s[2]);
    let mut net = DeltaNet::new(topo, config);
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

/// Toggles `rule` twice (out and back in, or in and back out), each toggle
/// a one-op window of the monitored `net`; returns the bytes allocated
/// inside the two `try_apply` calls.
fn flap(net: &mut DeltaNet, rule: Rule) -> [u64; 2] {
    std::array::from_fn(|_| {
        let op = match net.rule(rule.id) {
            Some(_) => Op::Remove(rule.id),
            None => Op::Insert(rule),
        };
        let (bytes, report) = allocated_bytes(|| net.try_apply(&op));
        assert!(report.is_ok());
        let delta = net.last_delta();
        assert!(delta.splits.is_empty() && !delta.is_empty());
        let monitor = net.monitor().expect("monitoring is on");
        assert!(
            monitor.last_events().is_empty(),
            "the probes move no identity"
        );
        bytes
    })
}

#[test]
fn monitor_repair_allocation_is_independent_of_the_atom_count() {
    // The engine's own repair, in one-op windows: the update and the repair
    // at the updated switch together allocate the same bytes on both
    // planes, cold and warm. The per-update check is off: the next test
    // holds it to an unmonitored engine's, on both planes.
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for (filler_rules, min_atoms) in [(500, 1_000), (32_000, 64_000)] {
        let unchecked = DeltaNetConfig {
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        };
        let Plane {
            mut net,
            probe,
            closer,
        } = plane_with(filler_rules, unchecked);
        assert!(net.allocated_atoms() >= min_atoms);
        let monitor = net.enable_monitor();
        assert_eq!((monitor.loop_count(), monitor.blackhole_count()), (1, 1));

        // Cold: the first repairs size the monitor's scratch.
        cold.push([flap(&mut net, probe), flap(&mut net, closer)]);
        warm.push([flap(&mut net, probe), flap(&mut net, closer)]);

        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations(), Some(expect));
    }
    assert_eq!(cold[0], cold[1], "cold window bytes: 1 k vs 64 k atoms");
    assert_eq!(warm[0], warm[1], "warm window bytes: 1 k vs 64 k atoms");
    assert!(
        cold[0][0][0] > warm[0][0][0],
        "the first repair sizes the scratch"
    );
}

#[test]
fn engine_repair_allocates_what_the_unmonitored_check_does() {
    // The engine's own repair of a one-op window, at the updated switch:
    // `full` monitors, `bare` is the same engine without a monitor, fed
    // the same operations, and both run the same per-update check. Neither
    // flap moves an identity, so a warm repair allocates nothing beyond the
    // check — the closer's insert reports the loop it rejoins on both
    // engines alike, in the same bytes on both planes: the check collects
    // a loop's atoms in a reused list, not a set over the atom range.
    let mut reported = Vec::new();
    for (filler_rules, min_atoms) in [(500, 1_000), (32_000, 64_000)] {
        let monitored = DeltaNetConfig {
            monitor_violations: true,
            ..DeltaNetConfig::default()
        };
        let Plane {
            net: mut full,
            probe,
            closer,
        } = plane_with(filler_rules, monitored);
        let mut bare = plane(filler_rules).net;
        assert!(full.allocated_atoms() >= min_atoms);
        let monitor = full.monitor().expect("monitoring is on");
        assert_eq!((monitor.loop_count(), monitor.blackhole_count()), (1, 1));
        // Toggles `rule` twice on both engines; returns, per toggle, the
        // bytes each allocated and whether the update reported a loop.
        let mut flap = |rule: Rule| -> [(u64, u64, bool); 2] {
            std::array::from_fn(|_| {
                let toggle = |net: &mut DeltaNet| {
                    if net.rule(rule.id).is_some() {
                        allocated_bytes(|| net.remove_rule(rule.id))
                    } else {
                        allocated_bytes(|| net.insert_rule(rule))
                    }
                };
                let ((full_bytes, report), (bare_bytes, twin)) =
                    (toggle(&mut full), toggle(&mut bare));
                assert_eq!(report, twin);
                let monitor = full.monitor().expect("monitoring is on");
                assert!(
                    monitor.last_events().is_empty(),
                    "the probes move no identity"
                );
                (full_bytes, bare_bytes, report.has_loop())
            })
        };
        // Cold: the first repairs size the monitor's scratch.
        flap(probe);
        flap(closer);
        let [out, back] = flap(probe);
        assert_eq!(
            (out.0, back.0),
            (out.1, back.1),
            "probe: full vs bare bytes"
        );
        let [out, back] = flap(closer);
        assert_eq!(
            (out.0, back.0),
            (out.1, back.1),
            "closer: full vs bare bytes"
        );
        assert!(!out.2 && back.2, "the closer's insert reports its loop");
        assert!(back.1 > 0, "the reported loop allocates on both");
        reported.push(back.1);

        let mut expect = full.check_all_loops();
        expect.extend(full.check_all_blackholes());
        assert_eq!(full.active_violations(), Some(expect));
    }
    assert_eq!(
        reported[0], reported[1],
        "closer's insert bytes: 1 k vs 64 k atoms"
    );
}

#[test]
fn engine_window_repair_allocates_what_the_unmonitored_window_does() {
    // One `apply_window` carries the probe's and the closer's flaps; the
    // monitored engine repairs once at its close, over both sources, from
    // a window record whose buffers the first window sized. Warm, it
    // allocates exactly what the unmonitored twin's window does — the
    // reports, and the loop the closer's insert reports on both.
    for (filler_rules, min_atoms) in [(500, 1_000), (32_000, 64_000)] {
        let monitored = DeltaNetConfig {
            monitor_violations: true,
            ..DeltaNetConfig::default()
        };
        let Plane {
            net: mut full,
            probe,
            closer,
        } = plane_with(filler_rules, monitored);
        let mut bare = plane(filler_rules).net;
        assert!(full.allocated_atoms() >= min_atoms);
        let ops = [
            Op::Insert(probe),
            Op::Remove(CLOSER),
            Op::Insert(closer),
            Op::Remove(PROBE),
        ];
        let mut window = || {
            let (full_bytes, (reports, failure)) = allocated_bytes(|| full.apply_window(&ops));
            let (bare_bytes, twin) = allocated_bytes(|| bare.apply_window(&ops));
            assert_eq!((&reports, &failure), (&twin.0, &twin.1));
            assert_eq!(failure, None);
            assert!(
                reports[2].has_loop(),
                "the closer's insert reports its loop"
            );
            let monitor = full.monitor().expect("monitoring is on");
            assert!(monitor.last_events().is_empty(), "the window nets out");
            (full_bytes, bare_bytes)
        };
        // Cold: the first window sizes the record and the monitor's scratch.
        window();
        let (full_bytes, bare_bytes) = window();
        assert_eq!(full_bytes, bare_bytes, "window: full vs bare bytes");
        assert!(bare_bytes > 0, "the reports allocate on both");

        let mut expect = full.check_all_loops();
        expect.extend(full.check_all_blackholes());
        assert_eq!(full.active_violations(), Some(expect));
    }
}

#[test]
fn seeded_loop_check_allocation_is_independent_of_the_atom_count() {
    // The per-update check an unmonitored engine runs on the probe's
    // insert: one walk seeded by the one pair it adds, on the engine's own
    // scratch. Against a twin with the check off, fed the same operations,
    // a warm check allocates nothing, on both planes.
    let mut bytes = Vec::new();
    for filler_rules in [500, 32_000] {
        let Plane {
            net: mut checked,
            probe,
            ..
        } = plane(filler_rules);
        let unchecked = DeltaNetConfig {
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        };
        let mut bare = plane_with(filler_rules, unchecked).net;
        let insert = |net: &mut DeltaNet| {
            let inserted = allocated_bytes(|| net.insert_rule(probe));
            assert_eq!(net.last_delta().added.len(), 1, "one seed");
            net.remove_rule(PROBE);
            inserted
        };
        // Cold: the first check sizes the scratch.
        insert(&mut checked);
        let (checked_bytes, report) = insert(&mut checked);
        let (bare_bytes, twin) = insert(&mut bare);
        assert_eq!(report, twin);
        assert!(report.violations.is_empty());
        assert_eq!(checked_bytes, bare_bytes, "checked vs bare bytes");
        bytes.push(checked_bytes);
    }
    assert_eq!(bytes[0], bytes[1], "probe insert bytes: 1 k vs 64 k atoms");
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
    /// Sends the looping prefix on round the ring from s2, below the deny
    /// for the same source block: the deny wins every class the rule
    /// admits, so its flap moves nothing, and the repair skips its atom.
    shadowed: Rule,
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
    let shadowed = Rule::forward(SHADOWED, looping, 0, s[2], ring[2]).with_secondary(src(0, 8));
    // One flap of each probe, so its atoms exist before the filler's.
    for rule in [probe, plug, looper, shadowed] {
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
        shadowed,
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
        let shadowed = plane.shadowed;
        // Cold: the first repairs size the kernel's and the monitor's
        // scratch.
        for rule in [probe, plug, looper, shadowed] {
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
        // Nor does one whose every class a higher rule wins.
        assert_eq!(plane.flap(shadowed), [(0, 0), (0, 0)]);

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

/// A monitored 2-shard engine in a [`Session`] (the daemon's shape) over a
/// hub with 1,000 spokes, `holes` of them fed a 10/8 prefix they have no
/// rule for — one standing blackhole each, all in shard 0 — and the probe:
/// a prefix of shard 1 forwarded p -> q, where q drops it.
fn hub_session(holes: u32) -> (Session, Rule) {
    let mut topo = Topology::new();
    let hub = topo.add_node("hub");
    let spokes: Vec<LinkId> = (0..1_000)
        .map(|i| {
            let spoke = topo.add_node(format!("n{i}"));
            topo.add_link(hub, spoke)
        })
        .collect();
    let [p, q] = ["p", "q"].map(|name| topo.add_node(name));
    let pq = topo.add_link(p, q);
    let drop_q = topo.drop_link(q);
    let config = DeltaNetConfig {
        monitor_violations: true,
        ..DeltaNetConfig::default()
    };
    let mut net = ShardedDeltaNet::with_parallelism(topo, config, 2, Parallelism::fixed(1));
    let mut ops: Vec<Op> = (0..holes)
        .map(|i| {
            let spoke = prefix(&format!("10.{}.{}.0/24", i >> 8, i & 0xff));
            let link = spokes[i as usize];
            Op::Insert(Rule::forward(RuleId(u64::from(i) + 1), spoke, 1, hub, link))
        })
        .collect();
    let probed = prefix("198.51.100.0/24");
    ops.push(Op::Insert(Rule::drop(RuleId(0), probed, 1, q, drop_q)));
    assert_eq!(net.apply_window(&ops).1, None);
    let keys = net.monitor_keys().expect("monitoring is on");
    assert_eq!(keys.len(), holes as usize, "one blackhole per fed spoke");
    let session = Session::new(PersistNet::Sharded(Box::new(net)), None);
    (session, Rule::forward(PROBE, probed, 5, p, pq))
}

#[test]
fn session_window_transitions_allocate_by_the_window_not_the_violations() {
    // The daemon's per-window step: `Session::apply` and the transitions it
    // publishes. A window that moves no identity allocates the same bytes
    // beside 1 standing blackhole as beside 1,000: the transitions fold the
    // busy shard's events, and never gather the engine's active keys.
    let steps = [1, 1_000].map(|holes| {
        let (mut session, probe) = hub_session(holes);
        let mut step = || {
            let installed = session.net().checker().rule_count() > holes as usize + 1;
            let op = if installed {
                Op::Remove(probe.id)
            } else {
                Op::Insert(probe)
            };
            let (bytes, (applied, transitions)) = allocated_bytes(|| {
                let (reports, failure) = session.apply(&[op]);
                (
                    reports.len() == 1 && failure.is_none(),
                    session.transitions(),
                )
            });
            assert!(applied && transitions.is_empty(), "the probe moves nothing");
            bytes
        };
        // Cold, then warm: the first windows size the repair's scratch.
        [step(), step(), step(), step()]
    });
    assert_eq!(steps[0], steps[1], "window bytes: 1 vs 1,000 blackholes");
}

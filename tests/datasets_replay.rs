//! Integration tests: replay the (tiny-scale) evaluation datasets end to end
//! through both checkers and validate global invariants.

use delta_net::prelude::*;

fn replay_deltanet(ds: &Dataset, check_loops: bool) -> DeltaNet {
    let mut net = DeltaNet::new(
        ds.topology.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: check_loops,
            ..Default::default()
        },
    );
    assert_eq!(net.apply_window(ds.trace.ops()).1, None);
    net
}

#[test]
fn synthetic_dataset_replays_to_empty_data_plane() {
    let ds = workloads::build(DatasetId::Berkeley, ScaleProfile::Tiny);
    let net = replay_deltanet(&ds, false);
    // Everything inserted was removed, so no rules and no labelled links.
    assert_eq!(net.rule_count(), 0);
    for link in net.topology().links().to_vec() {
        assert!(
            net.label(link.id).is_empty(),
            "{:?} still labelled after full replay",
            link.id
        );
    }
    // Atoms are never reclaimed; their number is bounded by 2R + 1.
    let peak_rules = ds.trace.peak_rule_count();
    assert!(net.atom_count() <= 2 * peak_rules + 1);
    assert!(net.atom_count() >= 1);
}

#[test]
fn atoms_are_far_fewer_than_rules_on_every_dataset() {
    // The headline observation behind Table 3: the number of atoms is much
    // smaller than the number of rules, because prefixes share bounds.
    for id in [DatasetId::Rf1755, DatasetId::Inet, DatasetId::FourSwitch] {
        let ds = workloads::build(id, ScaleProfile::Tiny);
        let net = replay_deltanet(&ds, false);
        let inserts = ds.trace.insert_count();
        assert!(
            net.atom_count() < inserts,
            "{}: {} atoms vs {} rules inserted",
            id.name(),
            net.atom_count(),
            inserts
        );
    }
}

#[test]
fn sdn_ip_traces_converge_to_loop_free_data_planes() {
    // The simulated SDN-IP controller installs rules one at a time, so a
    // *transient* loop can appear while an advertisement whose prefix nests
    // inside another (with a different egress) is only partially installed —
    // exactly the kind of violation a real-time checker exists to flag. The
    // converged data plane, however, must always be loop-free, and any loop
    // reported per update must really exist at that instant.
    for id in [DatasetId::Airtel1, DatasetId::FourSwitch] {
        let ds = workloads::build(id, ScaleProfile::Tiny);
        let mut net = DeltaNet::new(ds.topology.topology.clone(), DeltaNetConfig::default());
        let mut transient_loops = 0usize;
        for op in ds.trace.ops() {
            let report = net.try_apply(op).expect("a dataset op applies");
            if report.has_loop() {
                transient_loops += 1;
                assert!(
                    !net.check_all_loops().is_empty(),
                    "{}: reported loop for {:?} is a false alarm",
                    id.name(),
                    report.rule_id
                );
            }
        }
        assert!(
            net.check_all_loops().is_empty(),
            "{}: converged data plane has a loop",
            id.name()
        );
        // Transient loops stay a clear minority of the updates: they only
        // appear while nested prefixes with different egress points are
        // partially (re)installed, not as a steady state.
        assert!(
            transient_loops < ds.trace.len() / 4,
            "{}: {transient_loops} of {} updates reported loops",
            id.name(),
            ds.trace.len()
        );
    }
}

#[test]
fn airtel_final_state_matches_initial_routing() {
    // Every failure is recovered, so the final data plane equals the initial
    // installation: same number of rules per switch.
    let ds = workloads::build(DatasetId::Airtel1, ScaleProfile::Tiny);
    let final_rules = ds.trace.final_data_plane();
    assert!(!final_rules.is_empty());
    let net = replay_deltanet(&ds, false);
    assert_eq!(net.rule_count(), final_rules.len());
}

#[test]
fn veriflow_and_deltanet_agree_on_rule_counts_across_datasets() {
    for id in [DatasetId::FourSwitch, DatasetId::Airtel1] {
        let ds = workloads::build(id, ScaleProfile::Tiny);
        let mut net = DeltaNet::new(
            ds.topology.topology.clone(),
            DeltaNetConfig {
                check_loops_per_update: false,
                ..Default::default()
            },
        );
        let mut vf = VeriflowRi::new(
            ds.topology.topology.clone(),
            VeriflowConfig {
                check_loops_per_update: false,
                ..Default::default()
            },
        );
        assert_eq!(net.apply_window(ds.trace.ops()).1, None);
        assert_eq!(vf.apply_window(ds.trace.ops()).1, None);
        assert_eq!(net.rule_count(), vf.rule_count(), "{}", id.name());
    }
}

#[test]
fn trace_text_roundtrip_on_dataset() {
    // Serialize a dataset trace to the text format, parse it back, and
    // confirm the replayed state is identical.
    let ds = workloads::build(DatasetId::FourSwitch, ScaleProfile::Tiny);
    let text = ds.trace.to_text(&ds.topology.topology);
    let mut topo2 = ds.topology.topology.clone();
    let parsed = Trace::parse(&text, &mut topo2).expect("roundtrip parse");
    assert_eq!(parsed.len(), ds.trace.len());

    let mut original = DeltaNet::new(
        ds.topology.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    let mut reparsed = DeltaNet::new(
        topo2,
        DeltaNetConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    assert_eq!(original.apply_window(ds.trace.ops()).1, None);
    assert_eq!(reparsed.apply_window(parsed.ops()).1, None);
    assert_eq!(original.rule_count(), reparsed.rule_count());
    assert_eq!(original.atom_count(), reparsed.atom_count());
}

#[test]
fn whatif_on_airtel_data_plane_reports_affected_flows() {
    let ds = workloads::build(DatasetId::Airtel1, ScaleProfile::Tiny);
    let rules = ds.trace.final_data_plane();
    let mut net = DeltaNet::new(
        ds.topology.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    for r in &rules {
        net.insert_rule(*r);
    }
    // At least one inter-switch link must carry traffic, and its failure
    // must affect at least one packet class.
    let busiest = ds
        .topology
        .topology
        .links()
        .iter()
        .map(|l| l.id)
        .max_by_key(|&l| net.label(l).len())
        .unwrap();
    let report = net.what_if_link_failure(busiest, true);
    assert!(report.affected_classes > 0);
    assert!(!report.affected_packets.is_empty());
    assert!(
        report.violations.is_empty(),
        "the controller's data plane must be loop-free"
    );
}

#[test]
fn reachability_matrix_on_four_switch_data_plane() {
    let ds = workloads::build(DatasetId::FourSwitch, ScaleProfile::Tiny);
    let net = replay_deltanet(&ds, false);
    let matrix = ReachabilityMatrix::compute(&net);
    // The ring with SDN-IP routing lets every switch reach every other.
    let switches: Vec<NodeId> = net.topology().switch_nodes().collect();
    let mut reachable_pairs = 0;
    for &a in &switches {
        for &b in &switches {
            if a != b && matrix.can_reach(a, b) {
                reachable_pairs += 1;
            }
        }
    }
    assert!(
        reachable_pairs >= switches.len() * (switches.len() - 1) / 2,
        "only {reachable_pairs} reachable pairs"
    );
}

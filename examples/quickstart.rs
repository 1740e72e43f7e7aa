//! Quickstart: build a small network, stream rule updates through Delta-net,
//! and catch a forwarding loop the moment it is introduced.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The scenario reproduces the paper's running example (§2.1 / Table 1): a
//! handful of switches, overlapping IP prefix rules with priorities, and a
//! per-update forwarding-loop check.

use delta_net::prelude::*;

fn main() {
    // 1. Describe the topology: four switches in the shape of Figure 1.
    let mut topo = Topology::new();
    let s1 = topo.add_node("s1");
    let s2 = topo.add_node("s2");
    let s3 = topo.add_node("s3");
    let s4 = topo.add_node("s4");
    let l12 = topo.add_link(s1, s2);
    let l23 = topo.add_link(s2, s3);
    let l34 = topo.add_link(s3, s4);
    let l14 = topo.add_link(s1, s4);
    let l41 = topo.add_link(s4, s1); // reverse direction, used to force a loop
    let drop_s1 = topo.drop_link(s1);

    // 2. Create the checker. Per-update loop checking is on by default.
    let mut net = DeltaNet::with_topology(topo);

    // 3. Install the rules of the running example.
    let updates = vec![
        // r1: s1 forwards 10.0.0.0/8 to s2 (low priority).
        Rule::forward(RuleId(1), "10.0.0.0/8".parse().unwrap(), 10, s1, l12),
        // r2: s2 forwards 10.0.0.0/9 to s3.
        Rule::forward(RuleId(2), "10.0.0.0/9".parse().unwrap(), 10, s2, l23),
        // r3: s3 forwards 10.0.0.0/8 to s4.
        Rule::forward(RuleId(3), "10.0.0.0/8".parse().unwrap(), 10, s3, l34),
        // r4: s1 forwards 10.64.0.0/10 directly to s4, higher priority than r1.
        Rule::forward(RuleId(4), "10.64.0.0/10".parse().unwrap(), 20, s1, l14),
        // rH (Table 1): s1 drops 10.0.0.10/31 with the highest priority.
        Rule::drop(RuleId(5), "10.0.0.10/31".parse().unwrap(), 99, s1, drop_s1),
    ];
    for rule in updates {
        let report = net.insert_rule(rule);
        println!(
            "insert {:>2}: {:2} atoms affected, {} changed link(s), loops: {}",
            report.rule_id.unwrap(),
            report.affected_classes,
            report.changed_links.len(),
            report.has_loop()
        );
    }

    // 4. Ask the persistent edge labels what travels on each link, and
    //    Algorithm 3 which packets can reach s4 from s1.
    for (name, link) in [("s1->s2", l12), ("s2->s3", l23), ("s1->s4", l14)] {
        println!(
            "packets on {name}: {:?}",
            net.atoms().packets_of(net.label(link))
        );
    }
    let reach = ReachabilityMatrix::compute(&net).expect("a single-field engine");
    println!(
        "packets that can reach s4 from s1: {:?}",
        reach.reachable_packets(&net, s1, s4)
    );

    // 5. Introduce a bad rule: s4 sends 10.64.0.0/10 back to s1 — a loop.
    let report = net.insert_rule(Rule::forward(
        RuleId(6),
        "10.64.0.0/10".parse().unwrap(),
        50,
        s4,
        l41,
    ));
    for violation in &report.violations {
        println!("VIOLATION: {violation}");
    }
    assert!(report.has_loop(), "the loop must be detected in real time");

    // 6. Fix it and confirm the data plane is clean again.
    net.remove_rule(RuleId(6));
    assert!(net.check_all_loops().is_empty());
    println!("loop removed; data plane verified clean");
    println!(
        "final state: {} rules, {} atoms, ~{} KiB",
        net.rule_count(),
        net.atom_count(),
        net.memory_bytes() / 1024
    );
}

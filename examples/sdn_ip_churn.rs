//! Real-time verification of SDN-IP controller churn (§4.2.2 / §4.3.1).
//!
//! Run with: `cargo run --release --example sdn_ip_churn`
//!
//! Simulates the paper's most realistic scenario: an SDN-IP/ONOS controller
//! on an Airtel-like WAN where BGP border routers advertise prefixes, links
//! fail and recover, and the controller continuously rewrites the data
//! plane. Every single rule insertion/removal is verified by Delta-net in
//! real time (loop check included) and the per-update latency distribution
//! is printed at the end.

use delta_net::prelude::*;
use workloads::sdnip::{SdnIpConfig, SdnIpController};
use workloads::topologies::airtel;

fn main() {
    let topo = airtel(12, 2026);
    let mut controller = SdnIpController::new(
        topo.clone(),
        SdnIpConfig {
            prefixes_per_router: 50,
            seed: 42,
        },
    );
    let mut checker = DeltaNet::with_topology(topo.topology.clone());
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut loops_found = 0usize;

    let mut verify = |checker: &mut DeltaNet, trace: Trace, phase: &str| {
        let mut phase_loops = 0;
        for op in trace.ops() {
            let start = std::time::Instant::now();
            let report = checker.try_apply(op).expect("the controller's ops apply");
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            if report.has_loop() {
                phase_loops += 1;
            }
        }
        if phase_loops > 0 {
            println!("  {phase}: {phase_loops} update(s) introduced a forwarding loop!");
        }
        loops_found += phase_loops;
    };

    // Initial convergence: the controller installs routes for every prefix.
    controller.reconcile();
    let initial = controller.take_trace();
    println!(
        "initial convergence: {} advertisements -> {} rule installs",
        controller.advertisements().len(),
        initial.len()
    );
    verify(&mut checker, initial, "initial");

    // Fail and recover every inter-switch link, verifying all churn.
    let pairs = controller.inter_switch_links();
    println!(
        "injecting {} single link failures (+ recovery)",
        pairs.len()
    );
    for &(a, b) in &pairs {
        controller.fail_link_between(a, b);
        verify(&mut checker, controller.take_trace(), "failure");
        controller.recover_link_between(a, b);
        verify(&mut checker, controller.take_trace(), "recovery");
    }

    // Report the latency distribution, Table-3 style.
    latencies_us.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let median = latencies_us[latencies_us.len() / 2];
    let avg: f64 = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
    let under_250 = latencies_us.iter().filter(|&&t| t < 250.0).count();
    println!(
        "\nverified {} data-plane updates in real time",
        latencies_us.len()
    );
    println!("  atoms maintained:        {}", checker.atom_count());
    println!("  median update latency:   {median:.1} us");
    println!("  average update latency:  {avg:.1} us");
    println!(
        "  updates under 250 us:    {:.2}%",
        100.0 * under_250 as f64 / latencies_us.len() as f64
    );
    println!("  forwarding loops found:  {loops_found}");
    println!("  final rules installed:   {}", checker.rule_count());
}

//! All-pairs reachability with Algorithm 3 (§3.3) — the pre-deployment,
//! Datalog-style use case.
//!
//! Run with: `cargo run --release --example all_pairs_reachability`
//!
//! Builds a small campus data plane, computes the transitive closure of all
//! packet flows between every pair of switches with the Floyd–Warshall
//! adaptation over atom sets, and then answers a few policy questions
//! (isolation, waypointing) from the same matrix.

use delta_net::prelude::*;
use deltanet::query::FlowQuery;
use workloads::bgp::{generate_prefixes, PrefixGenConfig};
use workloads::rulegen::{generate_data_plane, PriorityMode};
use workloads::topologies::campus;

fn main() {
    // A small campus: 2 cores, 3 distribution, 6 access switches.
    let topo = campus("campus", 2, 3, 6, 7);
    let prefixes = generate_prefixes(PrefixGenConfig {
        count: 120,
        overlap_percent: 40,
        seed: 99,
    });
    let plane = generate_data_plane(&topo, &prefixes, PriorityMode::PrefixLength, 5);
    println!(
        "campus data plane: {} nodes, {} links, {} rules, {} prefixes",
        topo.node_count(),
        topo.link_count(),
        plane.rules.len(),
        prefixes.len()
    );

    let mut net = DeltaNet::new(
        topo.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    for r in &plane.rules {
        net.insert_rule(*r);
    }
    println!("atoms: {}", net.atom_count());

    // Algorithm 3: the all-pairs reachability of every atom.
    let start = std::time::Instant::now();
    let matrix = ReachabilityMatrix::compute(&net).expect("a single-field engine");
    println!(
        "Algorithm 3 over {} nodes took {:.2} ms; {} reachable (src, dst) pairs",
        matrix.node_count(),
        start.elapsed().as_secs_f64() * 1e3,
        matrix.reachable_pair_count()
    );

    // Show the flows between the first two access switches.
    let acc0 = topo.topology.node_by_name("acc0").unwrap();
    let acc1 = topo.topology.node_by_name("acc1").unwrap();
    let packets = matrix.reachable_packets(&net, acc0, acc1);
    println!(
        "packets that can flow acc0 -> acc1: {} interval(s), e.g. {:?}",
        packets.len(),
        packets.first()
    );

    // Policy questions answered from the persistent state.
    let q = FlowQuery::new(&net).expect("a single-field engine");
    let core0 = topo.topology.node_by_name("core0").unwrap();
    println!(
        "acc0 -> acc1 always traverses core0? {}",
        q.always_traverses(acc0, acc1, core0)
    );
    println!("acc0 isolated from acc1? {}", q.isolated(acc0, acc1));

    // Count fully-isolated pairs among access switches (should be none in a
    // well-configured campus).
    let access: Vec<NodeId> = (0..6)
        .map(|i| topo.topology.node_by_name(&format!("acc{i}")).unwrap())
        .collect();
    let mut isolated_pairs = 0;
    for &a in &access {
        for &b in &access {
            if a != b && !matrix.can_reach(a, b) {
                isolated_pairs += 1;
            }
        }
    }
    println!("isolated access-switch pairs: {isolated_pairs}");
}

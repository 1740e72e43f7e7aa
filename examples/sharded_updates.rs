//! Sharded batched updates: partition the address space across engines and
//! apply a window of rule updates with the per-shard groups running
//! concurrently, then show that the sharded and the single engine agree on
//! every observable answer.
//!
//! Run with: `cargo run --example sharded_updates`

use delta_net::prelude::*;
use deltanet::ShardedDeltaNet;

fn main() {
    // A 4-switch ring.
    let mut topo = Topology::new();
    let nodes = topo.add_nodes("s", 4);
    for i in 0..4 {
        topo.add_link(nodes[i], nodes[(i + 1) % 4]);
    }

    let config = DeltaNetConfig {
        check_loops_per_update: false,
        ..Default::default()
    };
    // Three shards, so the boundaries fall at non-prefix positions and the
    // wide rules below genuinely straddle them.
    let mut sharded = ShardedDeltaNet::new(topo.clone(), config, 3);
    let mut single = DeltaNet::new(topo.clone(), config);

    // A batch of /6 rules spread over the whole IPv4 space plus the default
    // route, which is split at both interior shard boundaries.
    let mut ops: Vec<Op> = (0..32u64)
        .map(|i| {
            let prefix = IpPrefix::ipv4((i as u32) << 27, 6);
            let src = nodes[(i % 4) as usize];
            let link = topo.out_links(src)[0];
            Op::Insert(Rule::forward(RuleId(i), prefix, 10, src, link))
        })
        .collect();
    let default_route: IpPrefix = "0.0.0.0/0".parse().unwrap();
    ops.push(Op::Insert(Rule::forward(
        RuleId(99),
        default_route,
        1,
        nodes[0],
        topo.out_links(nodes[0])[0],
    )));

    let reports = sharded.apply_batch(&ops).expect("well-formed batch");
    assert_eq!(single.apply_window(&ops).1, None, "well-formed batch");

    println!(
        "applied {} updates across {} shards ({} worker threads available)",
        reports.len(),
        sharded.shard_count(),
        sharded.parallelism().workers()
    );
    for (range, shard) in sharded.shard_ranges().iter().zip(sharded.shards()) {
        println!(
            "  shard {range}: {} rules, {} atoms, {} label bytes",
            shard.rule_count(),
            shard.owned_atom_count(),
            shard.labels().live_bytes()
        );
    }

    // The observable state is identical to the single engine's.
    let mut agreements = 0;
    for link in topo.links().iter().map(|l| l.id) {
        let merged = sharded.label_intervals(link);
        let single_view = netmodel::interval::normalize(
            single
                .label(link)
                .iter()
                .map(|a| single.atoms().atom_interval(a))
                .collect(),
        );
        assert_eq!(merged, single_view, "labels diverge on {link:?}");
        agreements += 1;
    }
    println!("sharded and single-engine labels agree on all {agreements} links");
    println!(
        "classes: sharded {} vs single {} (two extra: atoms split at the interior shard boundaries)",
        sharded.class_count(),
        single.class_count()
    );
}

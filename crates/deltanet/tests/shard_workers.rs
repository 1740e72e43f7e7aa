//! The lifecycle of `ShardedDeltaNet`'s helper threads, read from the
//! kernel's thread list: they are spawned once per engine, on the first
//! window with two busy shard groups — never per window — resized by
//! `set_parallelism`, not inherited by a clone, and joined when their engine
//! goes. The file holds one `#[test]` so no other test's threads share the
//! process.
#![cfg(target_os = "linux")]

use deltanet::{DeltaNetConfig, Parallelism, ShardedDeltaNet};
use netmodel::ip::IpPrefix;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::Topology;
use netmodel::trace::Op;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const SHARDS: usize = 6;

/// The thread ids of this process's `deltanet-shard-<i>` helpers (the
/// kernel cuts a `comm` to 15 bytes, which leaves `deltanet-shard-`).
fn helper_tids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            if !comm.starts_with("deltanet-shard-") {
                return None;
            }
            path.file_name()?.to_str()?.parse().ok()
        })
        .collect()
}

/// The helper ids once `want` are listed. A joined thread leaves the
/// kernel's list a moment after `join` returns, so a count that must fall
/// is polled (for at most ten seconds) before it is asserted.
fn settled(want: usize) -> BTreeSet<u64> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let tids = helper_tids();
        if tids.len() == want || Instant::now() > deadline {
            return tids;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Window `i` inserts one host route into every shard (even `i`) or removes
/// them again (odd `i`), so every shard group is busy and every helper gets
/// a chunk.
fn window(net: &ShardedDeltaNet, i: usize) -> Vec<Op> {
    let link = &net.topology().links()[0];
    net.shard_ranges()
        .iter()
        .enumerate()
        .map(|(s, range)| {
            let id = RuleId(s as u64);
            if i % 2 == 0 {
                let host = IpPrefix::ipv4(range.lo() as u32, 32);
                Op::Insert(Rule::forward(id, host, 1, link.src, link.id))
            } else {
                Op::Remove(id)
            }
        })
        .collect()
}

fn apply(net: &mut ShardedDeltaNet, i: usize) {
    let ops = window(net, i);
    net.apply_batch(&ops).expect("well-formed window");
}

#[test]
fn shard_workers_are_spawned_once_per_engine_and_joined_with_it() {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    topo.add_link(a, b);
    let mut net = ShardedDeltaNet::with_parallelism(
        topo,
        DeltaNetConfig::default(),
        SHARDS,
        Parallelism::fixed(3),
    );
    assert!(helper_tids().is_empty(), "construction spawns no thread");

    apply(&mut net, 0);
    let first = helper_tids();
    assert_eq!(first.len(), 2, "workers - 1 helpers after the first window");
    for i in 1..=100 {
        apply(&mut net, i);
    }
    assert_eq!(helper_tids(), first, "the same helpers serve every window");

    net.set_parallelism(Parallelism::fixed(SHARDS));
    apply(&mut net, 101);
    let resized = settled(SHARDS - 1);
    assert_eq!(
        resized.len(),
        SHARDS - 1,
        "set_parallelism resizes the pool"
    );

    let mut copy = net.clone();
    assert_eq!(helper_tids(), resized, "a clone starts with no helpers");
    apply(&mut copy, 102);
    assert_eq!(
        helper_tids().len(),
        2 * (SHARDS - 1),
        "until it applies a window"
    );

    drop(net);
    drop(copy);
    assert!(
        settled(0).is_empty(),
        "dropping the engines joins every helper"
    );
}

//! Parallel query evaluation and the shared worker-count configuration.
//!
//! "One advantage of Delta-net is that its main loops over atoms in
//! Algorithm 1 and 2 are highly parallelizable" (§6). The *query* side —
//! what-if analysis of many links, loop audits over many atoms — lives here:
//! it only reads the persistent edge-labelled graph, so it partitions across
//! threads with no synchronization beyond the final merge (a multi-field
//! plane, whose loops the labels do not describe, is audited sequentially
//! by its own kernel instead). The *update*
//! side is parallelized by [`crate::shard::ShardedDeltaNet`], which
//! partitions the address space itself so disjoint shards apply rule updates
//! concurrently; both sides size their thread pools from the same
//! [`Parallelism`] configuration, so a run pinned to `N` workers behaves
//! identically across query and update code.
//!
//! The read-side bulk queries here still use `std::thread::scope`; shard
//! writes run on the persistent helper threads each sharded engine owns.
//! Neither uses `unsafe`, an external dependency or a global thread pool.

use crate::engine::DeltaNet;
use crate::loops;
use netmodel::checker::{InvariantViolation, WhatIfReport};
use netmodel::interval::normalize;
use netmodel::topology::LinkId;
use std::collections::BTreeMap;

/// How many worker threads the parallel entry points (bulk queries, sharded
/// batch updates) may use.
///
/// The single knob replaces the old per-call `available_parallelism`
/// heuristic, so measured runs are reproducible: construct one value — from
/// the CLI's `--workers`, [`Parallelism::auto`], or explicitly — and pass it
/// everywhere. The worker count is always at least 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Parallelism {
    /// Exactly `workers` threads (clamped to at least 1).
    pub fn fixed(workers: usize) -> Self {
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        Parallelism::fixed(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(self) -> usize {
        self.workers
    }

    /// Workers to actually spawn for `items` units of work: never more
    /// threads than items, never fewer than one.
    pub fn for_items(self, items: usize) -> usize {
        self.workers.min(items).max(1)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Merges violations found by independent partitions of one analysis (atom
/// ranges, shards) into the canonical combined form: forwarding loops are
/// grouped by their node cycle and blackholes by their node, with the packet
/// intervals of each group normalized. Loops sort before blackholes; each
/// group sorts by its key.
pub fn merge_violations(
    parts: impl IntoIterator<Item = InvariantViolation>,
) -> Vec<InvariantViolation> {
    let mut loops: BTreeMap<Vec<netmodel::topology::NodeId>, Vec<netmodel::interval::Interval>> =
        BTreeMap::new();
    let mut holes: BTreeMap<netmodel::topology::NodeId, Vec<netmodel::interval::Interval>> =
        BTreeMap::new();
    for violation in parts {
        match violation {
            InvariantViolation::ForwardingLoop { nodes, packets } => {
                loops.entry(nodes).or_default().extend(packets);
            }
            InvariantViolation::Blackhole { node, packets } => {
                holes.entry(node).or_default().extend(packets);
            }
        }
    }
    loops
        .into_iter()
        .map(|(nodes, packets)| InvariantViolation::ForwardingLoop {
            nodes,
            packets: normalize(packets),
        })
        .chain(
            holes
                .into_iter()
                .map(|(node, packets)| InvariantViolation::Blackhole {
                    node,
                    packets: normalize(packets),
                }),
        )
        .collect()
}

/// Answers the link-failure "what if" query for many links concurrently,
/// returning one report per queried link in the input order. Worker count
/// from [`Parallelism::auto`]; use [`what_if_many_with`] to pin it.
///
/// This is the bulk form of [`DeltaNet::link_failure_impact`] used by the
/// failure-scenario sweeps (e.g. "test every possible single link failure",
/// §6 concluding remarks).
pub fn what_if_many(net: &DeltaNet, links: &[LinkId], check_loops: bool) -> Vec<WhatIfReport> {
    what_if_many_with(net, links, check_loops, Parallelism::auto())
}

/// [`what_if_many`] with an explicit worker-count configuration.
pub fn what_if_many_with(
    net: &DeltaNet,
    links: &[LinkId],
    check_loops: bool,
    parallelism: Parallelism,
) -> Vec<WhatIfReport> {
    let workers = parallelism.for_items(links.len());
    if workers <= 1 || links.len() <= 1 {
        return links
            .iter()
            .map(|&l| net.link_failure_impact(l, check_loops))
            .collect();
    }
    let mut results: Vec<Option<WhatIfReport>> = vec![None; links.len()];
    let chunk = links.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (slot, work) in results.chunks_mut(chunk).zip(links.chunks(chunk)) {
            scope.spawn(move || {
                for (out, &link) in slot.iter_mut().zip(work.iter()) {
                    *out = Some(net.link_failure_impact(link, check_loops));
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("filled")).collect()
}

/// Audits the whole data plane for forwarding loops by partitioning the atom
/// space across threads. Produces the same set of violations as
/// [`DeltaNet::check_all_loops`], merely faster on large atom counts.
/// Worker count from [`Parallelism::auto`]; use
/// [`check_all_loops_parallel_with`] to pin it.
///
/// The partitions walk edge labels, which under secondary header fields
/// are a projection that misses and invents loops (see
/// [`crate::multifield`]), so a multi-field plane takes the sequential scan
/// whatever the worker count.
pub fn check_all_loops_parallel(net: &DeltaNet) -> Vec<InvariantViolation> {
    check_all_loops_parallel_with(net, Parallelism::auto())
}

/// [`check_all_loops_parallel`] with an explicit worker-count configuration.
pub fn check_all_loops_parallel_with(
    net: &DeltaNet,
    parallelism: Parallelism,
) -> Vec<InvariantViolation> {
    let all_atoms: Vec<crate::atoms::AtomId> = net.atoms().iter().map(|(a, _)| a).collect();
    let workers = parallelism.for_items(all_atoms.len() / 64 + 1);
    if workers <= 1 || net.is_multifield() {
        return net.check_all_loops();
    }
    let chunk = all_atoms.len().div_ceil(workers);
    let mut partial: Vec<Vec<InvariantViolation>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for work in all_atoms.chunks(chunk) {
            handles.push(scope.spawn(move || {
                let subset: crate::atomset::AtomSet = work.iter().copied().collect();
                loops::find_loops_for_atoms(net.topology(), net.labels(), net.atoms(), &subset)
            }));
        }
        for h in handles {
            partial.push(h.join().expect("loop-audit worker panicked"));
        }
    });
    // The same cycle may be found from different atom partitions; merge to
    // one violation per cycle with the packets combined.
    merge_violations(partial.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeltaNetConfig;
    use netmodel::header::SecondaryMatch;
    use netmodel::interval::Interval;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::{NodeId, Topology};

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn ring_net(with_loop: bool) -> DeltaNet {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 4);
        for i in 0..4 {
            topo.add_link(n[i], n[(i + 1) % 4]);
        }
        let mut net = DeltaNet::new(
            topo,
            DeltaNetConfig {
                check_loops_per_update: false,
                ..Default::default()
            },
        );
        let limit = if with_loop { 4 } else { 3 };
        for i in 0..limit {
            let src = netmodel::topology::NodeId(i as u32);
            let link = net.topology().out_links(src)[0];
            net.insert_rule(Rule::forward(
                RuleId(i as u64),
                prefix("10.0.0.0/8"),
                1,
                src,
                link,
            ));
        }
        // Sprinkle extra disjoint prefixes so there are many atoms.
        for i in 0..32u64 {
            let src = netmodel::topology::NodeId((i % 3) as u32);
            let link = net.topology().out_links(src)[0];
            net.insert_rule(Rule::forward(
                RuleId(100 + i),
                IpPrefix::ipv4(0xC000_0000 + (i as u32) * 0x1_0000, 16),
                2,
                src,
                link,
            ));
        }
        net
    }

    #[test]
    fn parallel_loop_audit_matches_sequential() {
        for with_loop in [false, true] {
            for workers in [1, 2, 5] {
                let net = ring_net(with_loop);
                let seq = net.check_all_loops();
                let par = check_all_loops_parallel_with(&net, Parallelism::fixed(workers));
                assert_eq!(
                    seq.len(),
                    par.len(),
                    "with_loop={with_loop} workers={workers}"
                );
                if with_loop {
                    assert!(!par.is_empty());
                }
            }
        }
    }

    #[test]
    fn parallel_loop_audit_of_a_multifield_plane_matches_sequential() {
        // n0 and n1 forward everything to each other; a higher-priority
        // deny at n0 takes sources [10, 20) out. Labels are a primary-field
        // projection, so at n0 the deny owns every label bit and a label
        // walk sees no loop — while every other source rides n0 -> n1 -> n0.
        let mut topo = Topology::new();
        let n = topo.add_nodes("n", 2);
        let (l01, l10) = (topo.add_link(n[0], n[1]), topo.add_link(n[1], n[0]));
        let drop0 = topo.drop_link(n[0]);
        let config = DeltaNetConfig {
            field_width: 8,
            check_loops_per_update: false,
            ..Default::default()
        };
        let mut net = DeltaNet::new(topo, config.with_secondary(&[8]));
        let all = IpPrefix::new(0, 0, 8);
        net.insert_rule(Rule::forward(RuleId(0), all, 1, n[0], l01));
        net.insert_rule(Rule::forward(RuleId(1), all, 1, n[1], l10));
        let sources = SecondaryMatch::new(&[Interval::new(10, 20)]);
        net.insert_rule(Rule::drop(RuleId(2), all, 10, n[0], drop0).with_secondary(sources));
        // Enough atoms that two workers would each be handed a partition.
        for i in 0..200 {
            let host = IpPrefix::new(i, 8, 8);
            net.insert_rule(Rule::forward(RuleId(100 + i as u64), host, 2, n[1], l10));
        }
        assert_eq!(net.atom_count(), 201);
        let seq = net.check_all_loops();
        assert_eq!(
            seq,
            vec![InvariantViolation::ForwardingLoop {
                nodes: vec![n[0], n[1]],
                packets: vec![Interval::new(0, 256)],
            }]
        );
        for workers in [1, 2, 5] {
            let par = check_all_loops_parallel_with(&net, Parallelism::fixed(workers));
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn what_if_many_matches_single_queries() {
        let net = ring_net(false);
        let links: Vec<LinkId> = net.topology().links().iter().map(|l| l.id).collect();
        for workers in [1, 3, 16] {
            let bulk = what_if_many_with(&net, &links, false, Parallelism::fixed(workers));
            assert_eq!(bulk.len(), links.len());
            for (i, &link) in links.iter().enumerate() {
                let single = net.link_failure_impact(link, false);
                assert_eq!(
                    bulk[i], single,
                    "mismatch for {link:?} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn what_if_many_empty_input() {
        let net = ring_net(false);
        assert!(what_if_many(&net, &[], true).is_empty());
    }

    #[test]
    fn parallelism_clamps_and_parses() {
        assert_eq!(Parallelism::fixed(0).workers(), 1);
        assert_eq!(Parallelism::fixed(8).workers(), 8);
        assert_eq!(Parallelism::fixed(8).for_items(3), 3);
        assert_eq!(Parallelism::fixed(2).for_items(0), 1);
        assert!(Parallelism::auto().workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
    }

    #[test]
    fn merge_violations_groups_and_normalizes() {
        let merged = merge_violations([
            InvariantViolation::ForwardingLoop {
                nodes: vec![NodeId(0), NodeId(1)],
                packets: vec![Interval::new(0, 8)],
            },
            InvariantViolation::Blackhole {
                node: NodeId(2),
                packets: vec![Interval::new(16, 20)],
            },
            InvariantViolation::ForwardingLoop {
                nodes: vec![NodeId(0), NodeId(1)],
                packets: vec![Interval::new(8, 12)],
            },
            InvariantViolation::Blackhole {
                node: NodeId(2),
                packets: vec![Interval::new(20, 32)],
            },
        ]);
        assert_eq!(
            merged,
            vec![
                InvariantViolation::ForwardingLoop {
                    nodes: vec![NodeId(0), NodeId(1)],
                    packets: vec![Interval::new(0, 12)],
                },
                InvariantViolation::Blackhole {
                    node: NodeId(2),
                    packets: vec![Interval::new(16, 32)],
                },
            ]
        );
    }
}

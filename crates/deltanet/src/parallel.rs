//! Parallel query evaluation and the shared worker-count configuration.
//!
//! "One advantage of Delta-net is that its main loops over atoms in
//! Algorithm 1 and 2 are highly parallelizable" (§6). The *query* side —
//! what-if analysis of many links — lives here: it only reads the
//! persistent edge-labelled graph, so it partitions across threads with no
//! synchronization beyond collecting the reports and the first query's
//! build of the engine's what-if state (its loop monitor and address order,
//! each a `OnceLock`, built once however many workers ask). The *update*
//! side is parallelized by [`crate::shard::ShardedDeltaNet`], which
//! partitions the address space itself so disjoint shards apply rule
//! updates concurrently (its per-shard answers are combined by
//! [`merge_violations`]); both sides size their thread pools from the same
//! [`Parallelism`] configuration, so a run pinned to `N` workers behaves
//! identically across query and update code.
//!
//! The read-side bulk query here still uses `std::thread::scope`; shard
//! writes run on the persistent helper threads each sharded engine owns.
//! Neither uses `unsafe`, an external dependency or a global thread pool.

use crate::engine::DeltaNet;
use netmodel::checker::{InvariantViolation, WhatIfReport};
use netmodel::interval::normalize;
use netmodel::topology::LinkId;
use std::collections::BTreeMap;

/// How many worker threads the parallel entry points (bulk queries, sharded
/// batch updates) may use.
///
/// The single knob replaces the old per-call `available_parallelism`
/// heuristic, so measured runs are reproducible: construct one value —
/// [`Parallelism::auto`] (what the CLI and the daemon use) or an explicit
/// count — and pass it everywhere. The worker count is always at least 1.
///
/// It does not pick a shard count: two shards failed their measured rule
/// (ROADMAP item 2), so the CLI and the daemon run one shard whatever this
/// reports.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeltaNetConfig;
    use netmodel::interval::Interval;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::{NodeId, Topology};

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// A 4-switch ring with 10.0.0.0/8 forwarded clockwise at three
    /// switches, or at all four when `closed` (a forwarding loop), plus
    /// many disjoint /16s.
    fn ring_net(closed: bool) -> DeltaNet {
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
        for i in 0..if closed { 4 } else { 3 } {
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
        // Loop checks on the closed ring: two workers ask at once for the
        // engine's loop state, which the first of them seeds. Each report
        // equals a single query's on a copy of the engine made before, which
        // seeds its own, and its loops are what the kernel finds directly.
        let looped = ring_net(true);
        let single = looped.clone();
        let bulk = what_if_many_with(&looped, &links, true, Parallelism::fixed(2));
        for (report, &link) in bulk.iter().zip(&links) {
            assert_eq!(*report, single.link_failure_impact(link, true), "{link:?}");
            let direct = crate::loops::find_loops_for_atoms(
                looped.topology(),
                looped.labels(),
                looped.atoms(),
                looped.label(link),
            );
            assert_eq!(report.violations, direct, "{link:?}");
            assert_eq!(report.violations.len(), 1, "{link:?}");
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

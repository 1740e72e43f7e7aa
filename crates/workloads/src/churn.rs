//! Sustained insert/remove churn with flapping prefixes.
//!
//! BGP route flaps and SDN-IP reconvergence produce exactly the update
//! pattern the paper's §3.2.2 garbage-collection remark worries about: a
//! long-lived baseline data plane plus waves of short-lived rules whose
//! interval bounds die when the wave is withdrawn. Each flap cycle
//! advertises a *fresh* set of prefixes (route churn rarely re-announces
//! bit-identical more-specifics), so without compaction the engine's
//! atom-id space, owner arena, and label bitsets grow monotonically with
//! the number of cycles even though the live rule set returns to the
//! baseline after every cycle.
//!
//! The generated trace is deterministic given the seed and is what the
//! `Churn` dataset and the compaction property tests replay.

use crate::bgp::{generate_prefixes, PrefixGenConfig};
use crate::rulegen::{generate_data_plane, PriorityMode};
use crate::topologies::{ring_with_borders, GeneratedTopology};
use netmodel::rule::{Rule, RuleId};
use netmodel::trace::Trace;

/// Configuration of the flapping-prefix churn generator.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Long-lived prefixes installed once and never withdrawn (the stable
    /// data plane the memory trajectory is measured against).
    pub stable_prefixes: usize,
    /// Short-lived prefixes advertised (and fully withdrawn) per cycle.
    pub flapping_prefixes: usize,
    /// Number of advertise/withdraw cycles.
    pub cycles: usize,
    /// RNG seed (prefix populations, egress choice, priorities).
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            stable_prefixes: 200,
            flapping_prefixes: 80,
            cycles: 20,
            seed: 0xF1A9,
        }
    }
}

/// A churn trace plus the boundary the memory-trajectory measurements need.
#[derive(Clone, Debug)]
pub struct ChurnTrace {
    /// The replayable operations: stable inserts, then the flap cycles.
    pub trace: Trace,
    /// Number of leading operations that build the stable baseline; the
    /// pre-churn memory snapshot is taken after replaying exactly this many.
    pub baseline_ops: usize,
}

/// Generates the flapping churn trace over `topo`.
///
/// The stable plane is installed first (shortest-path rules, random
/// priorities). Every cycle then advertises a fresh prefix population
/// (different bounds each cycle, drawn with heavy overlap so atoms split
/// aggressively), and withdraws it again in reverse order. Rule ids are
/// globally unique across the whole trace.
pub fn flapping_churn(topo: &GeneratedTopology, config: ChurnConfig) -> ChurnTrace {
    let mut trace = Trace::new();
    let mut next_id = 0u64;
    let mut push_plane = |trace: &mut Trace, rules: &[Rule], withdraw: bool| {
        let mut ids = Vec::with_capacity(rules.len());
        for r in rules {
            let rule = Rule {
                id: RuleId(next_id),
                ..*r
            };
            next_id += 1;
            ids.push(rule.id);
            trace.push_insert(rule);
        }
        if withdraw {
            // Reverse order: freshest routes fall away first, the same
            // shape BGP convergence produces.
            for id in ids.into_iter().rev() {
                trace.push_remove(id);
            }
        }
    };

    let stable = generate_prefixes(PrefixGenConfig {
        count: config.stable_prefixes,
        overlap_percent: 35,
        seed: config.seed,
    });
    let base = generate_data_plane(topo, &stable, PriorityMode::Random, config.seed);
    push_plane(&mut trace, &base.rules, false);
    let baseline_ops = trace.len();

    for cycle in 0..config.cycles {
        let cycle_seed = config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cycle as u64 + 1));
        let flapping = generate_prefixes(PrefixGenConfig {
            count: config.flapping_prefixes,
            overlap_percent: 50,
            seed: cycle_seed,
        });
        let wave = generate_data_plane(topo, &flapping, PriorityMode::Random, cycle_seed);
        push_plane(&mut trace, &wave.rules, true);
    }

    ChurnTrace {
        trace,
        baseline_ops,
    }
}

/// The default churn topology: an 8-switch ring with one border router per
/// switch — small enough that the trace length is dominated by the flap
/// cycles, not the topology.
pub fn churn_topology() -> GeneratedTopology {
    ring_with_borders("churn", 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnConfig {
        ChurnConfig {
            stable_prefixes: 20,
            flapping_prefixes: 8,
            cycles: 3,
            seed: 7,
        }
    }

    #[test]
    fn churn_returns_to_baseline_rule_set() {
        let topo = churn_topology();
        let churn = flapping_churn(&topo, tiny());
        // Every flapped rule is withdrawn again: the final data plane is
        // exactly the stable baseline.
        let final_dp = churn.trace.final_data_plane();
        let (stable, _) = churn.trace.split_at(churn.baseline_ops);
        assert_eq!(final_dp.len(), stable.len());
        assert!(stable.ops().iter().all(|op| op.is_insert()));
        assert!(churn.trace.remove_count() > 0);
    }

    #[test]
    fn cycles_use_fresh_rule_ids_and_prefix_bounds() {
        let topo = churn_topology();
        let churn = flapping_churn(&topo, tiny());
        let mut seen = std::collections::HashSet::new();
        let mut intervals = std::collections::HashSet::new();
        for op in churn.trace.ops() {
            if let netmodel::trace::Op::Insert(r) = op {
                assert!(seen.insert(r.id), "rule id {:?} reused", r.id);
                intervals.insert(r.interval());
            }
        }
        // Fresh populations per cycle: far more distinct intervals than one
        // cycle alone contributes.
        assert!(intervals.len() > tiny().stable_prefixes + tiny().flapping_prefixes);
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = churn_topology();
        let a = flapping_churn(&topo, tiny());
        let b = flapping_churn(&topo, tiny());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.baseline_ops, b.baseline_ops);
    }
}

//! The eight evaluation datasets of Table 2, at configurable scale.
//!
//! The paper's datasets hold up to 250 million operations and were run on a
//! 94 GB machine; a laptop-scale reproduction needs the same *structure*
//! (topology class, prefix overlap, insert-then-remove or SDN-IP churn) at a
//! smaller magnitude. [`ScaleProfile`] controls the magnitude; the dataset
//! identifiers and the construction recipes follow §4.2 exactly:
//!
//! * `Berkeley`, `INET`, `RF 1755/3257/6461` — synthetic datasets: prefixes
//!   from a Route-Views-like population, shortest-path rules, random
//!   priorities, inserted then removed in random order.
//! * `Airtel 1 / Airtel 2` — SDN-IP churn from single / paired link
//!   failures with recovery.
//! * `4Switch` — repeated SDN-IP advertisement rounds on a 4-switch ring,
//!   insertions only.

use crate::bgp::{generate_prefixes, PrefixGenConfig};
use crate::rulegen::{generate_rules, PriorityMode, RuleGenConfig};
use crate::sdnip::{airtel_pair_failures, airtel_single_failures, four_switch_rounds, SdnIpConfig};
use crate::topologies::{
    airtel_default, berkeley, four_switch_with_borders, inet, rocketfuel_1755, rocketfuel_3257,
    rocketfuel_6461, GeneratedTopology,
};
use netmodel::trace::Trace;
use serde::{Deserialize, Serialize};

/// Identifiers of the eight datasets of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetId {
    /// UC Berkeley campus class.
    Berkeley,
    /// The INET wide-area backbone (Rocketfuel AS 1239 class).
    Inet,
    /// Rocketfuel AS 1755 class.
    Rf1755,
    /// Rocketfuel AS 3257 class.
    Rf3257,
    /// Rocketfuel AS 6461 class.
    Rf6461,
    /// SDN-IP on the Airtel WAN, single link failures.
    Airtel1,
    /// SDN-IP on the Airtel WAN, 2-pair link failures.
    Airtel2,
    /// SDN-IP rounds on a 4-switch ring, insertions only.
    FourSwitch,
    /// Flapping-prefix churn on a ring backbone (not part of Table 2; the
    /// rule-removal-heavy workload behind the atom-compaction evaluation).
    Churn,
}

impl DatasetId {
    /// The eight Table 2 datasets ([`DatasetId::Churn`] is deliberately not
    /// listed: the paper's tables stay at eight rows, and the churn workload
    /// is reported separately by the compaction experiment).
    pub const ALL: [DatasetId; 8] = [
        DatasetId::Berkeley,
        DatasetId::Inet,
        DatasetId::Rf1755,
        DatasetId::Rf3257,
        DatasetId::Rf6461,
        DatasetId::Airtel1,
        DatasetId::Airtel2,
        DatasetId::FourSwitch,
    ];

    /// The display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Berkeley => "Berkeley",
            DatasetId::Inet => "INET",
            DatasetId::Rf1755 => "RF 1755",
            DatasetId::Rf3257 => "RF 3257",
            DatasetId::Rf6461 => "RF 6461",
            DatasetId::Airtel1 => "Airtel 1",
            DatasetId::Airtel2 => "Airtel 2",
            DatasetId::FourSwitch => "4Switch",
            DatasetId::Churn => "Churn",
        }
    }
}

/// How large to make each dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleProfile {
    /// A few thousand operations per dataset — for unit/integration tests.
    Tiny,
    /// Tens of thousands of operations.
    Small,
    /// Low hundreds of thousands of operations — for longer runs.
    Medium,
}

impl ScaleProfile {
    /// Number of prefixes to use for a synthetic (shortest-path) dataset,
    /// given the topology's node count. Chosen so the operation count lands
    /// in the profile's target band.
    fn synthetic_prefix_count(self, nodes: usize) -> usize {
        let target_rules = match self {
            ScaleProfile::Tiny => 2_000,
            ScaleProfile::Small => 40_000,
            ScaleProfile::Medium => 150_000,
        };
        (target_rules / nodes.max(1)).max(10)
    }

    /// Prefixes each border router advertises in the Airtel datasets.
    fn airtel_prefixes_per_router(self) -> usize {
        match self {
            ScaleProfile::Tiny => 10,
            ScaleProfile::Small => 100, // the paper's value
            ScaleProfile::Medium => 100,
        }
    }

    /// Cap on injected single-link failures (Airtel 1).
    fn airtel_failure_cap(self) -> Option<usize> {
        match self {
            ScaleProfile::Tiny => Some(4),
            ScaleProfile::Small => None,
            ScaleProfile::Medium => None,
        }
    }

    /// Cap on injected 2-pair failures (Airtel 2).
    fn airtel_pair_cap(self) -> Option<usize> {
        match self {
            ScaleProfile::Tiny => Some(6),
            ScaleProfile::Small => Some(60),
            ScaleProfile::Medium => Some(300),
        }
    }

    /// `(prefixes per router, rounds)` for the 4Switch dataset.
    fn four_switch_params(self) -> (usize, usize) {
        match self {
            ScaleProfile::Tiny => (50, 2),
            ScaleProfile::Small => (1_000, 4),
            ScaleProfile::Medium => (2_500, 14),
        }
    }

    /// Parameters of the flapping-prefix churn workload.
    fn churn_config(self) -> crate::churn::ChurnConfig {
        let (stable_prefixes, flapping_prefixes, cycles) = match self {
            ScaleProfile::Tiny => (40, 15, 8),
            ScaleProfile::Small => (200, 80, 20),
            ScaleProfile::Medium => (400, 150, 50),
        };
        crate::churn::ChurnConfig {
            stable_prefixes,
            flapping_prefixes,
            cycles,
            seed: 0xF1A9,
        }
    }
}

/// A fully built dataset: topology plus replayable trace.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which dataset this is.
    pub id: DatasetId,
    /// The topology the trace refers to.
    pub topology: GeneratedTopology,
    /// The replayable operation trace.
    pub trace: Trace,
}

impl Dataset {
    /// Dataset statistics in the shape of Table 2's columns.
    pub fn table2_row(&self) -> Table2Row {
        Table2Row {
            name: self.id.name().to_string(),
            nodes: self.topology.node_count(),
            links: self.topology.link_count(),
            operations: self.trace.len(),
            peak_rules: self.trace.peak_rule_count(),
        }
    }
}

/// One row of Table 2 (plus the peak rule count, useful for sanity checks).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Dataset name.
    pub name: String,
    /// Number of nodes in the edge-labelled graph.
    pub nodes: usize,
    /// Maximum number of links.
    pub links: usize,
    /// Total number of operations in the trace.
    pub operations: usize,
    /// Maximum number of simultaneously installed rules.
    pub peak_rules: usize,
}

/// Builds a synthetic shortest-path dataset (Berkeley / INET / RF *).
fn synthetic(id: DatasetId, topo: GeneratedTopology, scale: ScaleProfile, seed: u64) -> Dataset {
    let prefix_count = scale.synthetic_prefix_count(topo.node_count());
    let prefixes = generate_prefixes(PrefixGenConfig {
        count: prefix_count,
        overlap_percent: 35,
        seed,
    });
    let rules = generate_rules(
        &topo,
        &prefixes,
        RuleGenConfig {
            priority_mode: PriorityMode::Random,
            seed,
            append_removals: true,
        },
    );
    Dataset {
        id,
        topology: topo,
        trace: rules.trace,
    }
}

/// Builds one dataset at the given scale.
pub fn build(id: DatasetId, scale: ScaleProfile) -> Dataset {
    match id {
        DatasetId::Berkeley => synthetic(id, berkeley(), scale, 0xB),
        DatasetId::Inet => synthetic(id, inet(), scale, 0x1239),
        DatasetId::Rf1755 => synthetic(id, rocketfuel_1755(), scale, 0x1755),
        DatasetId::Rf3257 => synthetic(id, rocketfuel_3257(), scale, 0x3257),
        DatasetId::Rf6461 => synthetic(id, rocketfuel_6461(), scale, 0x6461),
        DatasetId::Airtel1 => {
            let (topology, trace) = airtel_single_failures(
                airtel_default(),
                SdnIpConfig {
                    prefixes_per_router: scale.airtel_prefixes_per_router(),
                    seed: 0xA1,
                },
                scale.airtel_failure_cap(),
            );
            Dataset {
                id,
                topology,
                trace,
            }
        }
        DatasetId::Airtel2 => {
            let (topology, trace) = airtel_pair_failures(
                airtel_default(),
                SdnIpConfig {
                    prefixes_per_router: scale.airtel_prefixes_per_router(),
                    seed: 0xA2,
                },
                scale.airtel_pair_cap(),
            );
            Dataset {
                id,
                topology,
                trace,
            }
        }
        DatasetId::FourSwitch => {
            let (prefixes_per_router, rounds) = scale.four_switch_params();
            let (topology, trace) = four_switch_rounds(
                four_switch_with_borders(),
                prefixes_per_router,
                rounds,
                0x45,
            );
            Dataset {
                id,
                topology,
                trace,
            }
        }
        DatasetId::Churn => {
            let topology = crate::churn::churn_topology();
            let churn = crate::churn::flapping_churn(&topology, scale.churn_config());
            Dataset {
                id,
                topology,
                trace: churn.trace,
            }
        }
    }
}

/// Builds every dataset at the given scale, in Table 2 order.
pub fn build_all(scale: ScaleProfile) -> Vec<Dataset> {
    DatasetId::ALL.iter().map(|&id| build(id, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_datasets_have_expected_structure() {
        for id in [
            DatasetId::Berkeley,
            DatasetId::Airtel1,
            DatasetId::FourSwitch,
        ] {
            let ds = build(id, ScaleProfile::Tiny);
            assert!(ds.trace.len() > 100, "{id:?} too small: {}", ds.trace.len());
            assert!(ds.trace.len() < 60_000, "{id:?} too large for tiny scale");
            let row = ds.table2_row();
            assert_eq!(row.operations, ds.trace.len());
            assert!(row.nodes > 0 && row.links > 0);
        }
    }

    #[test]
    fn synthetic_traces_insert_then_remove_everything() {
        let ds = build(DatasetId::Berkeley, ScaleProfile::Tiny);
        assert_eq!(ds.trace.insert_count(), ds.trace.remove_count());
        assert!(ds.trace.final_data_plane().is_empty());
    }

    #[test]
    fn four_switch_is_insert_only() {
        let ds = build(DatasetId::FourSwitch, ScaleProfile::Tiny);
        assert_eq!(ds.trace.remove_count(), 0);
    }

    #[test]
    fn airtel_traces_contain_failure_churn() {
        let ds = build(DatasetId::Airtel1, ScaleProfile::Tiny);
        assert!(ds.trace.remove_count() > 0);
        let ds2 = build(DatasetId::Airtel2, ScaleProfile::Tiny);
        assert!(ds2.trace.remove_count() > 0);
    }

    #[test]
    fn churn_dataset_flaps_and_returns_to_baseline() {
        let ds = build(DatasetId::Churn, ScaleProfile::Tiny);
        assert!(ds.trace.remove_count() > 0);
        assert_eq!(
            ds.trace.insert_count() - ds.trace.remove_count(),
            ds.trace.final_data_plane().len()
        );
        // Not part of Table 2.
        assert!(!DatasetId::ALL.contains(&DatasetId::Churn));
        assert_eq!(DatasetId::Churn.name(), "Churn");
    }

    #[test]
    fn dataset_names_match_table2() {
        let names: Vec<&str> = DatasetId::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "Berkeley", "INET", "RF 1755", "RF 3257", "RF 6461", "Airtel 1", "Airtel 2",
                "4Switch"
            ]
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build(DatasetId::FourSwitch, ScaleProfile::Tiny);
        let b = build(DatasetId::FourSwitch, ScaleProfile::Tiny);
        assert_eq!(a.trace, b.trace);
    }
}

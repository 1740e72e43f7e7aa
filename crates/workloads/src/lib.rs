//! # workloads — dataset and workload generation for the Delta-net evaluation
//!
//! The paper's evaluation (§4.2) uses eight datasets derived from real
//! topologies, real BGP dumps, and a live ONOS/SDN-IP deployment. None of
//! those artefacts are redistributable, so this crate generates synthetic
//! equivalents with the same structure (see the module docs below for the substitution
//! rationale):
//!
//! * [`topologies`] — campus / ISP-backbone / WAN / ring topology generators
//!   at the node and link scale of Table 2.
//! * [`bgp`] — Route-Views-style prefix populations with realistic length
//!   distribution and overlap.
//! * [`rulegen`] — shortest-path forwarding-rule generation with random or
//!   longest-prefix priorities, plus insert-then-remove trace construction.
//! * [`sdnip`] — an SDN-IP/ONOS controller simulator producing rule churn
//!   for link failures and recoveries.
//! * [`churn`] — sustained flapping-prefix insert/remove churn, the
//!   workload behind the atom-compaction evaluation.
//! * [`datasets`] — the eight named datasets of Table 2 at configurable
//!   scale ([`datasets::ScaleProfile`]).
//!
//! Everything is deterministic given the built-in seeds, so every table and
//! figure `deltanet paper` prints is reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod churn;
pub mod datasets;
pub mod rulegen;
pub mod sdnip;
pub mod topologies;

pub use churn::{ChurnConfig, ChurnTrace};
pub use datasets::{build, build_all, Dataset, DatasetId, ScaleProfile, Table2Row};
pub use rulegen::{generate_multifield_rules, MultiFieldConfig, MultiFieldRules};
pub use topologies::GeneratedTopology;

//! # delta-net — umbrella crate
//!
//! A full Rust reproduction of *Delta-net: Real-time Network Verification
//! Using Atoms* (Horn, Kheradmand, Prasad — NSDI 2017). This crate simply
//! re-exports the workspace members so that examples, integration tests, and
//! downstream users can depend on a single crate:
//!
//! * [`deltanet`] — the Delta-net engine (atoms, edge labels, Algorithms
//!   1–3, what-if, live violation monitoring).
//! * [`veriflow_ri`] — the Veriflow-RI baseline checker.
//! * [`netmodel`] — prefixes, intervals, topologies, rules, traces, and the
//!   shared [`netmodel::Checker`] trait.
//! * [`workloads`] — topology/BGP/SDN-IP workload generators and the eight
//!   evaluation datasets.
//!
//! Naming: the *umbrella* package is `delta-net`, imported as `delta_net`;
//! the *engine* crate is `deltanet`. Because the umbrella depends on and
//! re-exports the engine, `use delta_net::prelude::*;` and `use
//! deltanet::…;` resolve side by side, which is how the integration tests
//! and examples are written.
//!
//! See `README.md` for the workspace tour, build/test instructions, and the
//! paper's algorithm ↔ module mapping (documented in detail in
//! [`deltanet`]'s crate docs).

#![forbid(unsafe_code)]

pub use deltanet;
pub use netmodel;
pub use veriflow_ri;
pub use workloads;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use deltanet::{
        AtomId, AtomMap, AtomSet, DeltaNet, DeltaNetConfig, MonitorTransitions, Parallelism,
        ReachabilityMatrix, ShardedDeltaNet, ViolationKey, ViolationMonitor,
    };
    pub use netmodel::checker::{Checker, InvariantViolation, UpdateReport, WhatIfReport};
    pub use netmodel::fib::NetworkFib;
    pub use netmodel::header::{HeaderSpace, SecondaryMatch};
    pub use netmodel::interval::Interval;
    pub use netmodel::ip::IpPrefix;
    pub use netmodel::packet::Packet;
    pub use netmodel::rule::{Action, Priority, Rule, RuleId};
    pub use netmodel::topology::{LinkId, NodeId, Topology};
    pub use netmodel::trace::{Op, Trace};
    pub use veriflow_ri::{scan_multifield, VeriflowConfig, VeriflowRi};
    pub use workloads::{build, build_all, Dataset, DatasetId, ScaleProfile};
}

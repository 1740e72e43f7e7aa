//! # netmodel — the network substrate underneath Delta-net
//!
//! This crate contains everything the Delta-net paper (NSDI 2017) *assumes*
//! rather than *contributes*: IP prefixes and their interval representation,
//! the network topology and its links, forwarding rules with priorities,
//! per-switch forwarding tables, replayable operation traces, and the
//! [`Checker`] trait that both the Delta-net engine and the Veriflow-RI
//! baseline implement so that they can be compared head-to-head.
//!
//! The types here are deliberately small, `Copy` where possible, and free of
//! interior mutability: the verification engines built on top are the hot
//! path and they own all mutable state themselves.
//!
//! ## Layout
//!
//! * [`interval`] — half-closed intervals `[lo : hi)` over the packet-header
//!   field space (the paper's §3.1 representation of IP prefixes).
//! * [`ip`] — IPv4 (and width-generic) CIDR prefixes and conversion to
//!   intervals.
//! * [`packet`] — a minimal packet-header model used by the simulation-level
//!   sanity checks (a packet is matched by the highest-priority rule whose
//!   interval contains its destination address).
//! * [`topology`] — nodes, directed links, and graph utilities (shortest
//!   paths) used both by the engines and by the workload generators.
//! * [`rule`] — forwarding rules: match interval, priority, action, link.
//! * [`fib`] — a reference forwarding-table implementation with
//!   longest-prefix/highest-priority matching. This is the "ground truth"
//!   oracle the property tests compare the engines against.
//! * [`trace`] — the replayable text format for operation traces
//!   (one insert/remove per line), mirroring how the paper's datasets are
//!   organized (§4.2).
//! * [`checker`] — the [`Checker`] trait, update reports, and invariant
//!   violation types shared by all engines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod fib;
pub mod header;
pub mod interval;
pub mod ip;
pub mod packet;
pub mod rule;
pub mod topology;
pub mod trace;

pub use checker::{Checker, InvariantViolation, UpdateReport, WhatIfReport};
pub use fib::ForwardingTable;
pub use header::{HeaderSpace, SecondaryMatch, MAX_SECONDARY_FIELDS};
pub use interval::Interval;
pub use ip::{IpPrefix, PrefixParseError};
pub use packet::Packet;
pub use rule::{Action, Priority, Rule, RuleId};
pub use topology::{LinkId, NodeId, Topology};
pub use trace::{Op, Trace};

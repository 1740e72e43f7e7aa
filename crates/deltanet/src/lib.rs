//! # deltanet — real-time network verification using atoms
//!
//! A from-scratch Rust implementation of **Delta-net** (Horn, Kheradmand,
//! Prasad — NSDI 2017): a real-time data-plane checker that incrementally
//! maintains a single edge-labelled graph representing the flows of *all*
//! packets in the entire network, instead of recomputing per-equivalence-
//! class forwarding graphs on every rule update.
//!
//! The building blocks follow the paper closely:
//!
//! * [`atoms`] — the ordered bound map `M` and atom splitting (§3.1), and
//!   [`atoms::BoundRefs`], the §3.2.2 garbage-collection books kept beside
//!   every `M` — the primary field's and each secondary field's alike.
//! * [`atomset`] — dynamic bitsets of atoms, used for edge labels (§4.1).
//! * [`owner`] — per-atom, per-switch priority-ordered rule stores (§3.2),
//!   flattened into an arena of inline sorted small-vecs for the update hot
//!   path (the paper's BSTs survive as the `BTreeMap` model in `testutil`
//!   the arena is differentially tested against).
//! * [`labels`] — the edge labels of the network-wide graph (§3.2).
//! * [`engine`] — Algorithms 1 and 2 and the [`DeltaNet`] checker.
//! * [`delta_graph`] — per-update delta-graphs (§3.3).
//! * [`loops`] — forwarding-loop detection on the edge-labelled graph.
//! * [`blackholes`] — blackhole detection (traffic arriving at a switch that
//!   has no rule for it).
//! * [`monitor`] — [`ViolationMonitor`]: loops and blackholes maintained as
//!   live state, repaired incrementally from every update's delta-graph.
//! * [`multifield`] — the one component a multi-field engine holds beyond
//!   the single-field state (secondary lattices, their books, the
//!   cross-field loop/blackhole walk kernel), for header spaces declaring
//!   secondary fields next to the primary one (`[dst, src]`-style
//!   matching; [`DeltaNetConfig::with_secondary`]).
//! * [`fault`] — the [`StorageBackend`] abstraction all persistence I/O
//!   goes through: [`FsBackend`] for real files, [`FaultyBackend`] for
//!   deterministic crash / short-write / fsync-failure injection.
//! * [`persist`] — crash-consistent snapshot + delta-log persistence:
//!   checksummed snapshots of the rule set, written atomically and
//!   restored — by applying the rules through the engine's validated write
//!   path — to a [`PersistNet`] (an enum over the two engines, not a third one: only
//!   [`DeltaNet`] and [`ShardedDeltaNet`] implement `Checker`, reached
//!   through [`PersistNet::checker`]), and a [`Journal`] mounted beside an
//!   engine (not wrapped around it) — the one way durability is mounted: a
//!   per-record-framed append-only update log at a configurable
//!   [`Durability`], optionally rotating and auto-snapshotting into a
//!   checkpoint directory for bounded-time recovery. One segment-replay
//!   kernel serves crash recovery ([`persist::recover`] /
//!   [`persist::recover_dir`] = nearest snapshot + log tail, with torn-tail
//!   repair under [`RecoveryPolicy::RepairTail`]) and time-travel queries
//!   ([`persist::violations_at`] / [`persist::violations_at_dir`]); it
//!   replays the log in windows through the engine's `apply_window`.
//! * [`session`] — [`Session`]: the one windowed apply loop (engine +
//!   [`Journal`] + transition baseline) behind the daemon, `deltanet
//!   replay` and the benchmark's [`LoggedNet`] alias.
//! * [`shard`] — [`ShardedDeltaNet`]: the engine partitioned across the
//!   address space so rule updates on disjoint ranges apply concurrently
//!   (§6: the main loops over atoms are highly parallelizable), sized by
//!   its [`Parallelism`] worker count; one op is a one-op window through
//!   its one validate → route → merge path.
//! * [`reachability`] — Algorithm 3: which packets can reach B from A. The
//!   §3.3 flow API, the atoms on one link, is [`DeltaNet::label`]; what-if
//!   (§4.3.2) is [`DeltaNet::link_failure_impact`].
//!
//! `Checker` has two write methods: `try_apply` for one op and
//! `apply_window` for a window, whose applied-prefix contract is stated
//! once, on the trait. [`DeltaNet`] keeps its inherent Algorithm 1/2
//! methods (`insert_rule`, `remove_rule` and their `try_` forms).
//!
//! ## Quick start
//!
//! ```
//! use deltanet::DeltaNet;
//! use netmodel::topology::Topology;
//! use netmodel::rule::{Rule, RuleId};
//!
//! // A two-switch network with one link.
//! let mut topo = Topology::new();
//! let s1 = topo.add_node("s1");
//! let s2 = topo.add_node("s2");
//! let link = topo.add_link(s1, s2);
//!
//! let mut net = DeltaNet::with_topology(topo);
//! let report = net.insert_rule(Rule::forward(
//!     RuleId(0),
//!     "10.0.0.0/8".parse().unwrap(),
//!     100,
//!     s1,
//!     link,
//! ));
//! assert!(report.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atoms;
pub mod atomset;
pub mod blackholes;
pub mod delta_graph;
pub mod engine;
pub mod fault;
pub mod labels;
pub mod loops;
pub mod monitor;
pub mod multifield;
pub mod owner;
pub mod persist;
pub mod reachability;
pub mod session;
pub mod shard;

pub use atoms::{AtomId, AtomMap, DeltaPair};
pub use atomset::AtomSet;
pub use delta_graph::DeltaGraph;
pub use engine::{CompactReport, DeltaNet, DeltaNetConfig};
pub use fault::{FaultPlan, FaultyBackend, FsBackend, StorageBackend};
pub use labels::Labels;
pub use monitor::{MonitorTransitions, ViolationKey, ViolationMonitor};
pub use persist::{
    CheckpointConfig, DeltaLog, Durability, Journal, PersistError, PersistNet, RecoveryPolicy,
    RecoveryReport, Snapshot,
};
pub use reachability::ReachabilityMatrix;
pub use session::{LoggedNet, Session};
pub use shard::{Parallelism, ShardedDeltaNet};

// A `DeltaNet` can be shared between threads (`Sync`): its queries take
// `&self`, and the what-if query's lazily built state (its loop monitor and
// address order) sits in `OnceLock`s, so concurrent first queries build it
// once and never write it after that
// (`engine::tests::what_if_memo_from_two_threads_matches_sequential_queries`).
// A `ShardedDeltaNet` moves between threads but is not shared: its observer
// callback and its workers' reply queues are not `Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    const fn send<T: Send>() {}
    send_sync::<DeltaNet>();
    send::<ShardedDeltaNet>();
};

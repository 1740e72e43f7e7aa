//! Sharding the Delta-net engine across the address space.
//!
//! §6 of the paper observes that "its main loops over atoms in Algorithm 1
//! and 2 are highly parallelizable". Atoms are disjoint half-closed
//! intervals, so the cleanest realization is to partition the address space
//! itself: [`ShardedDeltaNet`] splits `[0 : 2^w)` into `N` fixed contiguous
//! ranges, each backed by an independent clipped [`DeltaNet`]
//! ([`DeltaNet::clipped`]). A rule whose interval crosses shard boundaries
//! is split at those boundaries and routed to every shard it touches; the
//! per-shard [`UpdateReport`]s and delta-graphs merge back into one report,
//! so callers — the [`Checker`] harness, the replay CLI, the benchmark —
//! cannot tell the difference.
//!
//! Because shards share no mutable state (disjoint atoms, owners, and label
//! bits), a *batch* of updates groups by shard and the groups apply
//! concurrently — the same scale-by-replicating-the-core-logic move network
//! functions use to scale across cores. The engine spawns its helper
//! threads once, on the first window with two busy shard groups; each
//! window moves shard chunks to them and back through one-slot queues, a
//! hand-off, not a thread spawn.
//!
//! There is one write path: the engine's [`Checker::apply_window`]
//! validates, routes, applies, merges and notifies the observer, and one
//! operation ([`Checker::try_apply`]) is a one-op window.
//!
//! ## Semantics at shard boundaries
//!
//! Each interior boundary permanently splits the address space, so an atom
//! that would straddle a boundary in a single engine exists as one atom per
//! touched shard here. Every *observable* quantity is unaffected — labels
//! as normalized intervals, what-if packets, loop and blackhole verdicts are
//! identical to the single-engine answers — but raw class counts
//! ([`ShardedDeltaNet::class_count`]) can exceed the single engine's by at
//! most `N - 1`, and `affected_classes` of a boundary-straddling update
//! counts its split atoms per shard. The differential suite in the root
//! crate's `tests/sharded_differential.rs` pins both the observable
//! equality and the exact boundary accounting.

use crate::engine::{CompactReport, DeltaNet, DeltaNetConfig};
use crate::monitor::{MonitorTransitions, TransitionTracker};
use crate::parallel::{merge_violations, Parallelism};
use netmodel::checker::{
    Checker, InvariantViolation, ReplayError, UpdateError, UpdateReport, WhatIfReport,
};
use netmodel::interval::{normalize, Bound, Interval};
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::Op;
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

/// The Delta-net engine sharded across the address space: `N` clipped
/// engines over fixed contiguous ranges of `[0 : 2^w)`, behind the same
/// update/query surface as a single [`DeltaNet`].
///
/// # Examples
///
/// ```
/// use deltanet::{DeltaNetConfig, ShardedDeltaNet};
/// use netmodel::checker::Checker;
/// use netmodel::rule::{Rule, RuleId};
/// use netmodel::topology::Topology;
/// use netmodel::trace::Op;
///
/// let mut topo = Topology::new();
/// let s1 = topo.add_node("s1");
/// let s2 = topo.add_node("s2");
/// let link = topo.add_link(s1, s2);
/// let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 4);
///
/// // 10.0.0.0/8 lies inside one quarter of the IPv4 space: one shard.
/// let narrow = Rule::forward(RuleId(0), "10.0.0.0/8".parse().unwrap(), 10, s1, link);
/// // 0.0.0.0/0 covers the whole space: split across all four shards.
/// let wide = Rule::forward(RuleId(1), "0.0.0.0/0".parse().unwrap(), 1, s1, link);
/// let (reports, failure) = net.apply_window(&[Op::Insert(narrow), Op::Insert(wide)]);
/// assert_eq!(failure, None);
/// assert!(reports.iter().all(|r| r.violations.is_empty()));
/// assert_eq!(net.rule_count(), 2);
/// assert!(net.class_count() >= 4);
/// ```
pub struct ShardedDeltaNet {
    topology: Topology,
    /// Shard range boundaries: `boundaries[i] .. boundaries[i + 1]` is the
    /// range of shard `i`; strictly increasing, first `0`, last `2^w`.
    boundaries: Vec<Bound>,
    shards: Vec<DeltaNet>,
    /// The global rule registry: duplicate detection and removal routing
    /// need the full (unclipped) intervals of every installed rule.
    rules: HashMap<RuleId, Rule>,
    parallelism: Parallelism,
    /// The monitor-event observer, if one is attached (see
    /// [`ShardedDeltaNet::set_monitor_observer`]): the merged-key tracker
    /// plus the callback it drives. Runtime wiring, not engine state — it
    /// does not survive [`Clone`] or persistence.
    observer: Option<MonitorObserver>,
    /// The helper threads of [`Checker::apply_window`], spawned on
    /// the first window that needs them. Runtime wiring like `observer`:
    /// not cloned, not persisted, dropped by `set_parallelism`.
    pool: Option<ShardWorkers>,
}

/// The push-side monitor seam: a [`TransitionTracker`] over the merged
/// shard keys plus the registered callback.
struct MonitorObserver {
    tracker: TransitionTracker,
    callback: Box<dyn FnMut(&MonitorTransitions) + Send>,
}

/// A chunk of shards on its way to a helper — the engines, moved by value,
/// and their routed groups.
type Job = (Vec<DeltaNet>, Vec<Vec<(usize, Op)>>);
/// The chunk's engines on their way back, with its reports in shard order
/// or the payload of the panic that stopped it.
type Reply = (Vec<DeltaNet>, thread::Result<Vec<(usize, UpdateReport)>>);

/// Persistent helper threads: helper `i` applies chunk `i + 1` of a window
/// (the caller applies chunk 0), fed through a one-slot job queue and
/// answering on a one-slot reply queue. Dropping the pool closes the queues
/// and joins the threads.
struct ShardWorkers {
    queues: Vec<(SyncSender<Job>, Receiver<Reply>)>,
    threads: Vec<JoinHandle<()>>,
}

impl ShardWorkers {
    fn spawn(helpers: usize) -> Self {
        let mut pool = ShardWorkers {
            queues: Vec::with_capacity(helpers),
            threads: Vec::with_capacity(helpers),
        };
        for i in 1..=helpers {
            let (jobs, inbox) = sync_channel::<Job>(1);
            let (outbox, replies) = sync_channel::<Reply>(1);
            let handle = thread::Builder::new()
                .name(format!("deltanet-shard-{i}"))
                .spawn(move || {
                    for (mut shards, groups) in inbox {
                        // Caught so the shards always travel back: the
                        // caller re-raises the panic once the engine is whole.
                        let reports =
                            catch_unwind(AssertUnwindSafe(|| apply_chunk(&mut shards, &groups)));
                        if outbox.send((shards, reports)).is_err() {
                            break;
                        }
                    }
                })
                .expect("the OS refused to spawn a shard worker");
            pool.queues.push((jobs, replies));
            pool.threads.push(handle);
        }
        pool
    }
}

impl Drop for ShardWorkers {
    fn drop(&mut self) {
        self.queues.clear();
        for handle in self.threads.drain(..) {
            // A helper catches every chunk's panic, so its loop cannot fail.
            let _ = handle.join();
        }
    }
}

impl Clone for ShardedDeltaNet {
    /// Clones the engine state. An attached monitor observer and the
    /// helper threads are runtime wiring and are *not* cloned — the copy
    /// starts with neither, like a snapshot-restored engine.
    fn clone(&self) -> Self {
        ShardedDeltaNet {
            topology: self.topology.clone(),
            boundaries: self.boundaries.clone(),
            shards: self.shards.clone(),
            rules: self.rules.clone(),
            parallelism: self.parallelism,
            observer: None,
            pool: None,
        }
    }
}

impl std::fmt::Debug for ShardedDeltaNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDeltaNet")
            .field("topology", &self.topology)
            .field("boundaries", &self.boundaries)
            .field("shards", &self.shards)
            .field("rules", &self.rules)
            .field("parallelism", &self.parallelism)
            .field("observer", &self.observer.is_some())
            .field("pool", &self.pool.is_some())
            .finish()
    }
}

impl ShardedDeltaNet {
    /// Creates a sharded checker with `shards` equal contiguous address
    /// ranges and the worker count from [`Parallelism::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the number of addresses in the
    /// configured field space.
    pub fn new(topology: Topology, config: DeltaNetConfig, shards: usize) -> Self {
        Self::with_parallelism(topology, config, shards, Parallelism::auto())
    }

    /// [`ShardedDeltaNet::new`] with an explicit worker-count configuration
    /// for [`Checker::apply_window`].
    pub fn with_parallelism(
        topology: Topology,
        config: DeltaNetConfig,
        shards: usize,
        parallelism: Parallelism,
    ) -> Self {
        let max: Bound = 1u128 << config.field_width;
        assert!(shards >= 1, "at least one shard is required");
        assert!(
            (shards as u128) <= max,
            "cannot split {max} addresses into {shards} shards"
        );
        // floor(max * i / shards) without overflowing u128.
        let q = max / shards as u128;
        let r = max % shards as u128;
        let boundaries: Vec<Bound> = (0..=shards as u128)
            .map(|i| q * i + (r * i) / shards as u128)
            .collect();
        let shards = boundaries
            .windows(2)
            .map(|w| DeltaNet::clipped(topology.clone(), config, Interval::new(w[0], w[1])))
            .collect();
        ShardedDeltaNet {
            topology,
            boundaries,
            shards,
            rules: HashMap::new(),
            parallelism,
            observer: None,
            pool: None,
        }
    }

    /// Rebuilds a sharded engine from snapshot parts: the boundary table,
    /// the already-restored shard engines (in address order, each clipped to
    /// its boundary range) and the shared rule registry. The worker count is
    /// [`Parallelism::auto`] — it is runtime configuration, not state (an
    /// owner with its own setting applies it with
    /// [`ShardedDeltaNet::set_parallelism`]).
    pub(crate) fn from_restored(
        topology: Topology,
        boundaries: Vec<Bound>,
        shards: Vec<DeltaNet>,
        rules: HashMap<RuleId, Rule>,
    ) -> Self {
        debug_assert_eq!(boundaries.len(), shards.len() + 1);
        ShardedDeltaNet {
            topology,
            boundaries,
            shards,
            rules,
            parallelism: Parallelism::auto(),
            observer: None,
            pool: None,
        }
    }

    /// Attaches a violation monitor to every shard, each seeded from its
    /// own data plane with one full scan (see [`DeltaNet::enable_monitor`]);
    /// every later update maintains them incrementally. In multi-field mode
    /// each shard repairs only the `(primary atom, secondary class)` slices
    /// an update touched — an update routed to one shard never rescans the
    /// others, and this holds through [`Checker::apply_window`]'s
    /// concurrent per-shard groups, aggregation windows, and
    /// [`ShardedDeltaNet::compact`].
    pub fn enable_monitor(&mut self) {
        for shard in &mut self.shards {
            shard.enable_monitor();
        }
    }

    /// Registers a monitor-event observer: after every window — one
    /// [`Checker::apply_window`] or a one-op [`Checker::try_apply`],
    /// including the applied prefix of a window that fails mid-batch — the
    /// callback receives the
    /// [`MonitorTransitions`] diff of the merged violation identities, the
    /// push-side equivalent of polling [`ShardedDeltaNet::monitor_keys`].
    /// The callback only fires when at least one identity changed; it runs
    /// on the thread applying the update, after all shard groups have
    /// joined, so it must be cheap and must never block on the consumers it
    /// feeds (hand off to a queue instead).
    ///
    /// The tracker baseline is the *current* violation set, so attaching to
    /// a dirty engine does not replay the existing violations as `appeared`
    /// events. At most one observer is attached; a second call replaces the
    /// first. Returns `false` (and registers nothing) when monitoring is off
    /// (see [`ShardedDeltaNet::enable_monitor`]).
    ///
    /// The daemon and the CLI read [`crate::Session::transitions`] instead;
    /// this seam is kept for the benchmark and as `service_differential.rs`'s
    /// independent oracle.
    pub fn set_monitor_observer(
        &mut self,
        callback: impl FnMut(&MonitorTransitions) + Send + 'static,
    ) -> bool {
        let Some(keys) = self.monitor_keys() else {
            return false;
        };
        self.observer = Some(MonitorObserver {
            tracker: TransitionTracker::starting_from(keys),
            callback: Box::new(callback),
        });
        true
    }

    /// Diffs the merged violation identities against the observer's last
    /// observation and fires the callback when anything changed. Called at
    /// the end of every window (including the applied prefix of a failed
    /// one); a no-op without an observer or with monitoring off.
    fn notify_observer(&mut self) {
        if self.observer.is_none() {
            return;
        }
        let Some(keys) = self.monitor_keys() else {
            return;
        };
        // Taken out so the diff cannot alias a re-entrant engine borrow.
        let mut observer = self.observer.take().expect("checked above");
        let transitions = observer.tracker.observe(keys);
        if !transitions.is_empty() {
            (observer.callback)(&transitions);
        }
        self.observer = Some(observer);
    }

    /// The topology this checker verifies.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines, in address order (read-only; for diagnostics and
    /// the bench memory accounting).
    pub fn shards(&self) -> &[DeltaNet] {
        &self.shards
    }

    /// The engine configuration shared by every shard.
    pub fn config(&self) -> DeltaNetConfig {
        self.shards[0].config()
    }

    /// Whether any shard has an open aggregation window (see
    /// [`DeltaNet::is_aggregating`]).
    pub fn is_aggregating(&self) -> bool {
        self.shards.iter().any(DeltaNet::is_aggregating)
    }

    /// The contiguous address range owned by each shard, in address order.
    pub fn shard_ranges(&self) -> Vec<Interval> {
        self.boundaries
            .windows(2)
            .map(|w| Interval::new(w[0], w[1]))
            .collect()
    }

    /// The worker-count configuration used by batched updates.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Replaces the worker-count configuration — runtime configuration, not
    /// state, so an engine restored from a snapshot (which starts from
    /// [`Parallelism::auto`]) takes its owner's setting this way.
    /// Joins the helper threads; the next window that needs helpers spawns
    /// the new count.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
        self.pool = None;
    }

    /// The rule with the given id, if currently installed.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id)
    }

    /// Iterates all currently installed rules (unspecified order).
    pub fn rules(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.values()
    }

    /// The shard whose range contains the address `value`.
    fn shard_of(&self, value: Bound) -> usize {
        self.boundaries.partition_point(|&b| b <= value) - 1
    }

    /// The shards `interval` touches (it is split at each boundary crossed).
    fn shard_span(&self, interval: Interval) -> std::ops::RangeInclusive<usize> {
        self.shard_of(interval.lo())..=self.shard_of(interval.hi() - 1)
    }

    fn validate_insert(&self, rule: &Rule) -> Result<(), UpdateError> {
        if self.rules.contains_key(&rule.id) {
            return Err(UpdateError::DuplicateRule(rule.id));
        }
        if rule.link.index() >= self.topology.link_count() {
            return Err(UpdateError::UnknownLink {
                rule: rule.id,
                link: rule.link,
            });
        }
        // Field validation must happen here, not inside a shard: a rule
        // constraining undeclared secondary fields would otherwise reach
        // the per-shard engines and trip their "validated insert cannot
        // fail" expectation.
        self.config().validate_rule_fields(rule)?;
        Ok(())
    }

    /// [`Checker::apply_window`] as a `Result`: the reports of a fully
    /// applied window, or the failure of one that stopped early (its
    /// applied prefix stays applied).
    pub fn apply_batch(&mut self, ops: &[Op]) -> Result<Vec<UpdateReport>, ReplayError> {
        match self.apply_window(ops) {
            (reports, None) => Ok(reports),
            (_, Some(error)) => Err(error),
        }
    }

    /// The concurrent half of [`Checker::apply_window`]: splits the
    /// shards into contiguous chunks of `len.div_ceil(workers)`, sends each
    /// busy chunk after the first to its helper, applies chunk 0 here, and
    /// puts every chunk back in address order before it re-raises a panic
    /// from any of them. Reports come back in shard order.
    fn apply_on_workers(
        &mut self,
        mut groups: Vec<Vec<(usize, Op)>>,
        workers: usize,
    ) -> Vec<(usize, UpdateReport)> {
        let len = self.shards.len();
        let chunk = len.div_ceil(workers);
        // One helper per chunk after the first; `for_items` never cuts a
        // window into more than `min(workers, shards)` chunks.
        let helpers = self.parallelism.workers().min(len) - 1;
        let pool = self
            .pool
            .get_or_insert_with(|| ShardWorkers::spawn(helpers));
        // Chunks split off from the back, so chunk 0 keeps the engine's
        // `Vec`; `Some` holds an idle chunk that never left this thread.
        let mut shards = std::mem::take(&mut self.shards);
        let mut away: Vec<Option<Vec<DeltaNet>>> = Vec::new();
        for (helper, start) in (chunk..len).step_by(chunk).enumerate().rev() {
            let tail = shards.split_off(start);
            let tail_groups = groups.split_off(start);
            if tail_groups.iter().all(Vec::is_empty) {
                away.push(Some(tail));
            } else {
                pool.queues[helper]
                    .0
                    .send((tail, tail_groups))
                    .expect("a shard worker lives as long as its pool");
                away.push(None);
            }
        }
        let mut result = catch_unwind(AssertUnwindSafe(|| apply_chunk(&mut shards, &groups)));
        self.shards = shards;
        for (slot, (_, replies)) in away.into_iter().rev().zip(&pool.queues) {
            let (tail, reports) = match slot {
                Some(idle) => (idle, Ok(Vec::new())),
                None => replies
                    .recv()
                    .expect("a shard worker always sends its chunk back"),
            };
            self.shards.extend(tail);
            match (&mut result, reports) {
                (Ok(all), Ok(reports)) => all.extend(reports),
                (Ok(_), Err(panic)) => result = Err(panic),
                (Err(_), _) => {}
            }
        }
        result.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// Runs a compaction pass on every shard (see [`DeltaNet::compact`]) and
    /// returns the summed report. Shards with an auto-compaction threshold
    /// configured also compact independently as their own garbage accrues.
    pub fn compact(&mut self) -> CompactReport {
        let mut total = CompactReport::default();
        for shard in &mut self.shards {
            let report = shard.compact();
            total.merged_atoms += report.merged_atoms;
            total.allocated_before += report.allocated_before;
            total.allocated_after += report.allocated_after;
            total.bytes_before += report.bytes_before;
            total.bytes_after += report.bytes_after;
        }
        total
    }

    /// Checks the entire data plane for forwarding loops, shard-wise; the
    /// same verdicts as [`DeltaNet::check_all_loops`] on an unsharded
    /// engine, with cycles found in several shards merged.
    pub fn check_all_loops(&self) -> Vec<InvariantViolation> {
        merge_violations(self.shards.iter().flat_map(DeltaNet::check_all_loops))
    }

    /// Checks the entire data plane for blackholes, shard-wise (see
    /// [`DeltaNet::check_all_blackholes`]), merging per-node findings.
    pub fn check_all_blackholes(&self) -> Vec<InvariantViolation> {
        merge_violations(self.shards.iter().flat_map(DeltaNet::check_all_blackholes))
    }

    /// The violations currently active, merged shard-wise from the
    /// per-shard [`crate::monitor::ViolationMonitor`]s: each shard tracks
    /// the loops and blackholes of its own atoms, and a cycle or switch
    /// reported by several shards merges into one violation — the same
    /// merge the full-scan queries use, so the answer matches
    /// [`ShardedDeltaNet::check_all_loops`] +
    /// [`ShardedDeltaNet::check_all_blackholes`]. `None` when monitoring is
    /// off ([`DeltaNetConfig::monitor_violations`]).
    pub fn active_violations(&self) -> Option<Vec<InvariantViolation>> {
        let mut parts = Vec::new();
        for shard in &self.shards {
            parts.extend(shard.active_violations()?);
        }
        Some(merge_violations(parts))
    }

    /// The identities of the currently active violations, merged across
    /// shards (sorted, deduplicated). Cheap — no packet rendering; a
    /// [`crate::Session`]'s transitions diff this per window. `None` when
    /// monitoring is off.
    pub fn monitor_keys(&self) -> Option<BTreeSet<crate::monitor::ViolationKey>> {
        let mut keys = BTreeSet::new();
        for shard in &self.shards {
            keys.extend(shard.monitor()?.active_keys());
        }
        Some(keys)
    }

    /// The what-if link-failure query (§4.3.2), shard-wise: each shard
    /// reports the impact among its own atoms and the partial reports merge
    /// — packets normalized, affected links deduplicated, violations
    /// combined.
    pub fn link_failure_impact(&self, link: LinkId, check_loops: bool) -> WhatIfReport {
        let mut affected_classes = 0;
        let mut packets = Vec::new();
        let mut links: BTreeSet<LinkId> = BTreeSet::new();
        let mut violations = Vec::new();
        for shard in &self.shards {
            let report = shard.link_failure_impact(link, check_loops);
            affected_classes += report.affected_classes;
            packets.extend(report.affected_packets);
            links.extend(report.affected_links);
            violations.extend(report.violations);
        }
        WhatIfReport {
            link: Some(link),
            affected_classes,
            affected_packets: normalize(packets),
            affected_links: links.into_iter().collect(),
            violations: merge_violations(violations),
        }
    }

    /// The atoms of `link`'s labels across all shards, as normalized
    /// intervals — the shard-agnostic form of [`DeltaNet::label`].
    pub fn label_intervals(&self, link: LinkId) -> Vec<Interval> {
        normalize(
            self.shards
                .iter()
                .flat_map(|shard| {
                    shard
                        .label(link)
                        .iter()
                        .map(|a| shard.atoms().atom_interval(a))
                        .collect::<Vec<_>>()
                })
                .collect(),
        )
    }

    /// Number of packet classes: the sum of each shard's atoms within its
    /// own range. Exceeds an unsharded engine's [`DeltaNet::atom_count`] by
    /// exactly one per interior shard boundary no rule bound coincides with
    /// (see the module docs on boundary semantics).
    pub fn atom_count(&self) -> usize {
        self.shards.iter().map(DeltaNet::owned_atom_count).sum()
    }

    /// Sum of the shards' atom-id table sizes (see
    /// [`DeltaNet::allocated_atoms`]).
    pub fn allocated_atoms(&self) -> usize {
        self.shards.iter().map(DeltaNet::allocated_atoms).sum()
    }

    /// Sum of the shards' reclaimable interval bounds (see
    /// [`DeltaNet::reclaimable_bounds`]).
    pub fn reclaimable_bounds(&self) -> usize {
        self.shards.iter().map(DeltaNet::reclaimable_bounds).sum()
    }

    /// Total compaction passes run across all shards.
    pub fn compactions(&self) -> usize {
        self.shards.iter().map(DeltaNet::compactions).sum()
    }

    /// Heap bytes addressed by live state: the shards summed, plus the
    /// global rule registry. The shared [`Topology`] is cloned into each
    /// shard but — like the single engine — never counted, so the sum does
    /// not multiply it; a boundary-straddling rule's per-shard copies are
    /// counted, which is the real cost of splitting it.
    pub fn live_bytes(&self) -> usize {
        self.shards.iter().map(DeltaNet::live_bytes).sum::<usize>()
            + self.rules.len() * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8)
    }

    /// Estimated heap memory used by the sharded engine (allocated
    /// capacities; same accounting rules as [`ShardedDeltaNet::live_bytes`]).
    pub fn memory_estimate(&self) -> usize {
        self.shards
            .iter()
            .map(DeltaNet::memory_estimate)
            .sum::<usize>()
            + self.rules.capacity()
                * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8)
    }
}

/// Applies each shard's routed sub-sequence, tagging each report with the
/// batch index of its operation; reports come out in shard order.
fn apply_chunk(shards: &mut [DeltaNet], groups: &[Vec<(usize, Op)>]) -> Vec<(usize, UpdateReport)> {
    let mut reports = Vec::new();
    for (shard, group) in shards.iter_mut().zip(groups) {
        for &(index, op) in group {
            let report = shard
                .try_apply(&op)
                .expect("validated op cannot fail inside a shard");
            reports.push((index, report));
        }
    }
    reports
}

/// Merges the per-shard reports of one operation: affected classes are
/// disjoint across shards and sum; changed links deduplicate; violations
/// found in several shards merge per cycle / per node.
fn merge_update_reports(
    rule_id: Option<RuleId>,
    was_insert: bool,
    mut parts: Vec<UpdateReport>,
) -> UpdateReport {
    let (affected_classes, changed_links, violations) = if parts.len() == 1 {
        // One shard's links come sorted and distinct from its delta-graph.
        let only = parts.pop().expect("one part");
        (only.affected_classes, only.changed_links, only.violations)
    } else {
        let mut affected_classes = 0;
        let mut links = Vec::new();
        let mut violations = Vec::new();
        for part in parts {
            affected_classes += part.affected_classes;
            links.extend(part.changed_links);
            violations.extend(part.violations);
        }
        links.sort_unstable();
        links.dedup();
        (affected_classes, links, violations)
    };
    UpdateReport {
        rule_id,
        was_insert,
        affected_classes,
        changed_links,
        violations: merge_violations(violations),
    }
}

impl Checker for ShardedDeltaNet {
    fn name(&self) -> &'static str {
        "delta-net-sharded"
    }

    /// A one-op window.
    fn try_apply(&mut self, op: &Op) -> Result<UpdateReport, UpdateError> {
        match self.apply_window(std::slice::from_ref(op)) {
            (mut reports, None) => Ok(reports.pop().expect("an applied op has a report")),
            (_, Some(failure)) => Err(failure.error),
        }
    }

    /// Applies a window with the per-shard groups running concurrently:
    /// operations are validated and routed in order (so a shard sees its
    /// sub-sequence in trace order), the shards split into up to
    /// [`Parallelism::for_items`] contiguous chunks — chunk 0 applied on the
    /// calling thread, every other chunk with a routed op moved to one of
    /// the engine's persistent helper threads — conflict-free, because
    /// shards share no state, and the per-shard reports merge back into one
    /// report per operation, in input order. A window with one busy shard
    /// group applies inline. The registry changes as each operation
    /// validates, so a failing window leaves exactly its applied prefix in
    /// both the registry and the shards. A panic inside a shard resumes
    /// here only after every shard is back in place.
    fn apply_window(&mut self, ops: &[Op]) -> (Vec<UpdateReport>, Option<ReplayError>) {
        let shard_count = self.shards.len();
        let mut routed: Vec<Vec<(usize, Op)>> = vec![Vec::new(); shard_count];
        let mut meta: Vec<(Option<RuleId>, bool)> = Vec::with_capacity(ops.len());
        let mut failure: Option<ReplayError> = None;
        for (index, op) in ops.iter().enumerate() {
            let interval = match op {
                Op::Insert(rule) => match self.validate_insert(rule) {
                    Ok(()) => {
                        self.rules.insert(rule.id, *rule);
                        meta.push((Some(rule.id), true));
                        rule.interval()
                    }
                    Err(error) => {
                        failure = Some(ReplayError { index, error });
                        break;
                    }
                },
                Op::Remove(id) => match self.rules.remove(id) {
                    Some(rule) => {
                        meta.push((Some(*id), false));
                        rule.interval()
                    }
                    None => {
                        failure = Some(ReplayError {
                            index,
                            error: UpdateError::UnknownRule(*id),
                        });
                        break;
                    }
                },
            };
            for s in self.shard_span(interval) {
                routed[s].push((index, *op));
            }
        }

        let busy = routed.iter().filter(|r| !r.is_empty()).count();
        let workers = self.parallelism.for_items(busy);
        let partials = if workers <= 1 {
            apply_chunk(&mut self.shards, &routed)
        } else {
            self.apply_on_workers(routed, workers)
        };

        // One observation per window — transitions are at batch granularity
        // (per-op order inside a window is not observable), and a mid-batch
        // failure still reports the transitions of its applied prefix.
        self.notify_observer();
        let mut parts: Vec<Vec<UpdateReport>> = (0..meta.len()).map(|_| Vec::new()).collect();
        for (index, report) in partials {
            parts[index].push(report);
        }
        let reports = parts
            .into_iter()
            .zip(meta)
            .map(|(p, (rule_id, was_insert))| merge_update_reports(rule_id, was_insert, p))
            .collect();
        (reports, failure)
    }

    fn what_if_link_failure(&self, link: LinkId, check_loops: bool) -> WhatIfReport {
        self.link_failure_impact(link, check_loops)
    }

    fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn class_count(&self) -> usize {
        self.atom_count()
    }

    fn memory_bytes(&self) -> usize {
        self.memory_estimate()
    }

    fn active_violations(&self) -> Option<Vec<InvariantViolation>> {
        ShardedDeltaNet::active_violations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::ip::IpPrefix;
    use netmodel::topology::NodeId;

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn two_switch() -> (Topology, NodeId, NodeId, LinkId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let l = topo.add_link(a, b);
        (topo, a, b, l)
    }

    fn insert(net: &mut ShardedDeltaNet, rule: Rule) -> UpdateReport {
        net.try_apply(&Op::Insert(rule))
            .expect("a well-formed insert")
    }

    #[test]
    fn boundaries_partition_the_space_evenly() {
        for shards in [1usize, 2, 3, 4, 7, 8] {
            let (topo, _, _, _) = two_switch();
            let net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), shards);
            let ranges = net.shard_ranges();
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].lo(), 0);
            assert_eq!(ranges[shards - 1].hi(), 1u128 << 32);
            for w in ranges.windows(2) {
                assert_eq!(w[0].hi(), w[1].lo());
            }
            // Even to within one address.
            let sizes: Vec<u128> = ranges.iter().map(Interval::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "uneven split {sizes:?}");
        }
    }

    #[test]
    fn shard_of_respects_boundaries() {
        let (topo, _, _, _) = two_switch();
        let net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 4);
        let quarter = 1u128 << 30;
        assert_eq!(net.shard_of(0), 0);
        assert_eq!(net.shard_of(quarter - 1), 0);
        assert_eq!(net.shard_of(quarter), 1);
        assert_eq!(net.shard_of(4 * quarter - 1), 3);
    }

    #[test]
    fn straddling_rule_is_split_and_rejoined() {
        let (topo, a, _, l) = two_switch();
        let mut net = ShardedDeltaNet::new(topo.clone(), DeltaNetConfig::default(), 4);
        let mut plain = DeltaNet::with_topology(topo);
        // 0.0.0.0/0 crosses all three interior boundaries.
        let wide = Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, a, l);
        let sharded_report = insert(&mut net, wide);
        let plain_report = plain.insert_rule(wide);
        assert_eq!(sharded_report.changed_links, plain_report.changed_links);
        // One atom per shard vs one atom total.
        assert_eq!(sharded_report.affected_classes, 4);
        assert_eq!(plain_report.affected_classes, 1);
        // Observable labels agree.
        assert_eq!(net.label_intervals(l), vec![Interval::new(0, 1u128 << 32)]);
        // Removal undoes it everywhere.
        net.try_apply(&Op::Remove(RuleId(1))).unwrap();
        assert!(net.label_intervals(l).is_empty());
        assert_eq!(net.rule_count(), 0);
        for shard in net.shards() {
            assert_eq!(shard.rule_count(), 0);
        }
    }

    #[test]
    fn duplicate_and_unknown_ops_error_without_partial_application() {
        let (topo, a, _, l) = two_switch();
        let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 2);
        let r = Rule::forward(RuleId(1), prefix("0.0.0.0/1"), 1, a, l);
        insert(&mut net, r);
        assert_eq!(
            net.try_apply(&Op::Insert(r)).unwrap_err(),
            UpdateError::DuplicateRule(RuleId(1))
        );
        assert_eq!(
            net.try_apply(&Op::Remove(RuleId(9))).unwrap_err(),
            UpdateError::UnknownRule(RuleId(9))
        );
        let mut bad = r;
        bad.id = RuleId(2);
        bad.link = LinkId(100);
        assert!(matches!(
            net.try_apply(&Op::Insert(bad)).unwrap_err(),
            UpdateError::UnknownLink { .. }
        ));
        assert_eq!(net.rule_count(), 1);
    }

    /// A host route that lies inside shard `s` of `net` only.
    fn host_in(net: &ShardedDeltaNet, s: usize, id: u64, src: NodeId, link: LinkId) -> Rule {
        let lo = net.shard_ranges()[s].lo() as u32;
        Rule::forward(RuleId(id), IpPrefix::ipv4(lo, 32), 3, src, link)
    }

    #[test]
    fn apply_batch_matches_sequential_application() {
        let (topo, a, b, l) = two_switch();
        let mut topo = topo;
        let back = topo.add_link(b, a);
        let config = DeltaNetConfig::default();
        let ops: Vec<Op> = (0..32u64)
            .map(|i| {
                let p = IpPrefix::ipv4((i as u32) << 27, 6);
                let (src, link) = if i % 2 == 0 { (a, l) } else { (b, back) };
                Op::Insert(Rule::forward(RuleId(i), p, (i % 7 + 1) as u32, src, link))
            })
            .chain((0..16u64).map(|i| Op::Remove(RuleId(i * 2))))
            .collect();
        for shards in [1usize, 2, 3, 7] {
            // Two more windows where only non-adjacent shards are busy: in
            // the first, at 7 shards and 3 workers, the middle chunk is
            // idle; in the second, at 2 workers, the last one is.
            let probe = ShardedDeltaNet::new(topo.clone(), config, shards);
            let mut busy: Vec<usize> = [0, 2, 6].iter().map(|&s| s.min(shards - 1)).collect();
            busy.dedup();
            let mut windows: Vec<Vec<Op>> = ops.chunks(5).map(<[Op]>::to_vec).collect();
            windows.push(
                busy.iter()
                    .map(|&s| Op::Insert(host_in(&probe, s, 100 + s as u64, a, l)))
                    .collect(),
            );
            windows.push(
                busy.iter()
                    .take(2)
                    .map(|&s| Op::Remove(RuleId(100 + s as u64)))
                    .collect(),
            );

            // One-op windows on one thread: the sequential semantics.
            let mut sequential = ShardedDeltaNet::with_parallelism(
                topo.clone(),
                config,
                shards,
                Parallelism::fixed(1),
            );
            let seq_reports: Vec<UpdateReport> = windows
                .iter()
                .flatten()
                .map(|op| sequential.try_apply(op).expect("well-formed"))
                .collect();
            // `None`: the worker count changes between windows.
            for workers in [Some(1), Some(2), Some(3), Some(4), None] {
                let parallelism = Parallelism::fixed(workers.unwrap_or(1));
                let mut batched =
                    ShardedDeltaNet::with_parallelism(topo.clone(), config, shards, parallelism);
                let mut batch_reports = Vec::new();
                for (i, window) in windows.iter().enumerate() {
                    if workers.is_none() {
                        batched.set_parallelism(Parallelism::fixed(i % 4 + 1));
                    }
                    batch_reports.extend(batched.apply_batch(window).expect("well-formed"));
                }
                let case = format!("{shards} shards, workers {workers:?}");
                assert_eq!(batch_reports, seq_reports, "{case}");
                for link in [l, back] {
                    assert_eq!(
                        batched.label_intervals(link),
                        sequential.label_intervals(link),
                        "{case}"
                    );
                }
                assert_eq!(batched.atom_count(), sequential.atom_count(), "{case}");
            }
        }
    }

    #[test]
    fn a_panicking_shard_leaves_the_engine_whole() {
        // Shard 0 is the caller's chunk, shard 1 the helper's.
        for k in [0usize, 1] {
            let (topo, a, _, l) = two_switch();
            let config = DeltaNetConfig::default();
            let mut net =
                ShardedDeltaNet::with_parallelism(topo.clone(), config, 2, Parallelism::fixed(2));
            let victim = host_in(&net, k, 1, a, l);
            insert(&mut net, victim);
            // Desync shard k behind the registry's back, so the registry
            // routes a removal the shard cannot perform.
            net.shards[k].try_remove_rule(RuleId(1)).unwrap();
            let bystander = host_in(&net, 1 - k, 2, a, l);
            let window = [Op::Remove(RuleId(1)), Op::Insert(bystander)];
            let payload = catch_unwind(AssertUnwindSafe(|| net.apply_batch(&window)))
                .expect_err("the shard's panic propagates");
            let message = payload.downcast_ref::<String>().expect("an expect message");
            assert!(
                message.contains("validated op cannot fail inside a shard"),
                "{message}"
            );
            assert_eq!(net.shards().len(), 2, "shard {k}");
            for (shard, range) in net.shards().iter().zip(net.shard_ranges()) {
                assert_eq!(shard.clip(), Some(range), "shard {k}");
            }
            // The helpers survive: a later two-shard window applies and the
            // plane is what a fresh engine builds from the same rules.
            let fresh_rules = [host_in(&net, 0, 3, a, l), host_in(&net, 1, 4, a, l)];
            let later: Vec<Op> = fresh_rules.iter().map(|&r| Op::Insert(r)).collect();
            net.apply_batch(&later).expect("fresh rules apply");
            let mut fresh = ShardedDeltaNet::new(topo, config, 2);
            for rule in [bystander, fresh_rules[0], fresh_rules[1]] {
                insert(&mut fresh, rule);
            }
            assert_eq!(
                net.label_intervals(l),
                fresh.label_intervals(l),
                "shard {k}"
            );
            assert_eq!(net.rule_count(), fresh.rule_count(), "shard {k}");
        }
    }

    #[test]
    fn apply_batch_error_keeps_prefix_applied() {
        let (topo, a, _, l) = two_switch();
        let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 2);
        let r1 = Rule::forward(RuleId(1), prefix("0.0.0.0/2"), 1, a, l);
        let r2 = Rule::forward(RuleId(2), prefix("128.0.0.0/2"), 1, a, l);
        let err = net
            .apply_batch(&[
                Op::Insert(r1),
                Op::Insert(r2),
                Op::Remove(RuleId(99)),
                Op::Remove(RuleId(1)),
            ])
            .unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.error, UpdateError::UnknownRule(RuleId(99)));
        // The prefix before the failing op stayed applied, the suffix did not.
        assert_eq!(net.rule_count(), 2);
        assert!(net.rule(RuleId(1)).is_some());
    }

    #[test]
    fn apply_batch_failure_leaves_registry_and_shards_agreeing() {
        // The pinned mid-batch failure semantics: after a batch fails at op
        // k, the engine state equals "exactly ops[..k] were applied" — the
        // registry and the per-shard rule sets must agree with each other
        // AND with a fresh engine that applied just the prefix. A duplicate
        // insert is the delicate case, because inserts are registered at
        // validation time and a desync would leave the duplicate's first
        // copy half-tracked.
        let (topo, a, _, l) = two_switch();
        let mut net = ShardedDeltaNet::new(topo.clone(), DeltaNetConfig::default(), 4);
        let wide = Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, a, l);
        let narrow = Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 9, a, l);
        let dup = Rule::forward(RuleId(1), prefix("192.0.0.0/8"), 5, a, l);
        let late = Rule::forward(RuleId(3), prefix("64.0.0.0/8"), 3, a, l);
        let err = net
            .apply_batch(&[
                Op::Insert(wide),
                Op::Insert(narrow),
                Op::Insert(dup),
                Op::Insert(late),
            ])
            .unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.error, UpdateError::DuplicateRule(RuleId(1)));

        // Registry holds exactly the applied prefix…
        assert_eq!(net.rule_count(), 2);
        assert_eq!(net.rule(RuleId(1)), Some(&wide));
        assert!(net.rule(RuleId(3)).is_none());
        // …and every shard agrees with the registry's clipped view: each
        // registered rule is present in exactly the shards its interval
        // touches, and nothing else is present anywhere.
        let ranges = net.shard_ranges();
        for (shard, range) in net.shards().iter().zip(&ranges) {
            for rule in [&wide, &narrow] {
                let touches = !rule.interval().intersection(range).is_empty();
                assert_eq!(shard.rule(rule.id).is_some(), touches);
            }
            assert!(shard.rule(RuleId(3)).is_none());
        }
        // Observational check against a fresh engine applying the prefix.
        let mut fresh = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 4);
        fresh
            .apply_batch(&[Op::Insert(wide), Op::Insert(narrow)])
            .unwrap();
        assert_eq!(net.label_intervals(l), fresh.label_intervals(l));
        assert_eq!(net.atom_count(), fresh.atom_count());
        assert_eq!(net.live_bytes(), fresh.live_bytes());
    }

    #[test]
    fn try_remove_rule_error_path_leaves_state_untouched() {
        // The unknown-id error path of a one-op removal must not change
        // anything at all: not the registry, not a shard.
        let (topo, a, _, l) = two_switch();
        let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 4);
        let wide = Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, a, l);
        insert(&mut net, wide);
        let rules_before = net.rule_count();
        let atoms_before = net.atom_count();
        let bytes_before = net.live_bytes();
        let labels_before = net.label_intervals(l);

        let err = net.try_apply(&Op::Remove(RuleId(99))).unwrap_err();
        assert_eq!(err, UpdateError::UnknownRule(RuleId(99)));
        assert_eq!(net.rule_count(), rules_before);
        assert_eq!(net.atom_count(), atoms_before);
        assert_eq!(net.live_bytes(), bytes_before);
        assert_eq!(net.label_intervals(l), labels_before);
        assert!(net.rule(RuleId(1)).is_some());
        for shard in net.shards() {
            assert!(shard.rule(RuleId(1)).is_some());
        }

        // The real removal still works afterwards and clears every shard.
        net.try_apply(&Op::Remove(RuleId(1))).unwrap();
        assert_eq!(net.rule_count(), 0);
        assert!(net.shards().iter().all(|s| s.rule(RuleId(1)).is_none()));
        assert!(net.label_intervals(l).is_empty());
    }

    #[test]
    fn one_shard_memory_close_to_plain_engine() {
        // The satellite guarantee: summing shards never double-counts the
        // shared Topology, so a 1-shard sharded engine costs what the plain
        // engine costs plus only its own small rule registry.
        let (topo, a, _, l) = two_switch();
        let mut sharded = ShardedDeltaNet::new(topo.clone(), DeltaNetConfig::default(), 1);
        let mut plain = DeltaNet::with_topology(topo);
        for i in 0..200u64 {
            let r = Rule::forward(
                RuleId(i),
                IpPrefix::ipv4((i as u32) * 0x0100_0000 / 4, 10),
                (i % 13 + 1) as u32,
                a,
                l,
            );
            insert(&mut sharded, r);
            plain.insert_rule(r);
        }
        let plain_live = plain.live_bytes();
        let sharded_live = sharded.live_bytes();
        assert!(sharded_live >= plain_live);
        let registry = sharded.rules().count()
            * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8);
        assert!(
            sharded_live <= plain_live + registry + plain_live / 10,
            "sharded {sharded_live} vs plain {plain_live} (+registry {registry})"
        );
        assert!(sharded.memory_estimate() >= sharded_live);
        assert_eq!(sharded.class_count(), plain.atom_count());
    }

    #[test]
    fn checker_surface_and_compaction() {
        let (topo, a, _, l) = two_switch();
        let mut net = ShardedDeltaNet::new(
            topo,
            DeltaNetConfig {
                check_loops_per_update: false,
                ..Default::default()
            },
            4,
        );
        assert_eq!(net.name(), "delta-net-sharded");
        assert_eq!(net.parallelism().workers(), Parallelism::auto().workers());
        let wide = Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, a, l);
        let narrow = Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 9, a, l);
        insert(&mut net, wide);
        insert(&mut net, narrow);
        assert_eq!(net.rule_count(), 2);
        let whatif = net.what_if_link_failure(l, true);
        assert_eq!(whatif.affected_packets, vec![Interval::new(0, 1u128 << 32)]);
        assert!(net.memory_bytes() > 0);
        net.try_apply(&Op::Remove(RuleId(2))).unwrap();
        assert!(net.reclaimable_bounds() > 0);
        let report = net.compact();
        assert!(report.merged_atoms > 0);
        assert_eq!(net.reclaimable_bounds(), 0);
        assert_eq!(net.compactions(), 4);
        // After a pass every shard's id table equals its full atom count —
        // owned atoms plus the structural out-of-range remainder pieces.
        assert_eq!(
            net.allocated_atoms(),
            net.shards().iter().map(DeltaNet::atom_count).sum::<usize>()
        );
        assert!(net.allocated_atoms() >= net.atom_count());
        // Boundary pins survive compaction: one class per shard remains.
        assert_eq!(net.class_count(), 4);
        assert_eq!(net.label_intervals(l), vec![Interval::new(0, 1u128 << 32)]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let (topo, _, _, _) = two_switch();
        ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 0);
    }

    /// A loop-then-blackhole flap on two switches: `I 1` routes a→b (traffic
    /// strands at b: blackhole), `I 2` routes b→a (loop appears, blackhole
    /// resolves), `R 2` resolves the loop and re-strands the traffic.
    fn flap_ops(topo: &mut Topology, a: NodeId, b: NodeId, l: LinkId) -> Vec<Op> {
        let back = topo.add_link(b, a);
        vec![
            Op::Insert(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, l)),
            Op::Insert(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, back)),
            Op::Remove(RuleId(2)),
        ]
    }

    #[test]
    fn monitor_observer_streams_transitions_per_update() {
        use crate::monitor::ViolationKey;
        use std::sync::{Arc, Mutex};
        for shards in [1usize, 2, 4] {
            let (mut topo, a, b, l) = two_switch();
            let ops = flap_ops(&mut topo, a, b, l);
            let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), shards);
            net.enable_monitor();
            let seen: Arc<Mutex<Vec<MonitorTransitions>>> = Arc::default();
            let sink = Arc::clone(&seen);
            assert!(net.set_monitor_observer(move |t| sink.lock().unwrap().push(t.clone())));
            for op in &ops {
                net.try_apply(op).unwrap();
            }
            let seen = seen.lock().unwrap();
            let cycle = ViolationKey::Loop(vec![a, b]);
            let hole = ViolationKey::Blackhole(b);
            assert_eq!(
                *seen,
                vec![
                    MonitorTransitions {
                        appeared: vec![hole.clone()],
                        resolved: vec![],
                    },
                    MonitorTransitions {
                        appeared: vec![cycle.clone()],
                        resolved: vec![hole.clone()],
                    },
                    MonitorTransitions {
                        appeared: vec![hole],
                        resolved: vec![cycle],
                    },
                ],
                "at {shards} shards"
            );
        }
    }

    #[test]
    fn monitor_observer_batch_window_and_failure_prefix() {
        use crate::monitor::ViolationKey;
        use std::sync::{Arc, Mutex};
        let (mut topo, a, b, l) = two_switch();
        let ops = flap_ops(&mut topo, a, b, l);
        let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 2);
        net.enable_monitor();
        let seen: Arc<Mutex<Vec<MonitorTransitions>>> = Arc::default();
        let sink = Arc::clone(&seen);
        net.set_monitor_observer(move |t| sink.lock().unwrap().push(t.clone()));
        // One window covering the whole flap: loop + and - cancel out, only
        // the blackhole surfaces — batch-granularity transitions.
        net.apply_batch(&ops).unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![MonitorTransitions {
                appeared: vec![ViolationKey::Blackhole(b)],
                resolved: vec![],
            }]
        );
        seen.lock().unwrap().clear();
        // A window failing mid-batch still reports its applied prefix: the
        // re-insert of rule 2 resolves the blackhole and re-raises the loop
        // before the unknown removal aborts the window.
        let back = net.topology().link_between(b, a).unwrap();
        let failing = vec![
            Op::Insert(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, back)),
            Op::Remove(RuleId(99)),
        ];
        let err = net.apply_batch(&failing).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![MonitorTransitions {
                appeared: vec![ViolationKey::Loop(vec![a, b])],
                resolved: vec![ViolationKey::Blackhole(b)],
            }]
        );
    }

    #[test]
    fn monitor_observer_lifecycle() {
        use std::sync::{Arc, Mutex};
        let (mut topo, a, b, l) = two_switch();
        let ops = flap_ops(&mut topo, a, b, l);
        // Without monitoring, registration is refused.
        let mut unmonitored = ShardedDeltaNet::new(topo.clone(), DeltaNetConfig::default(), 2);
        assert!(!unmonitored.set_monitor_observer(|_| {}));
        // Attaching to a dirty engine does not replay existing violations,
        // and a clone carries no observer.
        let mut net = ShardedDeltaNet::new(topo, DeltaNetConfig::default(), 2);
        net.enable_monitor();
        net.try_apply(&ops[0]).unwrap();
        net.try_apply(&ops[1]).unwrap(); // loop active
        let seen: Arc<Mutex<Vec<MonitorTransitions>>> = Arc::default();
        let sink = Arc::clone(&seen);
        net.set_monitor_observer(move |t| sink.lock().unwrap().push(t.clone()));
        assert!(seen.lock().unwrap().is_empty(), "no attach-time wave");
        let mut copy = net.clone();
        copy.try_apply(&ops[2]).unwrap();
        assert!(seen.lock().unwrap().is_empty(), "clone has no observer");
    }
}

//! The Delta-net engine: Algorithms 1 and 2 of the paper, plus the
//! [`Checker`] implementation used by the experiments.
//!
//! [`DeltaNet`] owns the three global structures of §3.2 — the atom map `M`
//! (with its §3.2.2 garbage-collection books, [`BoundRefs`]), the `owner`
//! array and the edge `label`s — and transforms them incrementally on every
//! rule insertion and removal. Each update also produces a [`DeltaGraph`]
//! (the by-product described in §3.3) on which the configured per-update
//! property checks run.
//!
//! The update core is written against an explicit interval rather than the
//! rule's full match range, so an engine can be *clipped* to a contiguous
//! slice of the address space ([`DeltaNet::clipped`]) and used as one shard
//! of a [`crate::shard::ShardedDeltaNet`] — the §6 observation that the main
//! loops over atoms parallelize, realized by partitioning the atoms
//! themselves.
//!
//! When the configuration declares *secondary* header fields
//! ([`DeltaNetConfig::sec_widths`] — e.g. a source address next to the
//! destination), the engine additionally holds one
//! [`crate::multifield::MultiField`] — a lattice and books per secondary
//! field plus the cross-field walk kernel — and dispatches every check
//! through it. The default single-field configuration holds `None`: every
//! multi-field statement in this file is behind an `if let Some(mf)`, and
//! atoms, owners, and labels behave bit-identically to the paper's
//! presentation.

use crate::atoms::{AtomMap, BoundRefs, DeltaPair};
use crate::delta_graph::DeltaGraph;
use crate::labels::Labels;
use crate::loops::{self, WalkScratch};
use crate::monitor::ViolationMonitor;
use crate::multifield::{MfView, MultiField};
use crate::owner::Owner;
use netmodel::checker::{Checker, UpdateError, UpdateReport, WhatIfReport};
use netmodel::header::{HeaderSpace, MAX_SECONDARY_FIELDS};
use netmodel::interval::{normalize, Interval};
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::Op;
use std::collections::HashMap;

/// Configuration of a [`DeltaNet`] instance.
#[derive(Clone, Copy, Debug)]
pub struct DeltaNetConfig {
    /// Width in bits of the matched *primary* header field (32 for IPv4
    /// destination addresses) — the axis atoms, labels, and shard
    /// partitioning run on.
    pub field_width: u8,
    /// Widths in bits of the declared *secondary* header fields, in field
    /// order; `0` marks "no field" (the array is fixed-size so the config
    /// stays `Copy`, and nonzero entries must be contiguous from position
    /// 0 — use [`DeltaNetConfig::with_secondary`]). All-zero — the default
    /// — is the paper's single-field shape and keeps every existing hot
    /// path untouched.
    pub sec_widths: [u8; MAX_SECONDARY_FIELDS],
    /// Whether to run forwarding-loop detection on the delta-graph of every
    /// update (the experiment of §4.3.1).
    pub check_loops_per_update: bool,
    /// When `Some(t)`, a rule removal that leaves at least `max(t, 1)`
    /// reclaimable interval bounds triggers an automatic
    /// [`DeltaNet::compact`] pass (deferred while a delta-graph aggregation
    /// is in progress). `None` (the default) matches the paper's
    /// presentation: atoms only ever split, and memory grows monotonically
    /// under rule churn.
    pub compact_threshold: Option<usize>,
    /// Whether to maintain the current set of forwarding-loop and blackhole
    /// violations as live state, updated incrementally from every update's
    /// delta-graph (see [`crate::monitor::ViolationMonitor`]). Off by
    /// default; a monitor can also be attached to a running engine with
    /// [`DeltaNet::enable_monitor`].
    pub monitor_violations: bool,
}

impl Default for DeltaNetConfig {
    fn default() -> Self {
        DeltaNetConfig {
            field_width: 32,
            sec_widths: [0; MAX_SECONDARY_FIELDS],
            check_loops_per_update: true,
            compact_threshold: None,
            monitor_violations: false,
        }
    }
}

impl DeltaNetConfig {
    /// Declares secondary header fields with the given bit-widths (builder
    /// style): `config.with_secondary(&[16])` verifies a `[dst, src]`
    /// plane with 16-bit source addresses.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SECONDARY_FIELDS`] widths are given or any
    /// width is 0 or exceeds 127 bits.
    pub fn with_secondary(mut self, widths: &[u8]) -> Self {
        assert!(
            widths.len() <= MAX_SECONDARY_FIELDS,
            "at most {MAX_SECONDARY_FIELDS} secondary fields supported"
        );
        self.sec_widths = [0; MAX_SECONDARY_FIELDS];
        for (i, &w) in widths.iter().enumerate() {
            assert!(
                w > 0 && w <= netmodel::header::MAX_SECONDARY_WIDTH,
                "unsupported secondary field width {w}"
            );
            self.sec_widths[i] = w;
        }
        self
    }

    /// Number of declared secondary fields.
    pub fn secondary_count(&self) -> usize {
        self.sec_widths.iter().take_while(|&&w| w != 0).count()
    }

    /// The header space this configuration declares, primary field first.
    pub fn header_space(&self) -> HeaderSpace {
        let mut widths = [0u8; 1 + MAX_SECONDARY_FIELDS];
        widths[0] = self.field_width;
        let count = 1 + self.secondary_count();
        widths[1..count].copy_from_slice(&self.sec_widths[..count - 1]);
        HeaderSpace::new(&widths[..count])
    }

    /// Validates a rule's secondary constraints against the declared
    /// header space: constraining more fields than declared, or an
    /// interval extending past a declared field's range, is an
    /// [`UpdateError::FieldMismatch`]. Constraining *fewer* fields is fine
    /// — missing fields are wildcards.
    pub(crate) fn validate_rule_fields(&self, rule: &Rule) -> Result<(), UpdateError> {
        let declared = self.secondary_count();
        let constrained = rule.sec.count();
        let fits = constrained <= declared
            && rule
                .sec
                .intervals()
                .iter()
                .enumerate()
                .all(|(i, iv)| iv.hi() <= 1u128 << self.sec_widths[i]);
        if fits {
            Ok(())
        } else {
            Err(UpdateError::FieldMismatch {
                rule: rule.id,
                declared,
                constrained,
            })
        }
    }
}

/// What one [`DeltaNet::compact`] pass accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Atoms merged into their lower neighbour (one per reclaimed bound).
    pub merged_atoms: usize,
    /// Size of the atom-id table before the pass.
    pub allocated_before: usize,
    /// Size of the atom-id table after renumbering (equals the live atom
    /// count).
    pub allocated_after: usize,
    /// Estimated engine heap bytes before the pass.
    pub bytes_before: usize,
    /// Estimated engine heap bytes after the pass.
    pub bytes_after: usize,
}

/// The Delta-net real-time data-plane checker.
///
/// # Examples
///
/// ```
/// use deltanet::{DeltaNet, DeltaNetConfig};
/// use netmodel::checker::Checker;
/// use netmodel::topology::Topology;
/// use netmodel::rule::{Rule, RuleId};
///
/// let mut topo = Topology::new();
/// let s1 = topo.add_node("s1");
/// let s2 = topo.add_node("s2");
/// let link = topo.add_link(s1, s2);
/// let mut net = DeltaNet::new(topo, DeltaNetConfig::default());
///
/// let rule = Rule::forward(RuleId(0), "10.0.0.0/8".parse().unwrap(), 100, s1, link);
/// let report = net.insert_rule(rule);
/// assert!(report.violations.is_empty());
/// assert_eq!(net.rule_count(), 1);
/// assert!(!net.label(link).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct DeltaNet {
    topology: Topology,
    config: DeltaNetConfig,
    atoms: AtomMap,
    owner: Owner,
    labels: Labels,
    rules: HashMap<RuleId, Rule>,
    /// The §3.2.2 garbage-collection books of `atoms`: which bounds live
    /// rules (and, on a shard, the clip) reference, and how many interior
    /// bounds of `M` nothing references any more — maintained incrementally
    /// so the compaction trigger is O(1) per update.
    books: BoundRefs,
    /// The secondary lattices with their books and the cross-field walk
    /// kernel, when the configuration declares secondary header fields;
    /// `None` for the paper's single-field shape.
    mf: Option<MultiField>,
    /// Number of compaction passes run so far (explicit or threshold-
    /// triggered).
    compactions: usize,
    /// The delta-graph of the most recent update.
    last_delta: DeltaGraph,
    /// An aggregation buffer for multi-update delta-graphs (§3.3).
    aggregate: Option<DeltaGraph>,
    /// Scratch buffer for the delta-pairs of an update, reused across
    /// updates so the steady-state hot path performs no per-update
    /// allocation. Invariant: empty between updates (taken at the start of
    /// `insert_rule`, cleared and put back before the update returns).
    pair_scratch: Vec<DeltaPair>,
    /// Scratch of the per-update loop check's successor walks, reused for
    /// the same reason (see [`loops::WalkScratch`]).
    walk_scratch: WalkScratch,
    /// When `Some(range)`, this engine owns only that contiguous slice of
    /// the address space: every applied rule interval is intersected with it
    /// before the update core runs. This is the per-shard building block of
    /// [`crate::shard::ShardedDeltaNet`]; a stand-alone engine has `None`.
    clip: Option<Interval>,
    /// The incrementally maintained violation state, when monitoring is on
    /// ([`DeltaNetConfig::monitor_violations`] or
    /// [`DeltaNet::enable_monitor`]). Fed by every update's delta-graph in
    /// [`DeltaNet::finish_update`]; remapped across [`DeltaNet::compact`].
    monitor: Option<ViolationMonitor>,
}

impl DeltaNet {
    /// Creates a checker over the given topology.
    pub fn new(topology: Topology, config: DeltaNetConfig) -> Self {
        let secondary = config.sec_widths[..config.secondary_count()]
            .iter()
            .map(|&width| (AtomMap::new(width), BoundRefs::default()))
            .collect();
        DeltaNet::from_parts(EngineParts {
            atoms: AtomMap::new(config.field_width),
            owner: Owner::new(),
            labels: Labels::with_links(topology.link_count()),
            rules: HashMap::new(),
            books: BoundRefs::default(),
            secondary,
            compactions: 0,
            clip: None,
            monitor: config.monitor_violations.then(ViolationMonitor::new),
            topology,
            config,
        })
    }

    /// Creates a checker with the default configuration (IPv4, per-update
    /// loop checking).
    pub fn with_topology(topology: Topology) -> Self {
        DeltaNet::new(topology, DeltaNetConfig::default())
    }

    /// Creates a *shard* engine: a checker that owns only the contiguous
    /// address range `clip` of the field space. Every rule applied to it is
    /// intersected with `clip` before the update core runs, so disjoint
    /// shards maintain disjoint atoms, owners, and label bits — the
    /// conflict-freedom [`crate::shard::ShardedDeltaNet`] relies on to apply
    /// shard groups concurrently.
    ///
    /// The clip bounds are seeded into the atom map and pinned in the
    /// garbage-collection bookkeeping, so [`DeltaNet::compact`] never merges
    /// across the shard boundary and [`DeltaNet::owned_atom_count`] stays
    /// well defined across compactions.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is empty or extends beyond the configured field
    /// space.
    pub fn clipped(topology: Topology, config: DeltaNetConfig, clip: Interval) -> Self {
        let mut net = DeltaNet::new(topology, config);
        assert!(!clip.is_empty(), "empty shard range {clip}");
        assert!(
            clip.hi() <= net.atoms.max_bound(),
            "shard range {clip} outside field space [0 : {})",
            net.atoms.max_bound()
        );
        net.books.acquire(&net.atoms, clip);
        net.atoms.create_atoms(clip);
        net.clip = Some(clip);
        net
    }

    /// The address range this engine owns, when it is a shard of a
    /// [`crate::shard::ShardedDeltaNet`]; `None` for a stand-alone engine.
    pub fn clip(&self) -> Option<Interval> {
        self.clip
    }

    /// The interval of `rule` an engine clipped to `clip` is responsible
    /// for — and holds bound references on: the rule's interval intersected
    /// with the clip range, or the full interval for a stand-alone engine.
    /// Snapshot restore recomputes the books from these.
    pub(crate) fn clipped_interval(clip: Option<Interval>, rule: &Rule) -> Interval {
        match clip {
            Some(clip) => rule.interval().intersection(&clip),
            None => rule.interval(),
        }
    }

    /// The topology this checker verifies.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The atom map `M` of the primary field.
    pub fn atoms(&self) -> &AtomMap {
        &self.atoms
    }

    /// Whether this engine verifies a multi-field header space (at least
    /// one secondary field declared).
    pub fn is_multifield(&self) -> bool {
        self.mf.is_some()
    }

    /// The secondary-field atom lattices, in field order (empty for the
    /// single-field shape).
    pub fn secondary_atoms(&self) -> &[AtomMap] {
        self.mf.as_ref().map_or(&[], MultiField::atoms)
    }

    /// The header space this engine verifies, primary field first.
    pub fn header_space(&self) -> HeaderSpace {
        self.config.header_space()
    }

    /// The borrowed state bundle the cross-field checks run on.
    pub(crate) fn mf_view(&self) -> MfView<'_> {
        MfView {
            topology: &self.topology,
            owner: &self.owner,
            atoms: &self.atoms,
            rules: &self.rules,
        }
    }

    /// The edge labels — the paper's constant-time network-wide flow API
    /// (§3.3): the atoms currently forwarded along `link`.
    pub fn label(&self, link: LinkId) -> &crate::atomset::AtomSet {
        self.labels.get(link)
    }

    /// All edge labels.
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The owner arena (read-only) — exposed for diagnostics (per-structure
    /// byte totals) and the differential tests.
    pub fn owner(&self) -> &Owner {
        &self.owner
    }

    /// The delta-graph produced by the most recent update.
    pub fn last_delta(&self) -> &DeltaGraph {
        &self.last_delta
    }

    /// The live violation monitor, if monitoring is enabled.
    pub fn monitor(&self) -> Option<&ViolationMonitor> {
        self.monitor.as_ref()
    }

    /// Attaches a violation monitor to a running engine, seeding it from
    /// the current data plane with one full scan
    /// ([`DeltaNet::fresh_monitor`]); every later update maintains it
    /// incrementally. Replaces any existing monitor. Engines created with
    /// [`DeltaNetConfig::monitor_violations`] start monitored without the
    /// scan.
    pub fn enable_monitor(&mut self) -> &ViolationMonitor {
        let monitor = self.fresh_monitor();
        self.monitor.insert(monitor)
    }

    /// A monitor seeded from the current data plane with one full scan —
    /// the one place the engine's header-space shape picks the scan: the
    /// label walk single-field, the set-at-a-time kernel over every atom
    /// ([`MultiField::scan`]) multi-field. What `enable_monitor` attaches,
    /// what snapshot restore verifies a persisted monitor against, and what
    /// the multi-field `check_all_*` render.
    pub(crate) fn fresh_monitor(&self) -> ViolationMonitor {
        match &self.mf {
            Some(mf) => mf.scan(&self.mf_view()),
            None => ViolationMonitor::from_state(&self.topology, &self.labels, &self.atoms),
        }
    }

    /// The violations currently active in the data plane, rendered exactly
    /// like [`DeltaNet::check_all_loops`] followed by
    /// [`DeltaNet::check_all_blackholes`] — but read from the maintained
    /// state instead of rescanning the plane. `None` when monitoring is
    /// off.
    pub fn active_violations(&self) -> Option<Vec<netmodel::checker::InvariantViolation>> {
        self.monitor
            .as_ref()
            .map(|monitor| monitor.active_violations(&self.atoms))
    }

    /// The rule with the given id, if currently installed.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id)
    }

    /// Iterates all currently installed rules (unspecified order).
    pub fn rules(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.values()
    }

    /// Starts aggregating delta-graphs: until [`DeltaNet::take_aggregate`]
    /// is called, every update's delta-graph is merged into one (§3.3:
    /// "multiple rule updates may be aggregated into a delta-graph").
    pub fn begin_aggregate(&mut self) {
        self.aggregate = Some(DeltaGraph::new());
    }

    /// Whether an aggregation window opened by [`DeltaNet::begin_aggregate`]
    /// is currently in progress. The violation monitor is repaired per
    /// update even inside a window, so state captured mid-window is still
    /// monitor-consistent — but automatic compaction is deferred, so
    /// callers scheduling maintenance (like checkpoint snapshots) may
    /// prefer window boundaries.
    pub fn is_aggregating(&self) -> bool {
        self.aggregate.is_some()
    }

    /// Stops aggregating and returns the combined delta-graph, canonicalized
    /// to its net effect ([`DeltaGraph::canonicalize`]: same-window
    /// insert+remove pairs cancel). Any automatic compaction deferred while
    /// the aggregation was in progress runs now, so a threshold crossed
    /// mid-aggregation is not silently dropped.
    pub fn take_aggregate(&mut self) -> DeltaGraph {
        let mut aggregate = self.aggregate.take().unwrap_or_default();
        aggregate.canonicalize();
        self.maybe_auto_compact();
        aggregate
    }

    /// Runs a compaction pass if the configured threshold is crossed and no
    /// aggregation is in progress (the aggregate holds atom ids a pass
    /// would invalidate).
    fn maybe_auto_compact(&mut self) {
        if let Some(threshold) = self.config.compact_threshold {
            if self.reclaimable_bounds() >= threshold.max(1) && self.aggregate.is_none() {
                self.compact();
            }
        }
    }

    /// Algorithm 1: inserts `rule` into its switch's forwarding table,
    /// updating atoms, owners, and edge labels, and returns the per-update
    /// report (affected atoms, changed links, any loops found).
    ///
    /// # Panics
    ///
    /// Panics if a rule with the same id is already installed or the rule
    /// references a link outside the topology. Use
    /// [`DeltaNet::try_insert_rule`] to get an error instead.
    pub fn insert_rule(&mut self, rule: Rule) -> UpdateReport {
        self.try_insert_rule(rule).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DeltaNet::insert_rule`]: a duplicate rule id, an
    /// out-of-topology link, or (on a [`DeltaNet::clipped`] engine) a rule
    /// that does not intersect the shard range is reported as an
    /// [`UpdateError`] without touching the engine state.
    pub fn try_insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, UpdateError> {
        if self.rules.contains_key(&rule.id) {
            return Err(UpdateError::DuplicateRule(rule.id));
        }
        if rule.link.index() >= self.topology.link_count() {
            return Err(UpdateError::UnknownLink {
                rule: rule.id,
                link: rule.link,
            });
        }
        self.config.validate_rule_fields(&rule)?;
        debug_assert_eq!(
            self.topology.link(rule.link).src,
            rule.source,
            "rule source does not match its link"
        );

        let interval = Self::clipped_interval(self.clip, &rule);
        if interval.is_empty() {
            // Only reachable on a clipped engine: rule intervals are never
            // empty, so an empty clipped interval means no intersection.
            return Err(UpdateError::OutsideShard {
                rule: rule.id,
                range: self.clip.expect("empty interval implies a clip"),
            });
        }
        Ok(self.apply_insert(rule, interval))
    }

    /// The per-update core of Algorithm 1, applied to an explicit (possibly
    /// shard-clipped) interval. This is the reusable unit one shard of a
    /// [`crate::shard::ShardedDeltaNet`] executes; callers have already
    /// validated the rule and computed the interval this engine owns.
    fn apply_insert(&mut self, rule: Rule, interval: Interval) -> UpdateReport {
        let mut delta = DeltaGraph::new();

        // Garbage-collection bookkeeping (§3.2.2): reference the rule's
        // bounds — before `create_atoms_into` mutates `M`, so a bound that
        // is in `M` but referenced by no live rule is seen being revived.
        self.books.acquire(&self.atoms, interval);

        // Lines 2–9: create atoms and propagate splits to owners and labels.
        // The delta-pair buffer is engine-owned scratch; `labels` and `owner`
        // are disjoint fields, so the split loop updates labels in place
        // while iterating the new atom's sources — no `to_label` staging
        // buffer and no per-update allocation.
        let mut delta_pairs = std::mem::take(&mut self.pair_scratch);
        self.atoms.create_atoms_into(interval, &mut delta_pairs);
        for pair in &delta_pairs {
            delta.split(*pair);
            self.owner.clone_atom(pair.old, pair.new);
            // Every switch that had an owner for the old atom forwards the
            // new atom along the same link.
            for (_source, rules) in self.owner.sources(pair.new) {
                if let Some(hp) = rules.highest() {
                    self.labels.insert(hp.link, pair.new);
                }
            }
        }
        delta_pairs.clear();
        self.pair_scratch = delta_pairs;

        // Lines 10–23: reassign ownership of every atom in ⟦interval(r)⟧.
        // `iter_atoms_of` borrows only `self.atoms`, so the loop body is free
        // to mutate `owner`, `labels` and `delta` without materializing the
        // atom list. A single `get_mut` per atom serves both the incumbent
        // read and the insert (the incumbent is `Copy`).
        for alpha in self.atoms.iter_atoms_of(interval) {
            let rules = self.owner.get_mut(alpha, rule.source);
            let incumbent = rules.highest();
            rules.insert(rule.priority, rule.id, rule.link);
            // Equal priorities tie-break by rule id — the same order
            // `SourceRules::highest()` uses, so the label update always agrees
            // with later `highest()` reads (splits, removals, queries).
            let wins = incumbent.map_or(true, |r_prime| {
                (r_prime.priority, r_prime.id) < (rule.priority, rule.id)
            });
            if wins {
                match incumbent {
                    // Ownership moved but the forwarding link did not: the
                    // label is unchanged, so the delta-graph must record
                    // nothing (a spurious entry would inflate
                    // `affected_classes` and re-seed the per-update checks).
                    Some(r_prime) if r_prime.link == rule.link => {}
                    Some(r_prime) => {
                        self.labels.insert(rule.link, alpha);
                        delta.add(rule.link, alpha);
                        self.labels.remove(r_prime.link, alpha);
                        delta.remove(r_prime.link, alpha);
                    }
                    None => {
                        self.labels.insert(rule.link, alpha);
                        delta.add(rule.link, alpha);
                    }
                }
            }
        }

        // Secondary lattices: per constrained field, the same bookkeeping
        // and atom splits as above — minus owner and label propagation,
        // which secondary atoms do not carry.
        if let Some(mf) = self.mf.as_mut() {
            mf.acquire(&rule.sec, &mut delta);
        }

        self.rules.insert(rule.id, rule);

        self.finish_update(delta, rule, interval, true)
    }

    /// Algorithm 2: removes the rule with id `id` and returns the per-update
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if no rule with that id is installed. Use
    /// [`DeltaNet::try_remove_rule`] to get an error instead.
    pub fn remove_rule(&mut self, id: RuleId) -> UpdateReport {
        self.try_remove_rule(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DeltaNet::remove_rule`]: an unknown rule id is
    /// reported as an [`UpdateError`] without touching the engine state, so
    /// trace replay survives malformed input (double withdrawals, traces
    /// referencing rules that were never installed).
    pub fn try_remove_rule(&mut self, id: RuleId) -> Result<UpdateReport, UpdateError> {
        let rule = match self.rules.remove(&id) {
            Some(rule) => rule,
            None => return Err(UpdateError::UnknownRule(id)),
        };
        // The same deterministic clipping as the insert path, so the removal
        // touches exactly the bounds and atoms the insertion created.
        let interval = Self::clipped_interval(self.clip, &rule);
        let report = self.apply_remove(rule, interval);
        self.maybe_auto_compact();
        Ok(report)
    }

    /// The per-update core of Algorithm 2, the mirror of
    /// [`DeltaNet::apply_insert`]: the rule has already been detached from
    /// the rule table and its (possibly shard-clipped) interval computed.
    fn apply_remove(&mut self, rule: Rule, interval: Interval) -> UpdateReport {
        let mut delta = DeltaGraph::new();

        // One owner lookup per atom: the post-removal successor is read from
        // the same mutable borrow instead of a second `get_mut`.
        for alpha in self.atoms.iter_atoms_of(interval) {
            let rules = self.owner.get_mut(alpha, rule.source);
            let owner_before = rules.highest();
            let removed = rules.remove(rule.priority, rule.id);
            debug_assert!(removed, "owner store out of sync for {:?}", rule.id);
            let next_owner = rules.highest();
            if owner_before.map(|r| r.id) == Some(rule.id) {
                match next_owner {
                    // The successor forwards on the same link: label and
                    // delta-graph are unchanged (mirror of the insert path).
                    Some(next) if next.link == rule.link => {}
                    Some(next) => {
                        self.labels.remove(rule.link, alpha);
                        delta.remove(rule.link, alpha);
                        self.labels.insert(next.link, alpha);
                        delta.add(next.link, alpha);
                    }
                    None => {
                        self.labels.remove(rule.link, alpha);
                        delta.remove(rule.link, alpha);
                    }
                }
            }
        }

        // Garbage-collection bookkeeping (§3.2.2 remark): bounds that no
        // live rule uses any longer become reclaimable; they are what a
        // compaction pass merges away.
        self.books.release(&self.atoms, interval);
        if let Some(mf) = self.mf.as_mut() {
            mf.release(&rule.sec);
        }

        self.finish_update(delta, rule, interval, false)
    }

    /// The compaction pass of the §3.2.2 garbage-collection remark — the
    /// operation the paper leaves as future work. Every interval bound no
    /// live rule references is removed from `M`, merging its upper
    /// neighbouring atom into the lower one (the two atoms are
    /// indistinguishable to every installed rule, so all owner cells and
    /// labels already agree); the surviving atoms are then renumbered
    /// densely so the id-indexed structures (owner arena, label bitsets,
    /// interval table) shrink back to the live atom count.
    ///
    /// After the pass, [`DeltaNet::reclaimable_bounds`] is `0` and
    /// [`DeltaNet::allocated_atoms`] equals [`DeltaNet::atom_count`].
    ///
    /// Atom ids are *not stable* across a compaction: ids obtained before
    /// the pass (label snapshots, delta-graphs) must not be used afterwards.
    /// [`DeltaNet::last_delta`] is therefore reset to empty. An in-progress
    /// aggregate (automatic compaction is deferred while one is open, so
    /// only an explicit call reaches this case) is *remapped* through the
    /// pass's renumbering table instead of being discarded
    /// ([`DeltaGraph::remap`]): the window's surviving label changes stay
    /// in the aggregate under their new ids, so a consumer of
    /// [`DeltaNet::take_aggregate`] — e.g. an external violation monitor —
    /// still sees every change the window made.
    pub fn compact(&mut self) -> CompactReport {
        let allocated_before = self.atoms.allocated_atoms();
        let bytes_before = self.memory_estimate();

        // Phase 1 — merge: drop every unreferenced interior bound. The
        // freed (upper) atom rides exactly one link per owning source — its
        // cell's highest rule's link — and the kept atom is already on those
        // links, because no live rule separates the two atoms.
        let merged = self.books.merge_dead(&mut self.atoms, |merge| {
            for (_source, rules) in self.owner.sources(merge.freed) {
                if let Some(hp) = rules.highest() {
                    self.labels.remove(hp.link, merge.freed);
                }
            }
            self.owner.clear_atom(merge.freed);
        });

        // Phase 2 — renumber: dense ids again, every structure remapped in
        // lock-step. The monitor's violation sets are atom-id-keyed state
        // like the labels, so they remap too (reclaimed ids drop out; their
        // label-identical survivors keep every violation alive).
        let remap = self.atoms.renumber();
        self.owner.remap(&remap, self.atoms.atom_count());
        self.labels.remap(&remap);
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.remap(&remap);
        }

        // Delta-graph state recorded before the pass refers to stale ids:
        // the last delta is reset (it describes a completed update), but an
        // open aggregate is rewritten in place — discarding it would lose
        // the window's changes for whoever takes it.
        self.last_delta = DeltaGraph::new();
        if let Some(agg) = self.aggregate.as_mut() {
            agg.remap(&remap);
        }

        // Secondary lattices: the same merge + renumber per field.
        let sec_merged = self.mf.as_mut().map_or(0, MultiField::compact);

        self.compactions += 1;
        CompactReport {
            merged_atoms: merged + sec_merged,
            allocated_before,
            allocated_after: self.atoms.allocated_atoms(),
            bytes_before,
            bytes_after: self.memory_estimate(),
        }
    }

    /// Shared tail of both algorithms: run the configured per-update checks
    /// on the delta-graph, feed the monitor, remember the delta, and build
    /// the report. `rule` is the inserted/removed rule and `interval` the
    /// (possibly shard-clipped) interval the update ran on — the
    /// multi-field paths need the rule itself, not just its id.
    fn finish_update(
        &mut self,
        delta: DeltaGraph,
        rule: Rule,
        interval: Interval,
        was_insert: bool,
    ) -> UpdateReport {
        let check = self.config.check_loops_per_update;
        let violations = if let Some(mf) = self.mf.as_mut() {
            // Disjoint-field borrows: the view stays immutable while the
            // walk kernel and the monitor (separate fields) are repaired in
            // place.
            let view = MfView {
                topology: &self.topology,
                owner: &self.owner,
                atoms: &self.atoms,
                rules: &self.rules,
            };
            let monitor = self.monitor.as_mut();
            mf.finish_update(&view, &rule, interval, &delta.splits, check, monitor)
        } else {
            let violations = if check {
                loops::find_loops_from_seeds_in(
                    &mut self.walk_scratch,
                    &self.topology,
                    &self.labels,
                    &self.atoms,
                    &delta.added,
                )
            } else {
                Vec::new()
            };
            if let Some(monitor) = self.monitor.as_mut() {
                monitor.apply_update(&self.topology, &self.labels, &delta);
            }
            violations
        };
        let report = UpdateReport {
            rule_id: Some(rule.id),
            was_insert,
            affected_classes: delta.affected_atom_count(),
            changed_links: delta.changed_links(),
            violations,
        };
        if let Some(agg) = self.aggregate.as_mut() {
            agg.merge(&delta);
        }
        self.last_delta = delta;
        report
    }

    /// Number of atoms (packet classes) currently represented.
    pub fn atom_count(&self) -> usize {
        self.atoms.atom_count()
    }

    /// Number of atoms inside the range this engine owns: for a shard, the
    /// atoms of its clip range (the seeded clip bounds are always keys of
    /// `M`, so this is exact); for a stand-alone engine, simply
    /// [`DeltaNet::atom_count`]. Summing this over the shards of a
    /// [`crate::shard::ShardedDeltaNet`] counts every atom exactly once.
    pub fn owned_atom_count(&self) -> usize {
        match self.clip {
            Some(clip) => self.atoms.atoms_of_count(clip),
            None => self.atom_count(),
        }
    }

    /// Number of interval bounds no longer referenced by any live rule —
    /// atoms that a [`DeltaNet::compact`] pass merges away (the "garbage
    /// collection" remark of §3.2.2), summed across the primary and all
    /// secondary lattices. Maintained incrementally, so reading it — and
    /// the automatic compaction trigger built on it — is O(1).
    pub fn reclaimable_bounds(&self) -> usize {
        self.books.reclaimable() + self.mf.as_ref().map_or(0, MultiField::reclaimable)
    }

    /// Size of the atom-id table: the high-water mark of ids since the last
    /// compaction. The gap to [`DeltaNet::atom_count`] plus
    /// [`DeltaNet::reclaimable_bounds`] is the churn waste a compaction
    /// reclaims.
    pub fn allocated_atoms(&self) -> usize {
        self.atoms.allocated_atoms()
    }

    /// Number of compaction passes run so far (explicit and automatic).
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Heap bytes actually addressed by live state: like
    /// [`DeltaNet::memory_estimate`] but counting entries rather than
    /// allocated capacity, so churn-induced over-allocation is visible as
    /// the gap between the two. A function of the logical state alone,
    /// which makes it one of the fields the persistence round-trip tests
    /// compare exactly between a live engine and its snapshot restore —
    /// derived state (the violation monitor, the walk scratch) is
    /// therefore excluded.
    pub fn live_bytes(&self) -> usize {
        self.atoms.live_bytes()
            + self.owner.live_bytes()
            + self.labels.live_bytes()
            + self.rules.len() * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8)
            + self.books.live_bytes()
            + self.mf.as_ref().map_or(0, MultiField::live_bytes)
    }

    /// Checks the entire data plane for forwarding loops (not just the last
    /// delta-graph). Used by offline audits and the differential tests. On
    /// a multi-field engine labels cannot answer this (see
    /// [`crate::multifield`]), so it is the loop half of a from-scratch
    /// [`DeltaNet::fresh_monitor`], rendered as
    /// [`DeltaNet::active_violations`] renders the live one; violations
    /// still report primary-field packet intervals (the union over all
    /// secondary classes that loop).
    pub fn check_all_loops(&self) -> Vec<netmodel::checker::InvariantViolation> {
        match &self.mf {
            Some(_) => self.fresh_monitor().loop_violations(&self.atoms),
            None => loops::find_all_loops(&self.topology, &self.labels, &self.atoms),
        }
    }

    /// Checks the entire data plane for blackholes: traffic arriving at a
    /// switch that has no rule (forward or drop) for it. The engine-level
    /// entry point for [`crate::blackholes::find_blackholes`], surfaced
    /// end-to-end through `deltanet replay --check blackholes` and
    /// `deltanet audit`. On a multi-field engine, the blackhole half of a
    /// from-scratch monitor, like [`DeltaNet::check_all_loops`].
    pub fn check_all_blackholes(&self) -> Vec<netmodel::checker::InvariantViolation> {
        match &self.mf {
            Some(_) => self.fresh_monitor().blackhole_violations(&self.atoms),
            None => crate::blackholes::find_blackholes(&self.topology, &self.labels, &self.atoms),
        }
    }

    /// The what-if link-failure query (§4.3.2): which packets (atoms) are
    /// using `link`, and which other links carry any of those packets.
    pub fn link_failure_impact(&self, link: LinkId, check_loops: bool) -> WhatIfReport {
        let affected = self.labels.get(link);
        let affected_packets = normalize(
            affected
                .iter()
                .map(|a| self.atoms.atom_interval(a))
                .collect::<Vec<_>>(),
        );
        let mut affected_links: Vec<LinkId> = Vec::new();
        for (other, label) in self.labels.iter() {
            if other != link && label.intersects(affected) {
                affected_links.push(other);
            }
        }
        let violations = if check_loops {
            loops::find_loops_for_atoms(&self.topology, &self.labels, &self.atoms, affected)
        } else {
            Vec::new()
        };
        WhatIfReport {
            link: Some(link),
            affected_classes: affected.len(),
            affected_packets,
            affected_links,
            violations,
        }
    }

    /// Estimated heap memory used by the engine's internal state.
    pub fn memory_estimate(&self) -> usize {
        self.atoms.memory_bytes()
            + self.owner.memory_bytes()
            + self.labels.memory_bytes()
            + self.rules.capacity()
                * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8)
            + self.books.memory_bytes()
            + self.mf.as_ref().map_or(0, MultiField::memory_bytes)
    }

    /// This engine's configuration.
    pub fn config(&self) -> DeltaNetConfig {
        self.config
    }

    /// Every field's lattice with its §3.2.2 books, primary first
    /// (snapshot export).
    pub(crate) fn lattices(&self) -> impl Iterator<Item = (&AtomMap, &BoundRefs)> {
        let secondary = self.mf.iter().flat_map(MultiField::lattices);
        std::iter::once((&self.atoms, &self.books)).chain(secondary)
    }

    /// Assembles an engine from its persistent parts — empty ones for a new
    /// engine, a snapshot's for a restored one — around fresh transient
    /// state. Restored parts must come from a consistent export of one
    /// engine: `books` already contains the clip pins of a shard (so this
    /// constructor must *not* re-seed them the way [`DeltaNet::clipped`]
    /// does), and `compactions` carries the exported counter verbatim.
    pub(crate) fn from_parts(parts: EngineParts) -> DeltaNet {
        DeltaNet {
            mf: MultiField::new(parts.secondary, parts.topology.node_count()),
            topology: parts.topology,
            config: parts.config,
            atoms: parts.atoms,
            owner: parts.owner,
            labels: parts.labels,
            rules: parts.rules,
            books: parts.books,
            compactions: parts.compactions,
            last_delta: DeltaGraph::new(),
            aggregate: None,
            pair_scratch: Vec::with_capacity(2),
            walk_scratch: WalkScratch::default(),
            clip: parts.clip,
            monitor: parts.monitor,
        }
    }
}

/// The persistent pieces of one engine, handed to [`DeltaNet::from_parts`]
/// by [`DeltaNet::new`] and by the snapshot restore path
/// ([`crate::persist`]). Transient per-update state (last delta-graph, open
/// aggregation window, scratch buffers) is intentionally absent: a snapshot
/// is only taken between updates, where that state is empty.
pub(crate) struct EngineParts {
    pub topology: Topology,
    pub config: DeltaNetConfig,
    pub clip: Option<Interval>,
    pub atoms: AtomMap,
    pub owner: Owner,
    pub labels: Labels,
    pub rules: HashMap<RuleId, Rule>,
    pub books: BoundRefs,
    /// Per secondary field, its lattice and books.
    pub secondary: Vec<(AtomMap, BoundRefs)>,
    pub compactions: usize,
    pub monitor: Option<ViolationMonitor>,
}

impl Checker for DeltaNet {
    fn name(&self) -> &'static str {
        "delta-net"
    }

    fn try_apply(&mut self, op: &Op) -> Result<UpdateReport, UpdateError> {
        match op {
            Op::Insert(rule) => self.try_insert_rule(*rule),
            Op::Remove(id) => self.try_remove_rule(*id),
        }
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

    fn active_violations(&self) -> Option<Vec<netmodel::checker::InvariantViolation>> {
        DeltaNet::active_violations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::interval::Interval;
    use netmodel::ip::IpPrefix;
    use netmodel::rule::Action;
    use netmodel::topology::NodeId;

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// The four-switch network of §2.1 (Figures 1, 2 and 4).
    struct PaperExample {
        net: DeltaNet,
        s: Vec<NodeId>,
        l12: LinkId,
        l23: LinkId,
        l34: LinkId,
        l14: LinkId,
    }

    fn paper_example() -> PaperExample {
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 5); // s[0] unused so names line up with s1..s4
        let l12 = topo.add_link(s[1], s[2]);
        let l23 = topo.add_link(s[2], s[3]);
        let l34 = topo.add_link(s[3], s[4]);
        let l14 = topo.add_link(s[1], s[4]);
        let net = DeltaNet::with_topology(topo);
        PaperExample {
            net,
            s,
            l12,
            l23,
            l34,
            l14,
        }
    }

    /// Rules in the spirit of Figure 2: overlapping prefixes on s1, s2, s3,
    /// plus the higher-priority r4 inserted on s1 towards s4.
    fn figure2_rules(ex: &PaperExample) -> (Rule, Rule, Rule, Rule) {
        // r1 on s1 via l12, matches [0:16)
        // r2 on s2 via l23, matches [8:12)
        // r3 on s3 via l34, matches [8:16)
        // r4 on s1 via l14, matches [8:16), higher priority than r1.
        let r1 = Rule::forward(RuleId(1), IpPrefix::new(0, 28, 32), 10, ex.s[1], ex.l12);
        let r2 = Rule::forward(RuleId(2), IpPrefix::new(8, 30, 32), 10, ex.s[2], ex.l23);
        let r3 = Rule::forward(RuleId(3), IpPrefix::new(8, 29, 32), 10, ex.s[3], ex.l34);
        let r4 = Rule::forward(RuleId(4), IpPrefix::new(8, 29, 32), 20, ex.s[1], ex.l14);
        (r1, r2, r3, r4)
    }

    #[test]
    fn insert_single_rule_labels_its_link() {
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        let report = ex.net.insert_rule(r1);
        assert!(report.was_insert);
        assert_eq!(report.rule_id, Some(RuleId(1)));
        assert!(report.violations.is_empty());
        assert!(report.affected_classes >= 1);
        // Every atom of r1's interval is on l12.
        let atoms = ex.net.atoms().atoms_of(r1.interval());
        for a in atoms {
            assert!(ex.net.label(ex.l12).contains(a));
        }
        assert_eq!(ex.net.rule_count(), 1);
    }

    #[test]
    fn paper_example_higher_priority_rule_steals_atoms() {
        // §2.1: when r4 (higher priority, s1 -> s4) is inserted, the atoms it
        // covers move from the edge s1->s2 (r1's link) to s1->s4.
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        ex.net.insert_rule(r2);
        ex.net.insert_rule(r3);

        let before_l12 = ex.net.label(ex.l12).len();
        let report = ex.net.insert_rule(r4);
        assert!(report.violations.is_empty());

        // r4's atoms are now on l14 ...
        for a in ex.net.atoms().atoms_of(r4.interval()) {
            assert!(
                ex.net.label(ex.l14).contains(a),
                "atom {a:?} missing on l14"
            );
            // ... and no longer on l12 (they were stolen from r1).
            assert!(!ex.net.label(ex.l12).contains(a), "atom {a:?} still on l12");
        }
        // r1 keeps only the atoms below r4's range: [0:8).
        let l12_label = ex.net.label(ex.l12);
        assert!(l12_label.len() < before_l12 + 2);
        let kept: Vec<Interval> = l12_label
            .iter()
            .map(|a| ex.net.atoms().atom_interval(a))
            .collect();
        assert_eq!(normalize(kept), vec![Interval::new(0, 8)]);
        // The changed links are exactly l14 (gains) and l12 (losses).
        assert_eq!(report.changed_links, vec![ex.l12, ex.l14]);
    }

    #[test]
    fn lower_priority_rule_does_not_steal() {
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        // A lower-priority overlapping rule on the same switch gets nothing.
        let weak = Rule::forward(RuleId(9), IpPrefix::new(0, 30, 32), 1, ex.s[1], ex.l14);
        let report = ex.net.insert_rule(weak);
        assert_eq!(report.affected_classes, 0);
        assert!(ex.net.label(ex.l14).is_empty());
        assert!(report.changed_links.is_empty());
        // But it is recorded and will take over when r1 is removed.
        ex.net.remove_rule(RuleId(1));
        assert!(!ex.net.label(ex.l14).is_empty());
        assert!(ex.net.label(ex.l12).is_empty());
    }

    #[test]
    fn remove_rule_restores_previous_owner() {
        let mut ex = paper_example();
        let (r1, _, _, r4) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        ex.net.insert_rule(r4);
        // Removing r4 hands its atoms back to r1.
        let report = ex.net.remove_rule(RuleId(4));
        assert!(!report.was_insert);
        assert!(report.affected_classes >= 1);
        for a in ex.net.atoms().atoms_of(r4.interval()) {
            assert!(ex.net.label(ex.l12).contains(a));
            assert!(!ex.net.label(ex.l14).contains(a));
        }
        assert_eq!(ex.net.rule_count(), 1);
    }

    #[test]
    fn remove_non_owner_rule_changes_nothing() {
        let mut ex = paper_example();
        let (r1, _, _, r4) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        ex.net.insert_rule(r4);
        // r1 owns only [0:4); removing it must not disturb r4's atoms.
        let report = ex.net.remove_rule(RuleId(1));
        for a in ex.net.atoms().atoms_of(r4.interval()) {
            assert!(ex.net.label(ex.l14).contains(a));
        }
        // Only l12 lost atoms; nothing was added anywhere.
        assert_eq!(report.changed_links, vec![ex.l12]);
        assert!(ex.net.last_delta().added.is_empty());
    }

    #[test]
    fn atom_splits_propagate_to_other_switches() {
        // A rule on s2 whose interval splits an atom owned by a rule on s1
        // must leave s1's forwarding behaviour unchanged but refine its
        // label to include the new atom.
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1); // matches [0:16) on s1
        let narrow = Rule::forward(RuleId(7), IpPrefix::new(6, 31, 32), 5, ex.s[2], ex.l23);
        ex.net.insert_rule(narrow); // [6:8) on s2 splits s1's atoms
        let l12_intervals: Vec<Interval> = ex
            .net
            .label(ex.l12)
            .iter()
            .map(|a| ex.net.atoms().atom_interval(a))
            .collect();
        assert_eq!(normalize(l12_intervals), vec![Interval::new(0, 16)]);
    }

    #[test]
    fn loop_detection_on_insert() {
        // Create a 2-node loop: s1 -> s2 for [0:16), then s2 -> s1 for the
        // same range. The second insertion must report a loop.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        let r1 = Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab);
        let r2 = Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba);
        assert!(net.insert_rule(r1).violations.is_empty());
        let report = net.insert_rule(r2);
        assert!(report.has_loop());
        // Removing either rule clears the loop.
        net.remove_rule(RuleId(1));
        assert!(net.check_all_loops().is_empty());
    }

    #[test]
    fn loop_check_can_be_disabled() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::new(
            topo,
            DeltaNetConfig {
                check_loops_per_update: false,
                ..DeltaNetConfig::default()
            },
        );
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        let report = net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        assert!(report.violations.is_empty());
        // The loop is still there, just not checked per update.
        assert_eq!(net.check_all_loops().len(), 1);
    }

    #[test]
    fn drop_rule_prevents_loop() {
        // A high-priority drop rule shields part of the space from a loop.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let drop_a = topo.drop_link(a);
        let mut net = DeltaNet::with_topology(topo);
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::drop(RuleId(3), prefix("10.0.0.0/8"), 9, a, drop_a));
        let report = net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        // Packets reaching b loop back to a, where they are dropped: no loop.
        assert!(!report.has_loop(), "drop rule should break the loop");
        assert_eq!(net.check_all_loops().len(), 0);
        // Removing the drop rule re-creates the loop.
        let report = net.remove_rule(RuleId(3));
        assert!(report.has_loop());
    }

    #[test]
    fn whatif_link_failure_reports_affected_flows() {
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        for r in [r1, r2, r3, r4] {
            ex.net.insert_rule(r);
        }
        let report = ex.net.link_failure_impact(ex.l14, false);
        assert_eq!(report.link, Some(ex.l14));
        // r4 owns [8:16) at s1, so those packets are affected.
        assert_eq!(report.affected_packets, vec![Interval::new(8, 16)]);
        assert!(report.affected_classes >= 1);
        // The overlapping flows on s2->s3 and s3->s4 are part of the impact.
        assert!(report.affected_links.contains(&ex.l23));
        assert!(report.affected_links.contains(&ex.l34));
        assert!(!report.affected_links.contains(&ex.l14));
        // A link carrying nothing is unaffected.
        let empty = ex.net.link_failure_impact(ex.l12, true);
        let l12_atoms = ex.net.label(ex.l12).len();
        assert_eq!(empty.affected_classes, l12_atoms);
    }

    #[test]
    fn aggregate_delta_graph_collects_multiple_updates() {
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        ex.net.begin_aggregate();
        for r in [r1, r2, r3, r4] {
            ex.net.insert_rule(r);
        }
        let agg = ex.net.take_aggregate();
        assert!(!agg.is_empty());
        // The aggregate spans every link that ever gained an atom.
        let links = agg.changed_links();
        assert!(links.contains(&ex.l12));
        assert!(links.contains(&ex.l14));
        assert!(links.contains(&ex.l23));
        assert!(links.contains(&ex.l34));
        // A second take returns an empty aggregate.
        assert!(ex.net.take_aggregate().is_empty());
    }

    #[test]
    fn checker_trait_replay_roundtrip() {
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        let ops = vec![
            Op::Insert(r1),
            Op::Insert(r2),
            Op::Insert(r3),
            Op::Insert(r4),
            Op::Remove(RuleId(4)),
            Op::Remove(RuleId(3)),
            Op::Remove(RuleId(2)),
            Op::Remove(RuleId(1)),
        ];
        let (reports, failure) = ex.net.apply_window(&ops);
        assert_eq!(failure, None);
        assert_eq!(reports.len(), 8);
        assert_eq!(ex.net.rule_count(), 0);
        // After removing everything no link carries any atom.
        for link in ex.net.topology().links().to_vec() {
            assert!(
                ex.net.label(link.id).is_empty(),
                "{:?} still labelled",
                link.id
            );
        }
        // Atoms are never reclaimed (matching the paper), but all their
        // bounds are now garbage.
        assert!(ex.net.atom_count() >= 1);
        assert!(ex.net.reclaimable_bounds() > 0);
        assert_eq!(ex.net.name(), "delta-net");
        assert!(ex.net.memory_bytes() > 0);
        assert_eq!(ex.net.class_count(), ex.net.atom_count());
    }

    #[test]
    fn reclaimable_bounds_zero_while_rules_live() {
        let mut ex = paper_example();
        let (r1, r2, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        ex.net.insert_rule(r2);
        assert_eq!(ex.net.reclaimable_bounds(), 0);
        ex.net.remove_rule(RuleId(2));
        assert!(ex.net.reclaimable_bounds() > 0);
    }

    #[test]
    fn insert_is_idempotent_per_atom_set_regardless_of_order() {
        // The final labels must not depend on insertion order (priorities
        // fully determine ownership).
        let mut ex1 = paper_example();
        let mut ex2 = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex1);
        for r in [r1, r2, r3, r4] {
            ex1.net.insert_rule(r);
        }
        for r in [r4, r3, r2, r1] {
            ex2.net.insert_rule(r);
        }
        for link in [ex1.l12, ex1.l23, ex1.l34, ex1.l14] {
            let a: Vec<Interval> = normalize(
                ex1.net
                    .label(link)
                    .iter()
                    .map(|x| ex1.net.atoms().atom_interval(x))
                    .collect(),
            );
            let b: Vec<Interval> = normalize(
                ex2.net
                    .label(link)
                    .iter()
                    .map(|x| ex2.net.atoms().atom_interval(x))
                    .collect(),
            );
            assert_eq!(a, b, "labels differ on {link:?}");
        }
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        ex.net.insert_rule(r1);
    }

    #[test]
    #[should_panic(expected = "unknown rule")]
    fn unknown_removal_panics() {
        let mut ex = paper_example();
        ex.net.remove_rule(RuleId(77));
    }

    #[test]
    fn same_link_takeover_records_no_delta() {
        // Satellite regression: a higher-priority rule that forwards on the
        // *same* link as the incumbent changes no label, so the delta-graph
        // (and affected_classes) must stay empty — otherwise per-update loop
        // checks are re-seeded for nothing.
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        let shadow = Rule::forward(RuleId(8), IpPrefix::new(0, 28, 32), 50, ex.s[1], ex.l12);
        let report = ex.net.insert_rule(shadow);
        assert_eq!(report.affected_classes, 0);
        assert!(report.changed_links.is_empty());
        assert!(ex.net.last_delta().is_empty());
        // Same on removal: ownership falls back to r1 on the same link.
        let report = ex.net.remove_rule(RuleId(8));
        assert_eq!(report.affected_classes, 0);
        assert!(report.changed_links.is_empty());
        assert!(ex.net.last_delta().is_empty());
        // The label itself never flickered.
        for a in ex.net.atoms().atoms_of(r1.interval()) {
            assert!(ex.net.label(ex.l12).contains(a));
        }
    }

    #[test]
    fn equal_priority_tie_breaks_by_rule_id_like_the_owner_store() {
        // Two equal-priority overlapping rules at one switch: the insert-time
        // `wins` predicate must pick the same winner as
        // `SourceRules::highest()` (higher rule id), or labels and owner reads
        // diverge on later splits/removals.
        let mut ex = paper_example();
        let s1 = ex.s[1];
        let owner_link = |net: &DeltaNet, atom| {
            let cell = net.owner().get(atom, s1)?;
            cell.highest().map(|rule| rule.link)
        };
        let lo_id = Rule::forward(RuleId(3), IpPrefix::new(0, 28, 32), 10, ex.s[1], ex.l12);
        let hi_id = Rule::forward(RuleId(9), IpPrefix::new(0, 28, 32), 10, ex.s[1], ex.l14);
        ex.net.insert_rule(lo_id);
        ex.net.insert_rule(hi_id);
        // The higher id owns every atom, and the labels agree with the owner
        // structure's highest() on every (atom, source).
        for a in ex.net.atoms().atoms_of(hi_id.interval()) {
            assert!(ex.net.label(ex.l14).contains(a), "labels disagree on {a:?}");
            assert!(!ex.net.label(ex.l12).contains(a));
            assert_eq!(owner_link(&ex.net, a), Some(ex.l14));
        }
        // Removing the winner hands ownership back, consistently again.
        ex.net.remove_rule(RuleId(9));
        for a in ex.net.atoms().atoms_of(lo_id.interval()) {
            assert!(ex.net.label(ex.l12).contains(a));
            assert!(!ex.net.label(ex.l14).contains(a));
            assert_eq!(owner_link(&ex.net, a), Some(ex.l12));
        }
        // Insertion order must not matter.
        let mut other = paper_example();
        other.net.insert_rule(hi_id);
        other.net.insert_rule(lo_id);
        for a in other.net.atoms().atoms_of(hi_id.interval()) {
            assert!(other.net.label(other.l14).contains(a));
            assert!(!other.net.label(other.l12).contains(a));
        }
    }

    #[test]
    fn try_remove_unknown_rule_is_an_error_not_a_panic() {
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        let before_atoms = ex.net.atom_count();
        let err = ex.net.try_remove_rule(RuleId(77)).unwrap_err();
        assert_eq!(err, netmodel::checker::UpdateError::UnknownRule(RuleId(77)));
        assert!(err.to_string().contains("unknown rule"));
        // Nothing changed.
        assert_eq!(ex.net.rule_count(), 1);
        assert_eq!(ex.net.atom_count(), before_atoms);
        // And the engine keeps working afterwards.
        assert!(ex.net.try_remove_rule(RuleId(1)).is_ok());
    }

    #[test]
    fn clipped_engine_rejects_rules_outside_its_range() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let l = topo.add_link(a, b);
        let half = Interval::new(0, 1u128 << 31);
        let mut net = DeltaNet::clipped(topo, DeltaNetConfig::default(), half);
        assert_eq!(net.clip(), Some(half));
        // Entirely outside the shard range: a clean error, no state change.
        let outside = Rule::forward(RuleId(1), prefix("128.0.0.0/1"), 1, a, l);
        let err = net.try_insert_rule(outside).unwrap_err();
        assert_eq!(
            err,
            netmodel::checker::UpdateError::OutsideShard {
                rule: RuleId(1),
                range: half,
            }
        );
        assert!(err.to_string().contains("does not intersect shard range"));
        assert_eq!(net.rule_count(), 0);
        // Straddling the range: clipped to the owned half.
        let wide = Rule::forward(RuleId(2), prefix("0.0.0.0/0"), 1, a, l);
        net.insert_rule(wide);
        assert_eq!(net.owned_atom_count(), 1);
        let labelled: Vec<Interval> = net
            .label(l)
            .iter()
            .map(|x| net.atoms().atom_interval(x))
            .collect();
        assert_eq!(normalize(labelled), vec![half]);
        // Removal recomputes the same clipping.
        net.remove_rule(RuleId(2));
        assert!(net.label(l).is_empty());
    }

    #[test]
    fn try_insert_duplicate_and_bad_link_are_errors() {
        let mut ex = paper_example();
        let (r1, _, _, _) = figure2_rules(&ex);
        ex.net.insert_rule(r1);
        let err = ex.net.try_insert_rule(r1).unwrap_err();
        assert!(err.to_string().contains("inserted twice"));
        let mut bad = r1;
        bad.id = RuleId(99);
        bad.link = LinkId(10_000);
        let err = ex.net.try_insert_rule(bad).unwrap_err();
        assert!(err.to_string().contains("unknown link"));
        assert_eq!(ex.net.rule_count(), 1);
    }

    #[test]
    fn try_replay_reports_failing_op_index() {
        use netmodel::checker::Checker as _;
        let mut ex = paper_example();
        let (r1, r2, _, _) = figure2_rules(&ex);
        let ops = vec![
            Op::Insert(r1),
            Op::Insert(r2),
            Op::Remove(RuleId(42)), // bad
            Op::Remove(RuleId(1)),
        ];
        let (reports, failure) = ex.net.apply_window(&ops);
        let err = failure.expect("op 2 is malformed");
        assert_eq!(reports.len(), 2, "one report per applied op");
        assert_eq!(err.index, 2);
        assert_eq!(
            err.error,
            netmodel::checker::UpdateError::UnknownRule(RuleId(42))
        );
        // The prefix before the bad op stayed applied.
        assert_eq!(ex.net.rule_count(), 2);
    }

    #[test]
    fn compact_reclaims_atoms_and_preserves_labels() {
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        for r in [r1, r2, r3, r4] {
            ex.net.insert_rule(r);
        }
        // Narrow churn rule splits atoms, then disappears.
        let churn = Rule::forward(RuleId(50), IpPrefix::new(9, 31, 32), 99, ex.s[2], ex.l23);
        ex.net.insert_rule(churn);
        ex.net.remove_rule(RuleId(50));
        assert!(ex.net.reclaimable_bounds() > 0);
        let allocated_before = ex.net.allocated_atoms();

        let labels_before: Vec<(LinkId, Vec<Interval>)> = [ex.l12, ex.l23, ex.l34, ex.l14]
            .into_iter()
            .map(|l| {
                let ivs: Vec<Interval> = ex
                    .net
                    .label(l)
                    .iter()
                    .map(|a| ex.net.atoms().atom_interval(a))
                    .collect();
                (l, normalize(ivs))
            })
            .collect();

        let report = ex.net.compact();
        assert!(report.merged_atoms > 0);
        assert_eq!(report.allocated_before, allocated_before);
        assert_eq!(report.allocated_after, ex.net.atom_count());
        assert_eq!(ex.net.reclaimable_bounds(), 0);
        assert_eq!(ex.net.allocated_atoms(), ex.net.atom_count());
        assert_eq!(ex.net.compactions(), 1);
        assert!(ex.net.last_delta().is_empty());

        // Same normalized forwarding behaviour, ids renumbered densely.
        for (l, before) in labels_before {
            let after: Vec<Interval> = ex
                .net
                .label(l)
                .iter()
                .map(|a| ex.net.atoms().atom_interval(a))
                .collect();
            assert_eq!(normalize(after), before, "labels changed on {l:?}");
            for a in ex.net.label(l).iter() {
                assert!(a.index() < ex.net.atom_count(), "stale id {a:?} on {l:?}");
            }
        }
        // Updates keep working after the pass.
        ex.net.remove_rule(RuleId(4));
        for a in ex.net.atoms().atoms_of(r1.interval()) {
            assert!(ex.net.label(ex.l12).contains(a));
        }
    }

    #[test]
    fn compact_after_removing_everything_returns_to_one_atom() {
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        for r in [r1, r2, r3, r4] {
            ex.net.insert_rule(r);
        }
        for id in [1, 2, 3, 4] {
            ex.net.remove_rule(RuleId(id));
        }
        assert!(ex.net.reclaimable_bounds() > 0);
        ex.net.compact();
        assert_eq!(ex.net.atom_count(), 1);
        assert_eq!(ex.net.allocated_atoms(), 1);
        assert_eq!(ex.net.reclaimable_bounds(), 0);
        for link in ex.net.topology().links().to_vec() {
            assert!(ex.net.label(link.id).is_empty());
        }
        // The engine is fully reusable after a to-empty compaction.
        ex.net.insert_rule(r1);
        assert!(!ex.net.label(ex.l12).is_empty());
    }

    #[test]
    fn compact_threshold_triggers_automatically_and_bounds_growth() {
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 3);
        let l12 = topo.add_link(s[1], s[2]);
        let mut net = DeltaNet::new(
            topo,
            DeltaNetConfig {
                check_loops_per_update: false,
                compact_threshold: Some(4),
                ..Default::default()
            },
        );
        // A long-lived rule plus many short-lived narrow rules with fresh
        // bounds: without compaction allocated_atoms would grow by ~2 per
        // flap.
        let base = Rule::forward(RuleId(0), IpPrefix::new(0, 8, 32), 1, s[1], l12);
        net.insert_rule(base);
        for i in 0..200u64 {
            let p = IpPrefix::new(u128::from(i) * 64, 27, 32);
            let r = Rule::forward(RuleId(1000 + i), p, 10, s[1], l12);
            net.insert_rule(r);
            net.remove_rule(r.id);
        }
        assert!(net.compactions() > 0, "threshold never triggered");
        // Bounded by the threshold, not by the 200 flaps.
        assert!(
            net.allocated_atoms() <= net.atom_count() + 2 * 4 + 2,
            "allocated_atoms {} not reclaimed (atoms {})",
            net.allocated_atoms(),
            net.atom_count()
        );
        assert!(net.reclaimable_bounds() < 4 + 2);
    }

    #[test]
    fn begin_aggregate_defers_automatic_compaction() {
        let mut ex = paper_example();
        ex.net.config.compact_threshold = Some(1);
        let (r1, _, _, r4) = figure2_rules(&ex);
        ex.net.begin_aggregate();
        ex.net.insert_rule(r1);
        ex.net.insert_rule(r4);
        ex.net.remove_rule(RuleId(4));
        ex.net.remove_rule(RuleId(1));
        // Garbage accrued but no pass ran while aggregating.
        assert!(ex.net.reclaimable_bounds() > 0);
        assert_eq!(ex.net.compactions(), 0);
        // The deferred pass runs when the aggregate is taken, after the
        // returned delta-graph (which holds pre-compaction ids) is detached.
        let agg = ex.net.take_aggregate();
        assert!(!agg.is_empty());
        assert_eq!(ex.net.compactions(), 1);
        assert_eq!(ex.net.reclaimable_bounds(), 0);
        assert_eq!(ex.net.atom_count(), 1);
    }

    #[test]
    fn explicit_compact_inside_aggregation_window_remaps_the_aggregate() {
        // Regression: an explicit `compact()` while an aggregation window is
        // open used to clear the pending aggregate along with `last_delta`,
        // silently dropping every change recorded so far in the window. The
        // pass must instead remap the aggregate's atom ids so the window
        // survives renumbering.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        let mut external = ViolationMonitor::new();

        net.begin_aggregate();
        // A loop on 10/8 recorded in the open window.
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        // Churn a narrower rule so its bounds go dead and a compaction pass
        // has atoms to renumber.
        net.insert_rule(Rule::forward(RuleId(3), prefix("10.128.0.0/9"), 9, a, ab));
        net.remove_rule(RuleId(3));
        assert!(net.reclaimable_bounds() > 0);
        let report = net.compact();
        assert!(report.merged_atoms > 0);
        assert!(report.allocated_after < report.allocated_before);
        // The window continues across the pass.
        net.insert_rule(Rule::forward(RuleId(4), prefix("192.0.0.0/8"), 1, a, ab));
        let agg = net.take_aggregate();

        // The pre-compaction changes are still in the aggregate, and every
        // atom id in it is valid post-renumbering.
        assert!(!agg.is_empty());
        let allocated = net.allocated_atoms() as u32;
        for &(_, atom) in agg.added.iter().chain(agg.removed.iter()) {
            assert!(atom.0 < allocated, "stale atom id {atom:?} in aggregate");
        }
        // The remapped aggregate must repair a monitor bit-identically to a
        // from-scratch rescan — the differential that fails if the window's
        // contents were dropped or left holding stale ids.
        external.apply_update(net.topology(), net.labels(), &agg);
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(external.active_violations(net.atoms()), expect);
        assert_eq!(external.loop_count(), 1);
    }

    #[test]
    fn reclaimable_counter_matches_first_principles_recount() {
        // The O(1) counter must agree with a from-scratch recount (interior
        // bounds of M not used by any live rule) through arbitrary churn.
        // Per lattice — the primary and every secondary field — so the
        // per-field sum in `reclaimable_bounds()` is checked too.
        let recount = |net: &DeltaNet| {
            let dead = |atoms: &AtomMap, held: Vec<Interval>| {
                let referenced: std::collections::HashSet<u128> =
                    held.iter().flat_map(|iv| [iv.lo(), iv.hi()]).collect();
                atoms
                    .interior_bounds()
                    .filter(|b| !referenced.contains(b))
                    .count()
            };
            let secondary = net.secondary_atoms().iter().enumerate();
            dead(net.atoms(), net.rules().map(Rule::interval).collect())
                + secondary
                    .map(|(field, atoms)| {
                        dead(
                            atoms,
                            net.rules().filter_map(|r| r.sec.get(field)).collect(),
                        )
                    })
                    .sum::<usize>()
        };
        let mut ex = paper_example();
        let (r1, r2, r3, r4) = figure2_rules(&ex);
        for r in [r1, r2, r3, r4] {
            ex.net.insert_rule(r);
            assert_eq!(ex.net.reclaimable_bounds(), recount(&ex.net));
        }
        for id in [2, 4, 1, 3] {
            ex.net.remove_rule(RuleId(id));
            assert_eq!(ex.net.reclaimable_bounds(), recount(&ex.net));
        }
        // Re-inserting a rule over dead bounds revives them.
        ex.net.insert_rule(r2);
        assert_eq!(ex.net.reclaimable_bounds(), recount(&ex.net));

        // The same rules on a `dst × 8 × 6` engine, constraining neither,
        // one or both secondary fields, with a compaction on the way.
        use netmodel::header::SecondaryMatch;
        let topology = ex.net.topology().clone();
        let config = DeltaNetConfig::default().with_secondary(&[8, 6]);
        let mut net = DeltaNet::new(topology, config);
        let sec = [
            SecondaryMatch::new(&[Interval::new(16, 32), Interval::new(0, 8)]),
            SecondaryMatch::new(&[Interval::new(16, 64)]),
            SecondaryMatch::default(),
            SecondaryMatch::new(&[Interval::new(32, 64), Interval::new(8, 24)]),
        ];
        let rules = [r1, r2, r3, r4].map(|r| r.with_secondary(sec[r.id.0 as usize - 1]));
        for steps in [[0, 1, 2, 3], [1, 3, 0, 2]] {
            for i in steps {
                net.insert_rule(rules[i]);
                assert_eq!(net.reclaimable_bounds(), recount(&net));
            }
            for i in [1, 3, 0, 2] {
                net.remove_rule(rules[i].id);
                assert_eq!(net.reclaimable_bounds(), recount(&net));
                if i == 3 {
                    assert!(
                        net.reclaimable_bounds() > 2,
                        "both kinds of lattice hold dead bounds"
                    );
                    net.compact();
                    assert_eq!(net.reclaimable_bounds(), 0);
                }
            }
        }
    }

    #[test]
    fn multifield_memory_accounting_exceeds_single_field_projection() {
        // Both memory metrics must see the secondary lattices: a monitored
        // multi-field engine reports strictly more than its single-field
        // projection (the same rules with the secondary constraints
        // stripped), by the secondary `AtomMap`s and bound refcounts.
        use netmodel::header::SecondaryMatch;
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let config = DeltaNetConfig {
            field_width: 8,
            monitor_violations: true,
            ..DeltaNetConfig::default()
        };
        let mut multi = DeltaNet::new(topo.clone(), config.with_secondary(&[6]));
        let mut single = DeltaNet::new(topo, config);
        let rules = [
            Rule::forward(RuleId(1), IpPrefix::new(0, 4, 8), 5, a, ab),
            Rule::forward(RuleId(2), IpPrefix::new(0, 4, 8), 5, b, ba),
            Rule::forward(RuleId(3), IpPrefix::new(64, 2, 8), 5, a, ab),
        ];
        let sec = [
            SecondaryMatch::new(&[Interval::new(8, 16)]),
            SecondaryMatch::new(&[Interval::new(2, 40)]),
            SecondaryMatch::default(),
        ];
        for (rule, sec) in rules.iter().zip(sec) {
            multi.insert_rule(rule.with_secondary(sec));
            single.insert_rule(*rule);
        }
        assert!(multi.active_violations().is_some());
        assert!(
            multi.live_bytes() > single.live_bytes(),
            "live_bytes: multi {} <= single {}",
            multi.live_bytes(),
            single.live_bytes()
        );
        assert!(
            multi.memory_estimate() > single.memory_estimate(),
            "memory_estimate: multi {} <= single {}",
            multi.memory_estimate(),
            single.memory_estimate()
        );
    }

    #[test]
    fn drop_rules_have_action_recorded() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let dl = topo.drop_link(a);
        let mut net = DeltaNet::with_topology(topo);
        let r = Rule::drop(RuleId(1), prefix("10.0.0.0/8"), 5, a, dl);
        net.insert_rule(r);
        assert_eq!(net.rule(RuleId(1)).unwrap().action, Action::Drop);
        assert!(net.rule(RuleId(2)).is_none());
        assert_eq!(net.rules().count(), 1);
    }
}

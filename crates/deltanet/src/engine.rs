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
//! `crate::multifield::MultiField` — a lattice and books per secondary
//! field plus the cross-field walk kernel — and dispatches every check
//! through it. The default single-field configuration holds `None`: every
//! multi-field statement in this file is behind an `if let Some(mf)`, and
//! atoms, owners, and labels behave bit-identically to the paper's
//! presentation.

use crate::atoms::{AddressOrder, AtomId, AtomMap, BoundRefs, DeltaPair};
use crate::delta_graph::DeltaGraph;
use crate::labels::Labels;
use crate::loops::{self, WalkScratch};
use crate::monitor::ViolationMonitor;
use crate::multifield::{MfView, MultiField};
use crate::owner::Owner;
use netmodel::checker::{Checker, ReplayError, UpdateError, UpdateReport, WhatIfReport};
use netmodel::header::{HeaderSpace, MAX_SECONDARY_FIELDS};
use netmodel::interval::Interval;
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use netmodel::trace::Op;
use std::collections::HashMap;
use std::sync::OnceLock;

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
    /// [`DeltaNet::compact`] pass. `None` (the default) matches the paper's
    /// presentation: atoms only ever split, and memory grows monotonically
    /// under rule churn.
    pub compact_threshold: Option<usize>,
    /// Whether to maintain the current set of forwarding-loop and blackhole
    /// violations as live state, repaired incrementally by every update
    /// (see [`crate::monitor::ViolationMonitor`]). Off by
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
    /// Scratch buffer for the delta-pairs of an update, reused across
    /// updates so the steady-state hot path performs no per-update
    /// allocation. Invariant: empty between updates (taken at the start of
    /// `insert_rule`, cleared and put back before the update returns).
    pair_scratch: Vec<DeltaPair>,
    /// Scratch of the successor walks of the per-update loop check, reused
    /// for the same reason (see [`loops::WalkScratch`]).
    walk_scratch: WalkScratch,
    /// When `Some(range)`, this engine owns only that contiguous slice of
    /// the address space: every applied rule interval is intersected with it
    /// before the update core runs. This is the per-shard building block of
    /// [`crate::shard::ShardedDeltaNet`]; a stand-alone engine has `None`.
    clip: Option<Interval>,
    /// The incrementally maintained violation state, when monitoring is on
    /// ([`DeltaNetConfig::monitor_violations`] or
    /// [`DeltaNet::enable_monitor`]). Single-field, repaired once per window
    /// from `window` ([`DeltaNet::repair_window`]); multi-field, per update
    /// in [`DeltaNet::finish_update`]. Remapped across [`DeltaNet::compact`].
    monitor: Option<ViolationMonitor>,
    /// What the open window owes the monitor of the labels — a single-field
    /// `monitor`, or `query_loops` once seeded. Empty between windows.
    window: WindowRecord,
    /// The what-if query's loop state where `monitor` cannot serve it (no
    /// monitor, or a multi-field one, which tracks an atom that loops in
    /// some class rather than on the primary labels): a monitor of the
    /// labels, seeded by the first loop-checking query with one full scan
    /// and from then on repaired at each window's close and remapped by each
    /// compaction, like a single-field `monitor`. Never seeded while a
    /// single-field `monitor` is attached.
    query_loops: OnceLock<ViolationMonitor>,
    /// The address order of the current plane version, built by the first
    /// what-if query after a write and taken by every write that can
    /// change a label or an atom.
    order: OnceLock<AddressOrder>,
}

/// What the updates of one window changed, for the repair of the labels'
/// monitor at its close: the atoms whose labels they changed, the switches
/// whose out-links' labels they changed (`rule.source` of each update that
/// changed a label), and their atom splits, in creation order. The buffers
/// are reused from window to window.
#[derive(Clone, Debug, Default)]
struct WindowRecord {
    atoms: Vec<AtomId>,
    sources: Vec<NodeId>,
    splits: Vec<DeltaPair>,
}

impl WindowRecord {
    fn is_empty(&self) -> bool {
        self.atoms.is_empty() && self.sources.is_empty() && self.splits.is_empty()
    }

    fn clear(&mut self) {
        self.atoms.clear();
        self.sources.clear();
        self.splits.clear();
    }
}

/// Empties the record of the window it guards when dropped — also when an
/// update panics mid-window, so no later window repairs from its leftovers.
struct WindowGuard<'a>(&'a mut DeltaNet);

impl Drop for WindowGuard<'_> {
    fn drop(&mut self) {
        self.0.window.clear();
    }
}

impl DeltaNet {
    /// Creates a checker over the given topology.
    pub fn new(topology: Topology, config: DeltaNetConfig) -> Self {
        let secondary = &config.sec_widths[..config.secondary_count()];
        DeltaNet {
            mf: MultiField::new(secondary, topology.node_count()),
            atoms: AtomMap::new(config.field_width),
            owner: Owner::new(),
            labels: Labels::with_links(topology.link_count()),
            rules: HashMap::new(),
            books: BoundRefs::default(),
            compactions: 0,
            last_delta: DeltaGraph::new(),
            pair_scratch: Vec::with_capacity(2),
            walk_scratch: WalkScratch::default(),
            clip: None,
            monitor: config.monitor_violations.then(ViolationMonitor::new),
            window: WindowRecord::default(),
            query_loops: OnceLock::new(),
            order: OnceLock::new(),
            topology,
            config,
        }
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
    fn clipped_interval(clip: Option<Interval>, rule: &Rule) -> Interval {
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
    /// (`DeltaNet::fresh_monitor`); every later update maintains it
    /// incrementally. Replaces any existing monitor. Engines created with
    /// [`DeltaNetConfig::monitor_violations`] start monitored without the
    /// scan.
    ///
    /// A single-field monitor also answers the what-if query's loops, so the
    /// query's own loop state, if a query seeded one, is dropped.
    pub fn enable_monitor(&mut self) -> &ViolationMonitor {
        let monitor = self.fresh_monitor();
        if self.mf.is_none() {
            self.query_loops.take();
        }
        self.monitor.insert(monitor)
    }

    /// A monitor seeded from the current data plane with one full scan —
    /// the one place the engine's header-space shape picks the scan: the
    /// label walk single-field, the set-at-a-time kernel over every atom
    /// ([`MultiField::scan`]) multi-field. What `enable_monitor` attaches
    /// (also to an engine restored from a snapshot) and what the
    /// multi-field `check_all_*` render.
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

    /// Runs a compaction pass if the configured threshold is crossed.
    fn maybe_auto_compact(&mut self) {
        if let Some(threshold) = self.config.compact_threshold {
            if self.reclaimable_bounds() >= threshold.max(1) {
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
    /// [`UpdateError`] without touching the engine state. A one-op window.
    pub fn try_insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, UpdateError> {
        let report = self.insert_in_window(rule)?;
        self.close_window();
        Ok(report)
    }

    /// [`DeltaNet::try_insert_rule`] inside an open window: the monitor
    /// repair is left to the window's close.
    fn insert_in_window(&mut self, rule: Rule) -> Result<UpdateReport, UpdateError> {
        if self.rules.contains_key(&rule.id) {
            return Err(UpdateError::DuplicateRule(rule.id));
        }
        match self.topology.links().get(rule.link.index()) {
            Some(link) if link.src == rule.source => {}
            _ => {
                return Err(UpdateError::UnknownLink {
                    rule: rule.id,
                    link: rule.link,
                })
            }
        }
        self.config.validate_rule_fields(&rule)?;

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
        self.order.take();

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
    /// referencing rules that were never installed). A one-op window.
    pub fn try_remove_rule(&mut self, id: RuleId) -> Result<UpdateReport, UpdateError> {
        let report = self.remove_in_window(id)?;
        self.close_window();
        Ok(report)
    }

    /// [`DeltaNet::try_remove_rule`] inside an open window. A compaction
    /// the removal triggers repairs the window so far first.
    fn remove_in_window(&mut self, id: RuleId) -> Result<UpdateReport, UpdateError> {
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
        self.order.take();

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
    /// An open window's monitor repair therefore runs first, under the ids
    /// its updates recorded, and [`DeltaNet::last_delta`] is reset to
    /// empty. The monitor's events are keyed by cycle and switch, so they
    /// stand: a pass inside a window folds nothing away, and one between
    /// windows leaves the last window's events as they were.
    pub fn compact(&mut self) -> CompactReport {
        if !self.window.is_empty() {
            self.repair_window();
        }
        let allocated_before = self.atoms.allocated_atoms();
        let bytes_before = self.memory_estimate();
        self.order.take();

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
        for monitor in self.monitor.iter_mut().chain(self.query_loops.get_mut()) {
            monitor.remap(&remap);
        }

        // The last delta refers to stale ids: it describes a completed
        // update, and is reset.
        self.last_delta = DeltaGraph::new();

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

    /// Shared tail of both algorithms: run the configured per-update check,
    /// account for the monitor, remember the delta, and build the report.
    /// `rule` is the inserted/removed rule and `interval` the (possibly
    /// shard-clipped) interval the update ran on — the multi-field paths
    /// need the rule itself, not just its id.
    ///
    /// While a monitor of the labels is kept (a single-field monitor, or
    /// the what-if loop state once seeded), the update appends its changed
    /// atoms, its source if it changed a label, and its splits to the
    /// window's record, which [`DeltaNet::repair_window`] repairs from once.
    /// A multi-field update repairs its monitor here, in one pass at
    /// `rule.source` ([`MultiField::finish_update`]); a single-field one
    /// runs the check an unmonitored engine runs
    /// ([`loops::find_loops_from_seeds_in`] over the added pairs).
    fn finish_update(
        &mut self,
        delta: DeltaGraph,
        rule: Rule,
        interval: Interval,
        was_insert: bool,
    ) -> UpdateReport {
        if self.labels_monitored() {
            let window = &mut self.window;
            let changed = delta.added.iter().chain(&delta.removed);
            window.atoms.extend(changed.map(|&(_, atom)| atom));
            if !delta.is_empty() {
                window.sources.push(rule.source);
            }
            window.splits.extend_from_slice(&delta.splits);
        }
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
            let splits = &delta.splits;
            mf.finish_update(&view, &rule, interval, splits, was_insert, check, monitor)
        } else if check {
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
        let report = UpdateReport {
            rule_id: Some(rule.id),
            was_insert,
            affected_classes: delta.affected_atom_count(),
            changed_links: delta.changed_links(),
            violations,
        };
        self.last_delta = delta;
        report
    }

    /// Applies `ops` in order as one window, handing each report to
    /// `report`, and stops at the first that fails: the ops before it stay
    /// applied, and the failure comes back with its position in `ops`. Each
    /// op runs its per-update check as it applies; a single-field monitor
    /// is repaired once, at the close, over what the applied ops changed
    /// ([`DeltaNet::close_window`]). A window that applies nothing leaves
    /// the monitor untouched.
    pub(crate) fn apply_ops<'o>(
        &mut self,
        ops: impl IntoIterator<Item = &'o Op>,
        mut report: impl FnMut(UpdateReport),
    ) -> Option<ReplayError> {
        let window = WindowGuard(self);
        let mut failure = None;
        let mut applied = 0;
        for (index, op) in ops.into_iter().enumerate() {
            let result = match op {
                Op::Insert(rule) => window.0.insert_in_window(*rule),
                Op::Remove(id) => window.0.remove_in_window(*id),
            };
            match result {
                Ok(done) => report(done),
                Err(error) => {
                    failure = Some(ReplayError { index, error });
                    break;
                }
            }
            applied += 1;
        }
        if applied > 0 {
            window.0.close_window();
        }
        failure
    }

    /// Closes a window that applied ops: the repair of the labels' monitor
    /// ([`DeltaNet::repair_window`]), then the monitors' events are sealed.
    /// They are the window's transitions, and stand until the next window
    /// that applies an op.
    fn close_window(&mut self) {
        self.repair_window();
        for monitor in self.monitor.iter_mut().chain(self.query_loops.get_mut()) {
            monitor.seal();
        }
    }

    /// Whether a monitor of the labels is kept, repaired from each window's
    /// record: a single-field monitor, or the what-if loop state once a
    /// query has seeded it. The two never coexist.
    fn labels_monitored(&self) -> bool {
        (self.mf.is_none() && self.monitor.is_some()) || self.query_loops.get().is_some()
    }

    /// One repair of the labels' monitor over the open window's record
    /// ([`ViolationMonitor::repair_labels`]), which then empties; its
    /// events fold into those of the window's earlier repairs. A no-op
    /// while no such monitor is kept (a multi-field monitor is repaired per
    /// update).
    fn repair_window(&mut self) {
        let single = self.monitor.as_mut().filter(|_| self.mf.is_none());
        let Some(monitor) = single.or(self.query_loops.get_mut()) else {
            return;
        };
        let window = &mut self.window;
        monitor.repair_labels(
            &self.topology,
            &self.labels,
            &window.splits,
            &mut window.atoms,
            &mut window.sources,
        );
        window.clear();
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

    /// Number of compaction passes run so far (explicit and automatic). An
    /// engine restored from a snapshot counts from 0: the snapshot holds
    /// its rules, not its history.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Heap bytes actually addressed by live state: like
    /// [`DeltaNet::memory_estimate`] but counting entries rather than
    /// allocated capacity, so churn-induced over-allocation is visible as
    /// the gap between the two. A function of the logical state alone,
    /// which makes it one of the fields the persistence round-trip tests
    /// compare exactly between a snapshot restore and an engine built
    /// fresh from the same rules — derived state (the violation monitor,
    /// the walk scratch, the what-if loop state and address order) is
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
    /// `DeltaNet::fresh_monitor`, rendered as
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
    ///
    /// With `check_loops`, also the forwarding loops those atoms traverse,
    /// exactly as [`loops::find_loops_for_atoms`] on `label(link)` reports
    /// them: the cycles of a monitor of the labels, each cut to the label.
    /// That monitor is the engine's own on a monitored single-field engine.
    /// Otherwise it is the query's loop state, seeded by the first
    /// loop-checking query with one full scan
    /// ([`ViolationMonitor::from_state`]) and repaired at every window's
    /// close, like a monitor. No query searches for cycles after that.
    ///
    /// Packets are rendered through the address order of the plane, built
    /// by the first query after a write: each atom set becomes runs of
    /// consecutive address ranks, with no sort and no walk of `M`, and reads
    /// exactly as [`AtomMap::packets_of`] would render it. Any write that
    /// can change a label or an atom (a rule insertion or removal, a
    /// compaction) drops the order.
    pub fn link_failure_impact(&self, link: LinkId, check_loops: bool) -> WhatIfReport {
        let affected = self.labels.get(link);
        let order = self.order.get_or_init(|| self.atoms.address_order());
        let violations = if check_loops {
            self.loops_monitor().loops_among(affected, order)
        } else {
            Vec::new()
        };
        let affected_packets = order.packets_of(affected.iter());
        let mut affected_links: Vec<LinkId> = Vec::new();
        for (other, label) in self.labels.iter() {
            if other != link && label.intersects(affected) {
                affected_links.push(other);
            }
        }
        WhatIfReport {
            link: Some(link),
            affected_classes: affected.len(),
            affected_packets,
            affected_links,
            violations,
        }
    }

    /// The monitor of the labels the what-if query cuts its loops from: a
    /// single-field engine's own monitor, else the query's loop state,
    /// seeded here on first use.
    fn loops_monitor(&self) -> &ViolationMonitor {
        match (&self.monitor, &self.mf) {
            (Some(monitor), None) => monitor,
            _ => self.query_loops.get_or_init(|| {
                ViolationMonitor::from_state(&self.topology, &self.labels, &self.atoms)
            }),
        }
    }

    /// Estimated heap memory used by the engine's internal state, the
    /// what-if address order included (monitors are not counted).
    pub fn memory_estimate(&self) -> usize {
        self.atoms.memory_bytes()
            + self.owner.memory_bytes()
            + self.labels.memory_bytes()
            + self.rules.capacity()
                * (std::mem::size_of::<RuleId>() + std::mem::size_of::<Rule>() + 8)
            + self.books.memory_bytes()
            + self.mf.as_ref().map_or(0, MultiField::memory_bytes)
            + self.order.get().map_or(0, AddressOrder::memory_bytes)
    }

    /// This engine's configuration.
    pub fn config(&self) -> DeltaNetConfig {
        self.config
    }

    /// Replaces the configuration of an engine whose field widths and
    /// compaction threshold it already has: snapshot restore builds the
    /// engine with the per-update check and monitor off, applies the
    /// registry, and then sets the snapshot's own flags this way.
    pub(crate) fn set_config(&mut self, config: DeltaNetConfig) {
        debug_assert!(
            config.field_width == self.config.field_width
                && config.sec_widths == self.config.sec_widths
                && config.compact_threshold == self.config.compact_threshold,
            "only the check and monitor flags change"
        );
        self.config = config;
    }
}

impl Checker for DeltaNet {
    fn name(&self) -> &'static str {
        "delta-net"
    }

    /// A one-op window.
    fn try_apply(&mut self, op: &Op) -> Result<UpdateReport, UpdateError> {
        match op {
            Op::Insert(rule) => self.try_insert_rule(*rule),
            Op::Remove(id) => self.try_remove_rule(*id),
        }
    }

    /// Applies the window's ops in order, each reporting and checked on its
    /// own, and repairs a single-field monitor once at the close — over the
    /// applied prefix when an op fails (`DeltaNet::apply_ops`).
    fn apply_window(&mut self, ops: &[Op]) -> (Vec<UpdateReport>, Option<ReplayError>) {
        let mut reports = Vec::with_capacity(ops.len());
        let failure = self.apply_ops(ops, |report| reports.push(report));
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

    fn active_violations(&self) -> Option<Vec<netmodel::checker::InvariantViolation>> {
        DeltaNet::active_violations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::CycleMap;
    use crate::monitor::{MonitorTransitions, ViolationKey};
    use netmodel::checker::InvariantViolation;
    use netmodel::interval::{normalize, Interval};
    use netmodel::ip::IpPrefix;
    use netmodel::rule::Action;
    use netmodel::topology::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A triangle s0 -> s1 -> s2 -> s0 and its three hops, each a rule on
    /// 10.0.0.0/8 — so installing or removing one splits no atom a query
    /// has already read.
    fn triangle() -> (DeltaNet, [LinkId; 3], [Rule; 3]) {
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 3);
        let links = [0, 1, 2].map(|i| topo.add_link(s[i], s[(i + 1) % 3]));
        let rules = [0, 1, 2]
            .map(|i| Rule::forward(RuleId(i as u64), prefix("10.0.0.0/8"), 1, s[i], links[i]));
        (DeltaNet::with_topology(topo), links, rules)
    }

    #[test]
    fn what_if_memo_sees_a_loop_an_insert_closes() {
        let (mut net, links, rules) = triangle();
        net.insert_rule(rules[0]);
        net.insert_rule(rules[1]);
        assert!(net
            .link_failure_impact(links[0], true)
            .violations
            .is_empty());
        // The loop runs through the atom the query above found loop-free:
        // the loop state it seeded is repaired by the insert.
        net.insert_rule(rules[2]);
        let report = net.link_failure_impact(links[0], true);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations, net.check_all_loops());
    }

    #[test]
    fn what_if_memo_forgets_a_loop_a_removal_breaks() {
        let (mut net, links, rules) = triangle();
        for rule in rules {
            net.insert_rule(rule);
        }
        assert_eq!(net.link_failure_impact(links[0], true).violations.len(), 1);
        net.remove_rule(rules[2].id);
        assert!(net
            .link_failure_impact(links[0], true)
            .violations
            .is_empty());
    }

    #[test]
    fn what_if_memo_after_compact_answers_like_a_fresh_engine() {
        // A removed rule below the loop's prefix leaves dead bounds there,
        // so the compaction renumbers the looping atom down onto an id the
        // queries before it read as loop-free. A wide rule at s0 keeps
        // those atoms on a label to be queried.
        let (mut net, links, rules) = triangle();
        let s = [0, 1].map(|i| net.topology().link(links[i]).src);
        let side = Rule::forward(RuleId(8), prefix("1.0.0.0/8"), 1, s[1], links[1]);
        let wide = Rule::forward(RuleId(9), prefix("0.0.0.0/4"), 0, s[0], links[0]);
        net.insert_rule(side);
        for rule in rules {
            net.insert_rule(rule);
        }
        net.insert_rule(wide);
        net.remove_rule(side.id);
        for link in links {
            assert_eq!(net.link_failure_impact(link, true).violations.len(), 1);
        }
        assert!(net.compact().merged_atoms > 0);
        let mut fresh = DeltaNet::with_topology(net.topology().clone());
        for rule in rules.into_iter().chain([wide]) {
            fresh.insert_rule(rule);
        }
        for link in links {
            let report = net.link_failure_impact(link, true);
            assert_eq!(report, fresh.link_failure_impact(link, true), "{link:?}");
        }
    }

    #[test]
    fn what_if_memo_renders_an_atom_an_insert_splits_at_its_new_bounds() {
        // The loop's atom 10.0.0.0/8 is rendered, and then an insert at s0
        // splits it and sends its upper half to a drop link: the next
        // report shows the lower half, in its affected packets and in its
        // loop. An address order kept from before the split would render
        // the atom at its old bounds.
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 3);
        let links = [0, 1, 2].map(|i| topo.add_link(s[i], s[(i + 1) % 3]));
        let drop = topo.drop_link(s[0]);
        let mut net = DeltaNet::with_topology(topo);
        for i in 0..3 {
            net.insert_rule(Rule::forward(
                RuleId(i as u64),
                prefix("10.0.0.0/8"),
                1,
                s[i],
                links[i],
            ));
        }
        let whole = vec![Interval::new(0x0a00_0000, 0x0b00_0000)];
        let report = net.link_failure_impact(links[0], true);
        assert_eq!(report.affected_packets, whole);
        assert_eq!(report.violations, net.check_all_loops());
        net.insert_rule(Rule::drop(RuleId(9), prefix("10.128.0.0/9"), 5, s[0], drop));
        let lower = vec![Interval::new(0x0a00_0000, 0x0a80_0000)];
        let report = net.link_failure_impact(links[0], true);
        assert_eq!(report.affected_packets, lower);
        assert_eq!(
            report.violations,
            vec![InvariantViolation::ForwardingLoop {
                nodes: s.clone(),
                packets: lower,
            }]
        );
        assert_eq!(report.violations, net.check_all_loops());
    }

    /// Whether the what-if loop state `net` seeded is the monitor a full
    /// scan of its labels builds; `None` while no query has seeded one.
    fn seeded_loops_match_a_scan(net: &DeltaNet) -> Option<bool> {
        let state = net.query_loops.get()?;
        let scan = ViolationMonitor::from_state(&net.topology, &net.labels, &net.atoms);
        Some(state.state_eq(&scan))
    }

    #[test]
    fn what_if_memo_matches_a_fresh_search_under_random_ops() {
        // Random ops, compactions and queries interleaved on looped random
        // planes: after every query the loop state the first query seeded,
        // repaired by every write since, is the monitor a full scan builds,
        // its cycles cut to the queried label are what a search of the
        // label from scratch finds, and the address order renders the label
        // and each loop as `AtomMap::packets_of` does, on both sides of that
        // function's sparse/dense cutover.
        let mut queries = 0;
        let mut looping = 0;
        let mut dense = 0;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x4d45_4d4f ^ seed);
            let topo = testutil::random_topology(&mut rng, 5, true);
            let config = DeltaNetConfig {
                field_width: 8,
                check_loops_per_update: false,
                compact_threshold: (seed % 2 == 1).then_some(4),
                ..DeltaNetConfig::default()
            };
            let mut net = DeltaNet::new(topo.clone(), config);
            let mut gen = testutil::OpGen::new(8, 40, 0.35);
            for step in 0..300 {
                let at = format!("seed {seed}, step {step}");
                match rng.gen_range(0..20) {
                    0 => {
                        net.compact();
                    }
                    1..=11 => {
                        if let Some(op) = gen.next_op(&mut rng, &topo) {
                            net.try_apply(&op).expect("a generated op applies");
                        }
                    }
                    _ => {
                        let link = LinkId(rng.gen_range(0..topo.link_count()) as u32);
                        let report = net.link_failure_impact(link, true);
                        let label = net.label(link);
                        let labels = net.labels();
                        let atoms = net.atoms();
                        assert_eq!(report.affected_packets, atoms.packets_of(label), "{at}");
                        let expect = loops::find_loops_for_atoms(&topo, labels, atoms, label);
                        assert_eq!(report.violations, expect, "{at}");
                        let fresh = loops::cycles_for_atoms(&topo, labels, label);
                        assert_eq!(seeded_loops_match_a_scan(&net), Some(true), "{at}");
                        let state = net.query_loops.get().expect("a query seeds it");
                        let cut: CycleMap = state
                            .maps()
                            .0
                            .iter()
                            .map(|(cycle, atoms)| (cycle.clone(), atoms.intersection(label)))
                            .filter(|(_, atoms)| !atoms.is_empty())
                            .collect();
                        for (violation, set) in report.violations.iter().zip(cut.values()) {
                            let InvariantViolation::ForwardingLoop { packets, .. } = violation
                            else {
                                panic!("{at}: {violation:?} is not a loop");
                            };
                            assert_eq!(*packets, atoms.packets_of(set), "{at}");
                        }
                        assert_eq!(cut, fresh, "{at}");
                        queries += 1;
                        looping += usize::from(!expect.is_empty());
                        dense += usize::from(
                            label.len() * crate::atoms::DENSE_PACKETS_RATIO >= atoms.atom_count(),
                        );
                    }
                }
            }
        }
        assert!(
            queries > 500 && looping > 50 && (50..queries - 50).contains(&dense),
            "{queries} queries, {looping} with loops, {dense} dense labels"
        );
    }

    #[test]
    fn what_if_memo_of_three_engine_shapes_is_repaired_across_windows() {
        // The same windows on a monitored single-field engine (the query
        // cuts the monitor's cycles), an unmonitored one and a monitored
        // multi-field one with unconstrained secondaries (both cut the
        // loop state their first query seeds). Loops open, close and split,
        // and a removal's dead bound compacts inside a window. Every link is
        // queried after every window: the three reports are equal, and
        // their loops are a search of the label from scratch. After every
        // window the seeded loop states are what a full scan builds.
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 3);
        let ring = [0, 1, 2].map(|i| topo.add_link(s[i], s[(i + 1) % 3]));
        let drop = topo.drop_link(s[0]);
        let config = DeltaNetConfig {
            compact_threshold: Some(1),
            ..DeltaNetConfig::default()
        };
        let monitored = DeltaNetConfig {
            monitor_violations: true,
            ..config
        };
        let mut nets = [
            DeltaNet::new(topo.clone(), monitored),
            DeltaNet::new(topo.clone(), config),
            DeltaNet::new(topo.clone(), monitored.with_secondary(&[8])),
        ];
        let hop = |id: u64, p: &str, i: usize| {
            Op::Insert(Rule::forward(RuleId(id), prefix(p), 1, s[i], ring[i]))
        };
        let windows = [
            // A path s0 -> s1 -> s2 for 10/8: no loop.
            vec![hop(0, "10.0.0.0/8", 0), hop(1, "10.0.0.0/8", 1)],
            // s2 -> s0 closes the loop.
            vec![hop(2, "10.0.0.0/8", 2)],
            // A drop at s0 splits the looping atom and takes its upper half.
            vec![Op::Insert(Rule::drop(
                RuleId(3),
                prefix("10.128.0.0/9"),
                5,
                s[0],
                drop,
            ))],
            // One loop opens on 20/8 as the one on 10/8 breaks.
            vec![
                hop(4, "20.0.0.0/8", 0),
                hop(5, "20.0.0.0/8", 1),
                hop(6, "20.0.0.0/8", 2),
                Op::Remove(RuleId(2)),
            ],
            // The drop's removal leaves 10.128.0.0 dead: the threshold pass
            // merges the halves inside the window, and 10/8 loops again.
            vec![Op::Remove(RuleId(3)), hop(7, "10.0.0.0/8", 2)],
            // The 20/8 loop breaks.
            vec![Op::Remove(RuleId(5))],
        ];
        let mut looped = 0;
        for (w, ops) in windows.iter().enumerate() {
            for net in &mut nets {
                assert!(net.apply_window(ops).1.is_none(), "window {w}");
                // Seeded by the queries after the first window, unless the
                // engine's own monitor serves them.
                let own_monitor = net.monitor.is_some() && net.mf.is_none();
                let seeded = w > 0 && !own_monitor;
                let expect = seeded.then_some(true);
                assert_eq!(seeded_loops_match_a_scan(net), expect, "window {w}");
            }
            for link in topo.links().iter().map(|l| l.id) {
                let reports = nets
                    .each_ref()
                    .map(|net| net.link_failure_impact(link, true));
                for (net, report) in nets.iter().zip(&reports) {
                    let label = net.label(link);
                    let search =
                        loops::find_loops_for_atoms(&topo, net.labels(), net.atoms(), label);
                    assert_eq!(report.violations, search, "window {w}, {link:?}");
                    assert_eq!(*report, reports[0], "window {w}, {link:?}");
                }
                looped += usize::from(!reports[0].violations.is_empty());
            }
        }
        assert!(looped >= 4, "{looped} reports with loops");
        for net in &nets {
            assert!(net.compactions() > 0);
        }
        assert!(nets[0].query_loops.get().is_none(), "the monitor serves");
    }

    #[test]
    fn what_if_memo_from_two_threads_matches_sequential_queries() {
        // An unmonitored closed ring, 10/8 forwarded clockwise at all four
        // switches, with disjoint /16s beside it for many atoms. No query
        // has run, so two threads asking at once race to seed the loop
        // state and the address order; each `OnceLock` keeps one. Every
        // report equals a sequential query on a clone, and its loops are a
        // search of the label from scratch.
        let mut topo = Topology::new();
        let s = topo.add_nodes("s", 4);
        let ring = [0, 1, 2, 3].map(|i| topo.add_link(s[i], s[(i + 1) % 4]));
        let config = DeltaNetConfig {
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        };
        let mut net = DeltaNet::new(topo, config);
        for i in 0..4 {
            net.insert_rule(Rule::forward(
                RuleId(i as u64),
                prefix("10.0.0.0/8"),
                1,
                s[i],
                ring[i],
            ));
        }
        for i in 0..32u32 {
            let at = (i % 3) as usize;
            let p = IpPrefix::ipv4(0xC000_0000 + i * 0x1_0000, 16);
            net.insert_rule(Rule::forward(
                RuleId(100 + u64::from(i)),
                p,
                2,
                s[at],
                ring[at],
            ));
        }
        let sequential = net.clone();
        assert!(net.query_loops.get().is_none() && net.order.get().is_none());

        // Thread 0 asks with the loop check first, thread 1 without it.
        let start = std::sync::Barrier::new(2);
        let reports = std::thread::scope(|scope| {
            // Both threads are spawned before either is joined.
            [true, false]
                .map(|first| {
                    let (net, start) = (&net, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut out = Vec::new();
                        for check in [first, !first] {
                            for link in ring {
                                out.push((link, check, net.link_failure_impact(link, check)));
                            }
                        }
                        out
                    })
                })
                .map(|worker| worker.join().unwrap())
        });
        for (link, check, report) in reports.iter().flatten() {
            let at = format!("{link:?}, check_loops {check}");
            assert_eq!(
                *report,
                sequential.link_failure_impact(*link, *check),
                "{at}"
            );
            if *check {
                let label = net.label(*link);
                let search =
                    loops::find_loops_for_atoms(net.topology(), net.labels(), net.atoms(), label);
                assert_eq!(report.violations, search, "{at}");
                assert_eq!(report.violations.len(), 1, "{at}");
            } else {
                assert!(report.violations.is_empty(), "{at}");
            }
        }
        assert_eq!(reports.iter().flatten().count(), 16);
        assert_eq!(seeded_loops_match_a_scan(&net), Some(true));
        assert!(net.order.get().is_some());
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

    fn monitored(compact_threshold: Option<usize>) -> DeltaNetConfig {
        DeltaNetConfig {
            monitor_violations: true,
            compact_threshold,
            ..DeltaNetConfig::default()
        }
    }

    /// Asserts `net`'s live violations are those the full scans find.
    fn monitor_matches_scans(net: &DeltaNet) {
        let mut scans = net.check_all_loops();
        scans.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations(), Some(scans));
    }

    #[test]
    fn a_failing_window_repairs_exactly_its_applied_prefix() {
        // a sends 10/8 and then 192/8 to b, which has no rule: one hole.
        // The third op fails, so the fourth (a rule at b that would plug
        // the hole) never applies; the window still closes over the two
        // applied ops, and its events are theirs.
        let mut topo = Topology::new();
        let [a, b] = [topo.add_node("a"), topo.add_node("b")];
        let ab = topo.add_link(a, b);
        let drop_b = topo.drop_link(b);
        let mut net = DeltaNet::new(topo, monitored(None));
        let ops = [
            Op::Insert(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab)),
            Op::Insert(Rule::forward(RuleId(2), prefix("192.0.0.0/8"), 1, a, ab)),
            Op::Remove(RuleId(42)),
            Op::Insert(Rule::drop(RuleId(3), prefix("0.0.0.0/0"), 1, b, drop_b)),
        ];
        let (reports, failure) = net.apply_window(&ops);
        assert_eq!((reports.len(), failure.map(|f| f.index)), (2, Some(2)));
        assert_eq!(net.rule_count(), 2);
        monitor_matches_scans(&net);
        let monitor = net.monitor().unwrap();
        let hole = crate::monitor::ViolationKey::Blackhole(b);
        assert_eq!(monitor.active_keys(), std::slice::from_ref(&hole));
        assert_eq!(monitor.last_events().appeared, [hole]);
        // A window whose first op fails applies nothing and leaves the
        // monitor, events included, as it was.
        let before = monitor.last_events().clone();
        let (reports, failure) = net.apply_window(&ops[2..]);
        assert_eq!((reports.len(), failure.map(|f| f.index)), (0, Some(0)));
        assert_eq!(net.monitor().unwrap().last_events(), &before);
    }

    #[test]
    fn a_threshold_compaction_inside_a_window_repairs_first() {
        // a drops everything by default and 5/8 by a rule of its own.
        // Inside one window: a sends 20/8 to b (a hole there); the 5/8 rule
        // goes, which moves no label but makes two bounds reclaimable, and
        // the pass it triggers renumbers 20/8's atom; a sends 30/8 to b,
        // whose new atom takes the id 20/8's had. The window's first op is
        // repaired before the pass, under the id it recorded; repairing it
        // after would repair 30/8's atom twice and miss 20/8's.
        let mut topo = Topology::new();
        let [a, b] = [topo.add_node("a"), topo.add_node("b")];
        let ab = topo.add_link(a, b);
        let drop_a = topo.drop_link(a);
        let mut net = DeltaNet::new(topo, monitored(Some(1)));
        net.insert_rule(Rule::drop(RuleId(0), prefix("0.0.0.0/0"), 0, a, drop_a));
        net.insert_rule(Rule::drop(RuleId(1), prefix("5.0.0.0/8"), 1, a, drop_a));
        assert!(net.monitor().unwrap().is_clean());
        let ops = [
            Op::Insert(Rule::forward(RuleId(2), prefix("20.0.0.0/8"), 1, a, ab)),
            Op::Remove(RuleId(1)),
            Op::Insert(Rule::forward(RuleId(3), prefix("30.0.0.0/8"), 1, a, ab)),
        ];
        assert_eq!(net.apply_window(&ops).1, None);
        assert_eq!(net.compactions(), 1, "the pass ran inside the window");
        monitor_matches_scans(&net);
        let hole = crate::monitor::ViolationKey::Blackhole(b);
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.active_keys(), std::slice::from_ref(&hole));
        assert_eq!(monitor.last_events().appeared, [hole]);
    }

    /// A fresh engine under `config` and a window for it: `a -> b` and
    /// `b -> a` close a loop on 10/8 at its second op, then `c` drops 192/8
    /// and the drop goes again, leaving two bounds to reclaim. Returns the
    /// events the window must leave: the loop appeared.
    fn loop_then_churn(config: DeltaNetConfig) -> (DeltaNet, Vec<Op>, MonitorTransitions) {
        let mut topo = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| topo.add_node(name));
        let (ab, ba) = (topo.add_link(a, b), topo.add_link(b, a));
        let drop_c = topo.drop_link(c);
        let p = prefix("10.0.0.0/8");
        let ops = vec![
            Op::Insert(Rule::forward(RuleId(1), p, 1, a, ab)),
            Op::Insert(Rule::forward(RuleId(2), p, 1, b, ba)),
            Op::Insert(Rule::drop(RuleId(3), prefix("192.0.0.0/8"), 1, c, drop_c)),
            Op::Remove(RuleId(3)),
        ];
        let events = MonitorTransitions {
            appeared: vec![ViolationKey::Loop(vec![a, b])],
            resolved: vec![],
        };
        (DeltaNet::new(topo, config), ops, events)
    }

    #[test]
    fn a_multifield_window_reports_a_loop_its_first_ops_closed() {
        // Repaired per op, the window's repairs fold into one event list:
        // the last op, which changes no violation, does not replace it.
        let (mut net, ops, closed) = loop_then_churn(monitored(None).with_secondary(&[4]));
        assert_eq!(net.apply_window(&ops).1, None);
        monitor_matches_scans(&net);
        assert_eq!(net.monitor().unwrap().last_events(), &closed);
    }

    #[test]
    fn a_compaction_after_a_window_keeps_its_events() {
        let (mut net, ops, closed) = loop_then_churn(monitored(None));
        assert_eq!(net.apply_window(&ops).1, None);
        assert_eq!(net.monitor().unwrap().last_events(), &closed);
        assert!(net.compact().merged_atoms > 0);
        monitor_matches_scans(&net);
        assert_eq!(net.monitor().unwrap().last_events(), &closed);
    }

    #[test]
    fn a_threshold_pass_inside_a_window_keeps_the_events_before_it() {
        // The removal triggers the pass; the window goes on after it with
        // an op that changes no violation.
        let (mut net, mut ops, closed) = loop_then_churn(monitored(Some(1)));
        let drop_c = net.topology().out_links(NodeId(2))[0];
        ops.push(Op::Insert(Rule::drop(
            RuleId(4),
            prefix("172.16.0.0/12"),
            1,
            NodeId(2),
            drop_c,
        )));
        assert_eq!(net.apply_window(&ops).1, None);
        assert_eq!(net.compactions(), 1, "the pass ran inside the window");
        monitor_matches_scans(&net);
        assert_eq!(net.monitor().unwrap().last_events(), &closed);
    }

    #[test]
    fn a_loop_raised_before_a_pass_and_cleared_after_it_nets_out() {
        // A first window leaves events behind: a -> b for 172.16/12 dies at
        // b. The second raises the loop, passes, and breaks it again at b,
        // where 10/8 now dies too; the hole there stood all along.
        let (mut net, mut ops, _) = loop_then_churn(monitored(Some(1)));
        let [a, b] = [NodeId(0), NodeId(1)];
        let ab = net.topology().link_between(a, b).unwrap();
        let stray = Rule::forward(RuleId(9), prefix("172.16.0.0/12"), 1, a, ab);
        assert_eq!(net.apply_window(&[Op::Insert(stray)]).1, None);
        let hole = ViolationKey::Blackhole(b);
        assert_eq!(net.monitor().unwrap().last_events().appeared, [hole]);
        ops.push(Op::Remove(RuleId(2)));
        assert_eq!(net.apply_window(&ops).1, None);
        assert_eq!(net.compactions(), 1, "the pass ran inside the window");
        monitor_matches_scans(&net);
        let events = net.monitor().unwrap().last_events();
        assert!(events.is_empty(), "{events:?}");
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

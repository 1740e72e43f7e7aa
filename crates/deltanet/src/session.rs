//! The windowed apply loop every long-lived caller runs — the daemon,
//! `deltanet replay`, `snapshot --save`: the engine applies a window through
//! its `Checker::apply_window` (the applied-prefix contract is stated
//! there), the [`Journal`] beside it records exactly what applied (nothing
//! else calls [`Journal::record`]), and the violation transitions are
//! taken on demand: the engine's window events
//! ([`PersistNet::last_events`], on shards the fold of their repairs'),
//! folded since the last ask.

use crate::fault::StorageBackend;
use crate::monitor::MonitorTransitions;
use crate::persist::{Durability, Journal, PersistError, PersistNet, Snapshot};
use netmodel::checker::{ReplayError, UpdateReport};
use netmodel::trace::Op;
use std::path::Path;

/// An engine, an optional [`Journal`] beside it, and what its
/// [`Session::transitions`] are taken from.
pub struct Session {
    net: PersistNet,
    journal: Option<Journal>,
    /// The engine's window events, folded since the last call.
    pending: MonitorTransitions,
    ops_applied: u64,
}

/// The benchmark's name for a logged engine ([`Session::with_backend`] +
/// [`Session::apply_batch`]), kept while `deltabench/src/engine_api.rs`
/// names it.
pub type LoggedNet = Session;

impl Session {
    /// A session over `net`. Transitions start from the engine's violation
    /// set now (a restored engine's standing violations do not "appear");
    /// the op position is the journal's, or 0 without one.
    pub fn new(net: PersistNet, journal: Option<Journal>) -> Session {
        Session {
            pending: MonitorTransitions::default(),
            ops_applied: journal.as_ref().map_or(0, Journal::ops_applied),
            net,
            journal,
        }
    }

    /// A session journaling into a fresh flat log ([`Journal::flat`]).
    pub fn with_backend(
        net: PersistNet,
        backend: Box<dyn StorageBackend>,
        log_path: &Path,
        ops_applied: u64,
        durability: Durability,
    ) -> Result<Session, PersistError> {
        let journal = Journal::flat(backend, log_path, ops_applied, durability)?;
        Ok(Session::new(net, Some(journal)))
    }

    /// Applies one window ([`PersistNet::checker_mut`]'s `apply_window`)
    /// and journals the ops that applied: one report per applied op, also
    /// when the window failed. A journal I/O failure is deferred to
    /// [`Session::close`]. The window's events, if it applied an op, fold
    /// into those pending for [`Session::transitions`].
    pub fn apply(&mut self, ops: &[Op]) -> (Vec<UpdateReport>, Option<ReplayError>) {
        let (reports, failure) = self.net.checker_mut().apply_window(ops);
        if let (Some(events), false) = (self.net.last_events(), reports.is_empty()) {
            self.pending.absorb(events.clone());
        }
        let applied = &ops[..reports.len()];
        self.ops_applied += applied.len() as u64;
        if let Some(journal) = &mut self.journal {
            let net = &self.net;
            journal.record(applied, |at| Snapshot::of_net(net, at));
        }
        (reports, failure)
    }

    /// [`Session::apply`] as a `Result`, for the benchmark's [`LoggedNet`].
    pub fn apply_batch(&mut self, ops: &[Op]) -> Result<Vec<UpdateReport>, ReplayError> {
        match self.apply(ops) {
            (reports, None) => Ok(reports),
            (_, Some(error)) => Err(error),
        }
    }

    /// The violation identities that appeared and resolved since the last
    /// call (or construction): the engine's window events, folded; empty
    /// when it is not monitored. Costs what the events hold, not what the
    /// engine's active violations do.
    pub fn transitions(&mut self) -> MonitorTransitions {
        std::mem::take(&mut self.pending)
    }

    /// The engine.
    pub fn net(&self) -> &PersistNet {
        &self.net
    }

    /// The mounted journal; `None` without one or after [`Session::close`].
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The mounted journal, for an explicit flush or sync.
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// Ops the engine incorporates (the journal's start plus those applied).
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Checkpoints the engine through the journal; a no-op without one.
    pub fn checkpoint_now(&mut self) -> Result<(), PersistError> {
        let net = &self.net;
        match &mut self.journal {
            Some(journal) => journal.checkpoint_now(|at| Snapshot::of_net(net, at)),
            None => Ok(()),
        }
    }

    /// Unmounts and closes the journal, returning a deferred I/O error.
    pub fn close(&mut self) -> Result<(), PersistError> {
        self.journal.take().map_or(Ok(()), Journal::close)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyBackend};
    use crate::monitor::ViolationKey;
    use crate::persist::{read_log_with, RecoveryPolicy};
    use crate::{DeltaNet, DeltaNetConfig, ShardedDeltaNet};
    use netmodel::rule::{Rule, RuleId};
    use netmodel::topology::{NodeId, Topology};

    /// `a <-> b` with `I 1` a -> b and `I 2` b -> a on 10/8: the loop
    /// through both switches is the only violation.
    fn looped(shards: usize) -> (Topology, PersistNet, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let (ab, ba) = topo.add_bidi_link(a, b);
        let config = DeltaNetConfig {
            monitor_violations: true,
            ..DeltaNetConfig::default()
        };
        let mut net = match shards {
            0 => PersistNet::Single(Box::new(DeltaNet::new(topo.clone(), config))),
            n => PersistNet::Sharded(Box::new(ShardedDeltaNet::new(topo.clone(), config, n))),
        };
        let prefix = "10.0.0.0/8".parse().unwrap();
        let ops = [
            Op::Insert(Rule::forward(RuleId(1), prefix, 1, a, ab)),
            Op::Insert(Rule::forward(RuleId(2), prefix, 1, b, ba)),
        ];
        assert_eq!(net.checker_mut().apply_window(&ops).1, None);
        (topo, net, a, b)
    }

    #[test]
    fn transitions_of_a_restored_engine_start_from_its_violations() {
        for shards in [0, 2] {
            let (topo, net, a, b) = looped(shards);
            let bytes = Snapshot::of_net(&net, 2).to_bytes();
            let restored = Snapshot::from_bytes(&bytes)
                .unwrap()
                .restore(&topo)
                .unwrap();
            let mut session = Session::new(restored, None);
            assert!(
                session.transitions().is_empty(),
                "{shards} shards: no restore wave"
            );
            let (reports, failure) = session.apply(&[Op::Remove(RuleId(2))]);
            assert_eq!((reports.len(), failure), (1, None), "{shards} shards");
            let t = session.transitions();
            assert_eq!(
                t.appeared,
                vec![ViolationKey::Blackhole(b)],
                "{shards} shards"
            );
            assert_eq!(
                t.resolved,
                vec![ViolationKey::Loop(vec![a, b])],
                "{shards} shards"
            );
            assert!(
                session.transitions().is_empty(),
                "{shards} shards: since the last call"
            );
            // A window that applies nothing adds nothing, though the
            // engine's last events are still the window's before it.
            let (reports, failure) = session.apply(&[Op::Remove(RuleId(2))]);
            assert_eq!((reports.len(), failure.map(|f| f.index)), (0, Some(0)));
            assert!(
                session.transitions().is_empty(),
                "{shards} shards: an empty window"
            );
        }
    }

    #[test]
    fn ops_applied_resumes_from_the_journal_position() {
        assert_eq!(Session::new(looped(2).1, None).ops_applied(), 0);
        let (_, net, _, _) = looped(2);
        let backend = FaultyBackend::new();
        let path = Path::new("/vd/resume.dnlog");
        let mut session = Session::with_backend(
            net,
            Box::new(backend.clone()),
            path,
            2,
            Durability::Buffered,
        )
        .unwrap();
        assert_eq!(session.ops_applied(), 2);
        let (reports, failure) = session.apply(&[Op::Remove(RuleId(2)), Op::Remove(RuleId(9))]);
        assert_eq!(reports.len(), 1);
        assert_eq!(failure.map(|e| e.index), Some(1));
        assert_eq!(session.ops_applied(), 3);
        assert_eq!(session.journal().map(Journal::ops_applied), Some(3));
        session.close().unwrap();
        assert!(session.journal().is_none());
        let logged = read_log_with(&mut backend.clone(), path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(logged.ops, vec![Op::Remove(RuleId(2))]);
    }

    #[test]
    fn close_returns_a_deferred_fsync_failure() {
        let (_, net, _, _) = looped(0);
        let backend = FaultyBackend::with_plan(FaultPlan {
            fail_fsyncs: 1,
            ..FaultPlan::default()
        });
        let path = Path::new("/vd/fsync.dnlog");
        let mut session = Session::with_backend(
            net,
            Box::new(backend.clone()),
            path,
            2,
            Durability::FsyncPerBatch,
        )
        .unwrap();
        // The window applies; its fsync fails and is deferred.
        assert_eq!(session.apply(&[Op::Remove(RuleId(1))]).1, None);
        assert!(matches!(session.close(), Err(PersistError::Io(_))));
    }
}

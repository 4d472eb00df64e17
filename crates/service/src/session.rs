//! One tenant session: a [`Rag`] paired with its own persistent
//! [`DetectEngine`], so consecutive batches ride the engine's delta
//! journal and result cache instead of rebuilding per request.
//!
//! A session is strictly single-owner — the core loop that houses it
//! applies events in submission order — which is what makes sharded
//! execution replayable: feeding the same event log through a fresh
//! `Session` yields byte-identical results (the determinism the
//! concurrent-sessions test asserts).

use deltaos_core::engine::{DetectEngine, EngineStats};
use deltaos_core::Rag;
use deltaos_store::{SessionSnapshot, StoreError};

use crate::proto::{Event, EventResult};

/// A single RAG session with its dedicated incremental engine.
#[derive(Debug, Clone)]
pub struct Session {
    rag: Rag,
    engine: DetectEngine,
}

/// Per-batch tallies from [`Session::apply_batch`], folded into the
/// owning shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTally {
    /// Events applied (all of them — the batch length).
    pub events: u64,
    /// `Probe` + `WouldDeadlock` events.
    pub probes: u64,
    /// Events refused with [`EventResult::Rejected`].
    pub rejected: u64,
}

impl Session {
    /// Creates an empty `resources` × `processes` session.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (the service's admission
    /// control rejects such opens before construction).
    pub fn new(resources: u16, processes: u16) -> Self {
        Session {
            rag: Rag::new(resources as usize, processes as usize),
            engine: DetectEngine::new(resources as usize, processes as usize),
        }
    }

    /// Captures this session as a durable [`SessionSnapshot`] labeled
    /// with the service-wide `session` id: the RAG's edges, the engine's
    /// lifetime counters, and the engine's cached detection outcome when
    /// it is still valid — everything needed to restore a session that
    /// behaves (and counts) exactly like this one.
    pub fn snapshot(&self, session: u64) -> SessionSnapshot {
        SessionSnapshot::capture(session, &self.rag, &self.engine)
    }

    /// Rebuilds a session from a snapshot. The restored session's next
    /// probe takes the same path (cache hit / delta sync / rebuild) the
    /// original's would have, so detection results *and* engine counters
    /// continue bit-identically.
    ///
    /// # Errors
    ///
    /// [`StoreError::Invalid`] if the snapshot's edges violate RAG
    /// invariants (possible only for forged or cross-version snapshots —
    /// captures of a live session always restore).
    pub fn restore_from(snap: &SessionSnapshot) -> Result<Self, StoreError> {
        let rag = snap.restore_rag()?;
        let mut engine = DetectEngine::new(rag.resources(), rag.processes());
        engine.restore(&rag, snap.engine, snap.cached);
        Ok(Session { rag, engine })
    }

    /// The tracked graph.
    pub fn rag(&self) -> &Rag {
        &self.rag
    }

    /// The session engine's operation counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Applies a whole batch in submission order, appending one result
    /// per event to `out` and returning the tallies. This is the single
    /// ingestion path shared by the shards and the replay checks
    /// (the e2e tests feed a connection's event log through a fresh
    /// session via this method and demand bit-identical results).
    pub fn apply_batch(&mut self, events: &[Event], out: &mut Vec<EventResult>) -> BatchTally {
        let mut tally = BatchTally::default();
        out.reserve(events.len());
        for &ev in events {
            tally.events += 1;
            if matches!(ev, Event::Probe | Event::WouldDeadlock { .. }) {
                tally.probes += 1;
            }
            let r = self.apply(ev);
            if matches!(r, EventResult::Rejected(_)) {
                tally.rejected += 1;
            }
            out.push(r);
        }
        tally
    }

    /// Applies one event, returning its result. Edits that violate the
    /// RAG invariants are rejected without changing session state.
    pub fn apply(&mut self, event: Event) -> EventResult {
        match event {
            Event::Request { p, q } => match self.rag.add_request(p, q) {
                Ok(()) => EventResult::Ack,
                Err(e) => EventResult::Rejected((&e).into()),
            },
            Event::Grant { q, p } => match self.rag.add_grant(q, p) {
                Ok(()) => EventResult::Ack,
                Err(e) => EventResult::Rejected((&e).into()),
            },
            Event::Release { q, p } => {
                // Owner release frees the grant; otherwise withdraw the
                // pending request, if any.
                if self.rag.owner(q) == Some(p) {
                    match self.rag.remove_grant(q, p) {
                        Ok(()) => EventResult::Ack,
                        Err(e) => EventResult::Rejected((&e).into()),
                    }
                } else if self.rag.remove_request(p, q) {
                    EventResult::Ack
                } else {
                    EventResult::Rejected(crate::proto::RejectReason::NoSuchEdge)
                }
            }
            Event::Probe => EventResult::Outcome(self.engine.probe(&self.rag)),
            Event::WouldDeadlock { p, q } => {
                // Tentative admission, probe, rollback — the avoidance
                // R-dl check served through the persistent engine. The
                // add/remove pair lands in the journal, so the rollback
                // is two deltas, not a rebuild.
                match self.rag.add_request(p, q) {
                    Err(e) => EventResult::Rejected((&e).into()),
                    Ok(()) => {
                        let outcome = self.engine.probe(&self.rag);
                        self.rag.remove_request(p, q);
                        EventResult::Outcome(outcome)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RejectReason;
    use deltaos_core::{ProcId, ResId};

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }
    fn q(i: u16) -> ResId {
        ResId(i)
    }

    #[test]
    fn probe_detects_cycle_built_from_events() {
        let mut s = Session::new(2, 2);
        assert_eq!(s.apply(Event::Grant { q: q(0), p: p(0) }), EventResult::Ack);
        assert_eq!(s.apply(Event::Grant { q: q(1), p: p(1) }), EventResult::Ack);
        assert_eq!(
            s.apply(Event::Request { p: p(0), q: q(1) }),
            EventResult::Ack
        );
        match s.apply(Event::Probe) {
            EventResult::Outcome(o) => assert!(!o.deadlock),
            other => panic!("unexpected {other:?}"),
        }
        s.apply(Event::Request { p: p(1), q: q(0) });
        match s.apply(Event::Probe) {
            EventResult::Outcome(o) => assert!(o.deadlock),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn would_deadlock_leaves_state_unchanged() {
        let mut s = Session::new(2, 2);
        s.apply(Event::Grant { q: q(0), p: p(0) });
        s.apply(Event::Grant { q: q(1), p: p(1) });
        s.apply(Event::Request { p: p(0), q: q(1) });
        let before = s.rag().clone();
        match s.apply(Event::WouldDeadlock { p: p(1), q: q(0) }) {
            EventResult::Outcome(o) => assert!(o.deadlock, "the edge would close the cycle"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.rag(), &before, "hypothetical probe must not persist");
        // The state itself stays deadlock-free.
        match s.apply(Event::Probe) {
            EventResult::Outcome(o) => assert!(!o.deadlock),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn release_frees_grant_or_withdraws_request() {
        let mut s = Session::new(2, 2);
        s.apply(Event::Grant { q: q(0), p: p(0) });
        s.apply(Event::Request { p: p(1), q: q(0) });
        // Non-owner release withdraws the request edge.
        assert_eq!(
            s.apply(Event::Release { q: q(0), p: p(1) }),
            EventResult::Ack
        );
        // Owner release frees the resource.
        assert_eq!(
            s.apply(Event::Release { q: q(0), p: p(0) }),
            EventResult::Ack
        );
        assert_eq!(s.rag().owner(q(0)), None);
        // Releasing nothing is a typed rejection.
        assert_eq!(
            s.apply(Event::Release { q: q(0), p: p(0) }),
            EventResult::Rejected(RejectReason::NoSuchEdge)
        );
    }

    #[test]
    fn invalid_edits_reject_without_state_change() {
        let mut s = Session::new(2, 2);
        s.apply(Event::Grant { q: q(0), p: p(0) });
        assert_eq!(
            s.apply(Event::Grant { q: q(0), p: p(1) }),
            EventResult::Rejected(RejectReason::ResourceBusy)
        );
        assert_eq!(
            s.apply(Event::Request { p: p(9), q: q(0) }),
            EventResult::Rejected(RejectReason::UnknownId)
        );
        assert_eq!(s.rag().owner(q(0)), Some(p(0)));
    }

    #[test]
    fn apply_batch_matches_event_by_event_application_and_tallies() {
        let events = vec![
            Event::Grant { q: q(0), p: p(0) },
            Event::Grant { q: q(0), p: p(1) }, // rejected: busy
            Event::Request { p: p(1), q: q(0) },
            Event::Probe,
            Event::WouldDeadlock { p: p(0), q: q(1) },
        ];
        let mut batched = Session::new(2, 2);
        let mut got = Vec::new();
        let tally = batched.apply_batch(&events, &mut got);
        let mut single = Session::new(2, 2);
        let expect: Vec<EventResult> = events.iter().map(|&ev| single.apply(ev)).collect();
        assert_eq!(got, expect);
        assert_eq!(
            tally,
            BatchTally {
                events: 5,
                probes: 2,
                rejected: 1
            }
        );
        assert_eq!(batched.rag(), single.rag());
    }

    #[test]
    fn repeat_probes_hit_the_engine_cache() {
        let mut s = Session::new(4, 4);
        s.apply(Event::Grant { q: q(0), p: p(0) });
        s.apply(Event::Probe);
        s.apply(Event::Probe);
        s.apply(Event::Probe);
        let stats = s.engine_stats();
        assert_eq!(stats.probes, 3);
        assert_eq!(stats.cache_hits, 2, "unchanged state must not re-reduce");
    }
}

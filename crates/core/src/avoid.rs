//! The Deadlock Avoidance Algorithm (Algorithm 3), shared between the
//! software DAA and the hardware DAU.
//!
//! The decision logic is written once in [`Avoider`] and parameterized
//! over a [`DeadlockProbe`] — the engine that answers "would this state
//! deadlock?". The software configuration (RTOS3) probes with the metered
//! sequential PDDA; the hardware configuration (RTOS4) probes with the
//! DDU's step-counted parallel engine. Both probes return identical
//! booleans (property-tested), so the DAA and the DAU make identical
//! decisions and differ only in how long they take — which is precisely
//! the comparison of Tables 7 and 9.
//!
//! ## The avoidance invariant
//!
//! Deadlock avoidance (Definition 3) means the tracked state can **never**
//! contain a circular wait. The avoider therefore refuses to admit any
//! edge that would close a cycle:
//!
//! * a request that would cause **R-dl** is *parked* — remembered in a
//!   side table, not entered into the matrix — while a give-up ask is
//!   issued (lines 5–11 of Algorithm 3);
//! * a grant that would cause **G-dl** is undone and the released
//!   resource offered to the next-lower-priority waiter (lines 18–19).
//!
//! Property tests assert the invariant directly: after every command the
//! RAG is acyclic.
//!
//! ## Livelock
//!
//! When a released resource cannot be granted to *any* waiter without
//! G-dl, the avoider reports livelock and asks a blocked resource-holding
//! process (lowest priority first) to shed its holdings — the paper's
//! "the DAU asks one of the processes involved in the livelock to release
//! resource(s)" (Section 4.1).

use crate::engine::{DetectEngine, EngineStats};
use crate::pdda::DetectOutcome;
use crate::{CoreError, Priority, ProcId, Rag, ResId};

/// Engine answering "does this state contain a deadlock?".
///
/// Implementations are expected to also account their own cost (metered
/// instruction counts for software, hardware steps for the DDU).
pub trait DeadlockProbe {
    /// Returns `true` if `rag` contains a circular wait.
    fn would_deadlock(&mut self, rag: &Rag) -> bool;
}

/// A zero-cost probe using the word-parallel PDDA; useful for tests and
/// for callers that do not need cost accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastProbe;

impl DeadlockProbe for FastProbe {
    fn would_deadlock(&mut self, rag: &Rag) -> bool {
        crate::pdda::detect(rag).deadlock
    }
}

/// A non-metered probe that **owns** a persistent [`DetectEngine`], so an
/// avoider's tentative-edit probes ride the engine's delta journal and
/// result cache instead of rebuilding scratch state per decision — the
/// ROADMAP's engine-backed avoidance fast path.
///
/// Unlike [`FastProbe`] (which shares a thread-local engine with every
/// other `pdda::detect` caller on the thread, and therefore thrashes that
/// engine's mirror whenever callers alternate between graphs), an
/// `EngineProbe` is dedicated to its owner: consecutive probes of the
/// same avoider's RAG are pure delta syncs. The decisions are identical —
/// both paths run the same word-parallel reduction — and the metered
/// configurations ([`crate::daa::SwDaa`], `dau`) are untouched, so the
/// Table 7/9 cycle counts cannot shift.
#[derive(Debug, Clone)]
pub struct EngineProbe {
    engine: DetectEngine,
}

impl EngineProbe {
    /// Creates a probe sized for `resources` × `processes`; the engine
    /// reshapes automatically if a differently-sized RAG shows up.
    pub fn new(resources: usize, processes: usize) -> Self {
        EngineProbe {
            engine: DetectEngine::new(resources.max(1), processes.max(1)),
        }
    }

    /// Full detection outcome for `rag` (verdict plus iteration/step
    /// counts), served through the persistent engine.
    pub fn outcome(&mut self, rag: &Rag) -> DetectOutcome {
        if rag.resources() == 0 || rag.processes() == 0 {
            return crate::pdda::TRIVIAL;
        }
        if rag.resources() > self.engine.resources() || rag.processes() > self.engine.processes() {
            self.engine.ensure_dims(rag.resources(), rag.processes());
        }
        self.engine.probe(rag)
    }

    /// The owned engine's operation counters (probes, cache hits, delta
    /// syncs, rebuilds).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Seeds the owned engine from a recovered snapshot (counters +
    /// optional cached outcome for `rag`), so a restored avoidance
    /// session's next probe takes the same path — cache hit, delta sync,
    /// or rebuild — the uninterrupted one would have.
    pub fn restore(&mut self, rag: &Rag, stats: EngineStats, cached: Option<DetectOutcome>) {
        self.engine.restore(rag, stats, cached);
    }
}

impl DeadlockProbe for EngineProbe {
    fn would_deadlock(&mut self, rag: &Rag) -> bool {
        self.outcome(rag).deadlock
    }
}

/// Who gets asked to give up on an R-dl (ablation knob; the paper's
/// Algorithm 3 uses [`RdlVictimPolicy::ByPriority`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RdlVictimPolicy {
    /// Algorithm 3 lines 6–10: higher-priority requester → ask the
    /// owner; otherwise the requester sheds.
    #[default]
    ByPriority,
    /// Always ask the owner of the contested resource.
    AlwaysOwner,
    /// Always ask the requester to shed (owner fallback when it holds
    /// nothing, to preserve liveness).
    AlwaysRequester,
}

/// Why a give-up was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUpReason {
    /// Request deadlock: the resource's owner must release it.
    RequestDeadlock,
    /// Request deadlock: the low-priority requester must shed its holdings.
    RequesterSheds,
    /// Livelock: no waiter could be granted without grant deadlock.
    Livelock,
}

/// An outstanding "please release these resources" ask (Assumption 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GiveUpAsk {
    /// The process being asked.
    pub target: ProcId,
    /// The resources it should release.
    pub resources: Vec<ResId>,
    /// Why the avoider asked.
    pub reason: GiveUpReason,
}

/// Result of a request command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The resource was free and is now granted to the requester
    /// (line 4).
    Granted,
    /// The resource is busy; the request is queued (line 13).
    Pending,
    /// R-dl detected and the requester outranks the owner: request parked,
    /// owner asked to release the contested resource (lines 7–8).
    PendingOwnerAsked(GiveUpAsk),
    /// R-dl detected and the owner outranks the requester: request parked,
    /// requester asked to shed the resources it holds (line 10).
    PendingRequesterAsked(GiveUpAsk),
}

impl RequestOutcome {
    /// `true` when the command ended with the resource granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, RequestOutcome::Granted)
    }

    /// `true` when the request hit request-deadlock handling.
    pub fn is_rdl(&self) -> bool {
        matches!(
            self,
            RequestOutcome::PendingOwnerAsked(_) | RequestOutcome::PendingRequesterAsked(_)
        )
    }
}

/// Result of a release command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// Nobody was waiting; the resource is simply available (line 24).
    NoWaiters,
    /// Granted to a waiter. `bypassed_gdl` lists higher-priority waiters
    /// that were skipped because granting them would cause grant deadlock
    /// (line 19) — non-empty exactly when the G-dl dodge fired.
    GrantedTo {
        /// The process that received the resource.
        process: ProcId,
        /// Higher-priority waiters passed over due to G-dl.
        bypassed_gdl: Vec<ProcId>,
    },
    /// Every waiter would deadlock; livelock resolution may have asked a
    /// process to shed resources.
    Livelock {
        /// The give-up ask issued, if a blocked holder exists to ask.
        ask: Option<GiveUpAsk>,
    },
}

impl ReleaseOutcome {
    /// `true` when the G-dl avoidance path fired (Table 6's t5 event).
    pub fn is_gdl(&self) -> bool {
        match self {
            ReleaseOutcome::GrantedTo { bypassed_gdl, .. } => !bypassed_gdl.is_empty(),
            ReleaseOutcome::Livelock { .. } => true,
            ReleaseOutcome::NoWaiters => false,
        }
    }
}

/// The Algorithm-3 decision engine.
///
/// # Example
///
/// ```
/// use deltaos_core::avoid::{Avoider, FastProbe, RequestOutcome};
/// use deltaos_core::{Priority, ProcId, ResId};
///
/// # fn main() -> Result<(), deltaos_core::CoreError> {
/// let mut av = Avoider::new(2, 2);
/// av.set_priority(ProcId(0), Priority::new(1));
/// av.set_priority(ProcId(1), Priority::new(2));
/// let mut probe = FastProbe;
/// assert_eq!(av.request(ProcId(0), ResId(0), &mut probe)?, RequestOutcome::Granted);
/// assert_eq!(av.request(ProcId(1), ResId(0), &mut probe)?, RequestOutcome::Pending);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Avoider {
    rag: Rag,
    priorities: Vec<Priority>,
    /// R-dl-refused requests: logically waiting, but their edges are kept
    /// out of the matrix so the tracked state stays acyclic.
    parked: Vec<(ProcId, ResId)>,
    outstanding: Vec<GiveUpAsk>,
    livelock_events: u64,
    rdl_policy: RdlVictimPolicy,
    /// Fixed grants recorded since the last [`Avoider::take_grants`], in
    /// decision order. A broker layered above the avoider drains this
    /// after every command to learn which blocked waiters to wake —
    /// including grants that fall out of `recheck_parked`, which no
    /// command outcome otherwise reports.
    grant_log: Vec<(ProcId, ResId)>,
}

impl Avoider {
    /// Creates an avoider for `resources` × `processes` with all
    /// priorities at [`Priority::LOWEST`].
    pub fn new(resources: usize, processes: usize) -> Self {
        Avoider {
            rag: Rag::new(resources, processes),
            priorities: vec![Priority::LOWEST; processes],
            parked: Vec::new(),
            outstanding: Vec::new(),
            livelock_events: 0,
            rdl_policy: RdlVictimPolicy::default(),
            grant_log: Vec::new(),
        }
    }

    /// Rebuilds an avoider from previously captured state (a durable
    /// snapshot). The caller supplies the tracked RAG with its edges in
    /// original insertion order plus the side tables; the result behaves
    /// identically to the avoider the state was captured from.
    ///
    /// # Panics
    ///
    /// Panics if `priorities` does not match the RAG's process dimension.
    pub fn from_parts(
        rag: Rag,
        priorities: Vec<Priority>,
        parked: Vec<(ProcId, ResId)>,
        outstanding: Vec<GiveUpAsk>,
        livelock_events: u64,
    ) -> Self {
        assert_eq!(
            priorities.len(),
            rag.processes(),
            "priority table must cover every process"
        );
        Avoider {
            rag,
            priorities,
            parked,
            outstanding,
            livelock_events,
            rdl_policy: RdlVictimPolicy::default(),
            grant_log: Vec::new(),
        }
    }

    /// The full priority table, indexed by process.
    pub fn priorities(&self) -> &[Priority] {
        &self.priorities
    }

    /// Drains the fixed grants recorded since the last call, in decision
    /// order.
    pub fn take_grants(&mut self) -> Vec<(ProcId, ResId)> {
        std::mem::take(&mut self.grant_log)
    }

    /// Overrides the R-dl victim selection (ablation studies).
    pub fn set_rdl_policy(&mut self, policy: RdlVictimPolicy) {
        self.rdl_policy = policy;
    }

    /// Decides whether the owner (vs the requester) is asked to give up
    /// for an R-dl on `(requester, owner)` where the requester holds
    /// `held`.
    fn ask_owner_for_rdl(&self, requester: ProcId, owner: ProcId, held_empty: bool) -> bool {
        match self.rdl_policy {
            RdlVictimPolicy::ByPriority => {
                self.priorities[requester.index()].is_higher_than(self.priorities[owner.index()])
                    || held_empty
            }
            RdlVictimPolicy::AlwaysOwner => true,
            RdlVictimPolicy::AlwaysRequester => held_empty,
        }
    }

    /// Sets the scheduling priority of `p` used in R-dl/G-dl arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_priority(&mut self, p: ProcId, priority: Priority) {
        self.priorities[p.index()] = priority;
    }

    /// The priority of `p`.
    pub fn priority(&self, p: ProcId) -> Priority {
        self.priorities[p.index()]
    }

    /// The tracked system state (always acyclic).
    pub fn rag(&self) -> &Rag {
        &self.rag
    }

    /// R-dl-parked requests: `(requester, resource)` pairs waiting outside
    /// the matrix.
    pub fn parked_requests(&self) -> &[(ProcId, ResId)] {
        &self.parked
    }

    /// Outstanding give-up asks not yet satisfied by a release.
    pub fn outstanding_giveups(&self) -> &[GiveUpAsk] {
        &self.outstanding
    }

    /// How many livelock resolutions have fired since construction.
    pub fn livelock_events(&self) -> u64 {
        self.livelock_events
    }

    /// Every resource `p` is waiting for, whether queued in the matrix or
    /// parked.
    pub fn waiting_on(&self, p: ProcId) -> Vec<ResId> {
        let mut v = self.rag.waiting_on(p);
        for &(pp, q) in &self.parked {
            if pp == p && !v.contains(&q) {
                v.push(q);
            }
        }
        v
    }

    /// Processes a resource request (lines 2–15 of Algorithm 3).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] for id violations, duplicate requests and
    /// requests for held resources.
    pub fn request(
        &mut self,
        p: ProcId,
        q: ResId,
        probe: &mut dyn DeadlockProbe,
    ) -> Result<RequestOutcome, CoreError> {
        if self.parked.contains(&(p, q)) {
            return Err(CoreError::DuplicateEdge {
                process: p,
                resource: q,
            });
        }
        match self.rag.owner(q) {
            // Lines 3–4: available → grant immediately. (A free resource
            // has no request edges into it, so this cannot close a cycle.)
            None => {
                self.rag.add_grant(q, p)?;
                self.grant_log.push((p, q));
                Ok(RequestOutcome::Granted)
            }
            Some(owner) => {
                // Tentatively admit the request edge, then ask the probe —
                // the single deadlock bit the DDU produces.
                self.rag.add_request(p, q)?;
                let rdl = probe.would_deadlock(&self.rag);
                if !rdl {
                    // Line 13: safe to queue in the matrix.
                    return Ok(RequestOutcome::Pending);
                }
                // R-dl: refuse the edge (the state must stay acyclic) and
                // park the request instead.
                self.rag.remove_request(p, q);
                self.parked.push((p, q));

                let held = self.rag.held_by(p);
                if self.ask_owner_for_rdl(p, owner, held.is_empty()) {
                    // Lines 7–8: ask the owner for this resource. Also the
                    // fallback when the requester has nothing to shed.
                    let ask = GiveUpAsk {
                        target: owner,
                        resources: vec![q],
                        reason: GiveUpReason::RequestDeadlock,
                    };
                    self.push_ask(ask.clone());
                    Ok(RequestOutcome::PendingOwnerAsked(ask))
                } else {
                    // Line 10: ask the requester to shed what it holds (it
                    // cannot finish anyway until this request is
                    // satisfied).
                    let ask = GiveUpAsk {
                        target: p,
                        resources: held,
                        reason: GiveUpReason::RequesterSheds,
                    };
                    self.push_ask(ask.clone());
                    Ok(RequestOutcome::PendingRequesterAsked(ask))
                }
            }
        }
    }

    /// Processes a resource release (lines 16–25 of Algorithm 3).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`] if `p` does not hold `q` (Assumption 2).
    pub fn release(
        &mut self,
        p: ProcId,
        q: ResId,
        probe: &mut dyn DeadlockProbe,
    ) -> Result<ReleaseOutcome, CoreError> {
        self.rag.remove_grant(q, p)?;
        // A release satisfies any outstanding ask that mentioned (p, q).
        for ask in &mut self.outstanding {
            if ask.target == p {
                ask.resources.retain(|&r| r != q);
            }
        }
        self.outstanding.retain(|a| !a.resources.is_empty());

        // Line 17: candidates are the matrix waiters plus any parked
        // requests for this resource, highest priority first (stable over
        // arrival order among equals).
        let mut waiters: Vec<(ProcId, bool)> =
            self.rag.requesters(q).iter().map(|&w| (w, false)).collect();
        for &(pp, qq) in &self.parked {
            if qq == q {
                waiters.push((pp, true));
            }
        }
        if waiters.is_empty() {
            self.recheck_parked(probe);
            return Ok(ReleaseOutcome::NoWaiters); // line 24
        }
        waiters.sort_by_key(|&(w, _)| self.priorities[w.index()]);

        let mut bypassed = Vec::new();
        for &(w, was_parked) in &waiters {
            // Temporary grant (the DAU marks its internal matrix), then
            // probe for G-dl. `add_grant` consumes a matrix request edge
            // if present.
            self.rag.add_grant(q, w)?;
            let gdl = probe.would_deadlock(&self.rag);
            if gdl {
                // Undo the temporary grant; restore the matrix request
                // edge for matrix waiters (parked ones stay parked).
                self.rag.remove_grant(q, w)?;
                if !was_parked {
                    self.rag.add_request(w, q)?;
                }
                bypassed.push(w);
            } else {
                // Fixed grant (lines 19/21).
                if was_parked {
                    self.parked.retain(|&(pp, qq)| (pp, qq) != (w, q));
                }
                self.grant_log.push((w, q));
                self.recheck_parked(probe);
                return Ok(ReleaseOutcome::GrantedTo {
                    process: w,
                    bypassed_gdl: bypassed,
                });
            }
        }

        // No waiter can take the resource without deadlock: livelock. Ask
        // the lowest-priority blocked process that holds resources to shed
        // them (waiters of `q` preferred, then any blocked holder).
        self.livelock_events += 1;
        let ask = self
            .livelock_victim(waiters.iter().map(|&(w, _)| w))
            .map(|victim| GiveUpAsk {
                target: victim,
                resources: self.rag.held_by(victim),
                reason: GiveUpReason::Livelock,
            });
        if let Some(a) = &ask {
            self.push_ask(a.clone());
        }
        self.recheck_parked(probe);
        Ok(ReleaseOutcome::Livelock { ask })
    }

    /// Re-evaluates every parked request after the state changed: a parked
    /// request is admitted (into the matrix, or granted outright if its
    /// resource became free) as soon as it no longer closes a cycle;
    /// otherwise its give-up ask is re-issued against the current owner.
    /// This guarantees the progress invariant *parked ⇒ somebody has been
    /// asked to give up*.
    fn recheck_parked(&mut self, probe: &mut dyn DeadlockProbe) {
        let snapshot = self.parked.clone();
        for (pp, qq) in snapshot {
            if !self.parked.contains(&(pp, qq)) {
                continue; // served earlier in this pass
            }
            let admissible = match self.rag.owner(qq) {
                None => {
                    // Resource free (e.g. after a livelock release): try
                    // to grant it outright.
                    self.rag.add_grant(qq, pp).is_ok() && {
                        if probe.would_deadlock(&self.rag) {
                            let _ = self.rag.remove_grant(qq, pp);
                            false
                        } else {
                            self.grant_log.push((pp, qq));
                            true
                        }
                    }
                }
                Some(_) => {
                    self.rag.add_request(pp, qq).is_ok() && {
                        if probe.would_deadlock(&self.rag) {
                            self.rag.remove_request(pp, qq);
                            false
                        } else {
                            true
                        }
                    }
                }
            };
            if admissible {
                self.parked.retain(|&e| e != (pp, qq));
            } else {
                self.reissue_ask(pp, qq);
            }
        }
    }

    /// Issues (or re-issues) the give-up ask covering a parked request,
    /// following the same priority rule as the request path.
    fn reissue_ask(&mut self, p: ProcId, q: ResId) {
        match self.rag.owner(q) {
            Some(owner) => {
                let held = self.rag.held_by(p);
                if self.ask_owner_for_rdl(p, owner, held.is_empty()) {
                    self.push_ask(GiveUpAsk {
                        target: owner,
                        resources: vec![q],
                        reason: GiveUpReason::RequestDeadlock,
                    });
                } else {
                    self.push_ask(GiveUpAsk {
                        target: p,
                        resources: held,
                        reason: GiveUpReason::RequesterSheds,
                    });
                }
            }
            None => {
                // Free resource that still cannot be granted: a blocked
                // holder somewhere closes the would-be cycle; ask it.
                if let Some(victim) = self.livelock_victim(std::iter::empty()) {
                    let held = self.rag.held_by(victim);
                    self.push_ask(GiveUpAsk {
                        target: victim,
                        resources: held,
                        reason: GiveUpReason::Livelock,
                    });
                }
            }
        }
    }

    /// Picks the livelock victim: lowest-priority resource-holding waiter
    /// of the contested resource, falling back to any blocked holder.
    fn livelock_victim(&self, waiters: impl DoubleEndedIterator<Item = ProcId>) -> Option<ProcId> {
        let holder = |w: &ProcId| !self.rag.held_by(*w).is_empty();
        if let Some(w) = waiters.rev().find(holder) {
            return Some(w);
        }
        // Any process that is blocked (waiting or parked) and holds
        // something, lowest priority first.
        let mut blocked: Vec<ProcId> = (0..self.rag.processes() as u16)
            .map(ProcId)
            .filter(|&pp| !self.waiting_on(pp).is_empty())
            .filter(holder)
            .collect();
        blocked.sort_by_key(|w| self.priorities[w.index()]);
        blocked.pop()
    }

    /// Withdraws a pending request `p → q` (a process giving up waiting),
    /// whether queued or parked; returns whether it existed.
    pub fn cancel_request(&mut self, p: ProcId, q: ResId) -> bool {
        let in_matrix = self.rag.remove_request(p, q);
        let before = self.parked.len();
        self.parked.retain(|&(pp, qq)| (pp, qq) != (p, q));
        in_matrix || self.parked.len() != before
    }

    /// Records an ask, deduplicating identical outstanding ones so
    /// repeated R-dl hits cannot grow the list unboundedly.
    fn push_ask(&mut self, ask: GiveUpAsk) {
        if !self
            .outstanding
            .iter()
            .any(|a| a.target == ask.target && a.resources == ask.resources)
        {
            self.outstanding.push(ask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }
    fn q(i: u16) -> ResId {
        ResId(i)
    }

    /// Builds a 5×5 avoider with paper-style priorities: p1 highest.
    fn avoider() -> Avoider {
        let mut av = Avoider::new(5, 5);
        for i in 0..5 {
            av.set_priority(p(i), Priority::new(i as u8 + 1));
        }
        av
    }

    #[test]
    fn free_resource_granted_immediately() {
        let mut av = avoider();
        let out = av.request(p(0), q(0), &mut FastProbe).unwrap();
        assert_eq!(out, RequestOutcome::Granted);
        assert_eq!(av.rag().owner(q(0)), Some(p(0)));
    }

    #[test]
    fn busy_resource_pends_without_rdl() {
        let mut av = avoider();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        let out = av.request(p(1), q(0), &mut FastProbe).unwrap();
        assert_eq!(out, RequestOutcome::Pending);
        assert!(!out.is_granted());
    }

    #[test]
    fn rdl_high_priority_requester_asks_owner_and_parks() {
        // p2 holds q1 and is waiting for q0 (held by p1); p1 requests q1
        // → would close the cycle → R-dl.
        let mut av = avoider();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap(); // pending
        let out = av.request(p(0), q(1), &mut FastProbe).unwrap();
        match out {
            RequestOutcome::PendingOwnerAsked(ask) => {
                assert_eq!(ask.target, p(1));
                assert_eq!(ask.resources, vec![q(1)]);
                assert_eq!(ask.reason, GiveUpReason::RequestDeadlock);
            }
            other => panic!("expected owner ask, got {other:?}"),
        }
        assert_eq!(av.outstanding_giveups().len(), 1);
        assert_eq!(av.parked_requests(), &[(p(0), q(1))]);
        // The avoidance invariant: the tracked state never holds a cycle.
        assert!(!av.rag().has_cycle());
    }

    #[test]
    fn rdl_low_priority_requester_sheds() {
        // p1 (high) holds q0 and waits q1; p2 (low) holds q1, requests q0
        // → R-dl with the *owner* (p1) being higher priority → p2 sheds.
        let mut av = avoider();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // pending, no cycle
        let out = av.request(p(1), q(0), &mut FastProbe).unwrap();
        match out {
            RequestOutcome::PendingRequesterAsked(ask) => {
                assert_eq!(ask.target, p(1));
                assert_eq!(ask.resources, vec![q(1)]);
                assert_eq!(ask.reason, GiveUpReason::RequesterSheds);
            }
            other => panic!("expected requester ask, got {other:?}"),
        }
        assert!(!av.rag().has_cycle());
    }

    #[test]
    fn parked_request_served_on_release() {
        // Table 8 flow: R-dl parks p1's request; the owner gives up; the
        // release grants the parked request.
        let mut av = avoider();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // R-dl, parked
        let out = av.release(p(1), q(1), &mut FastProbe).unwrap();
        assert_eq!(
            out,
            ReleaseOutcome::GrantedTo {
                process: p(0),
                bypassed_gdl: vec![]
            }
        );
        assert!(av.parked_requests().is_empty());
        assert!(av.outstanding_giveups().is_empty());
        assert_eq!(av.rag().owner(q(1)), Some(p(0)));
    }

    #[test]
    fn release_grants_highest_priority_waiter() {
        let mut av = avoider();
        av.request(p(2), q(0), &mut FastProbe).unwrap();
        av.request(p(3), q(0), &mut FastProbe).unwrap(); // pending
        av.request(p(1), q(0), &mut FastProbe).unwrap(); // pending
        let out = av.release(p(2), q(0), &mut FastProbe).unwrap();
        assert_eq!(
            out,
            ReleaseOutcome::GrantedTo {
                process: p(1),
                bypassed_gdl: vec![]
            }
        );
        assert_eq!(av.rag().owner(q(0)), Some(p(1)));
        assert_eq!(av.rag().requesters(q(0)), &[p(3)]);
    }

    #[test]
    fn release_without_waiters_frees_resource() {
        let mut av = avoider();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        let out = av.release(p(0), q(0), &mut FastProbe).unwrap();
        assert_eq!(out, ReleaseOutcome::NoWaiters);
        assert_eq!(av.rag().owner(q(0)), None);
    }

    #[test]
    fn release_by_non_owner_rejected() {
        let mut av = avoider();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        assert!(matches!(
            av.release(p(1), q(0), &mut FastProbe),
            Err(CoreError::NotOwner { .. })
        ));
    }

    #[test]
    fn gdl_dodge_grants_lower_priority_waiter() {
        // The paper's Table 6 situation, reduced: p2 (higher) waits q2 and
        // q4; p3 (lower) holds q4 and waits q2. Granting q2 to p2 would
        // close the cycle p2→q4→p3→q2→p2, so the avoider grants q2 to p3.
        let mut av = avoider();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // p1 takes q2
        av.request(p(2), q(3), &mut FastProbe).unwrap(); // p3 takes q4
        av.request(p(2), q(1), &mut FastProbe).unwrap(); // p3 waits q2
        av.request(p(1), q(1), &mut FastProbe).unwrap(); // p2 waits q2
        av.request(p(1), q(3), &mut FastProbe).unwrap(); // p2 waits q4
        let out = av.release(p(0), q(1), &mut FastProbe).unwrap();
        assert!(out.is_gdl());
        match out {
            ReleaseOutcome::GrantedTo {
                process,
                bypassed_gdl,
            } => {
                assert_eq!(process, p(2), "q2 must go to the lower-priority p3");
                assert_eq!(bypassed_gdl, vec![p(1)]);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(!av.rag().has_cycle());
    }

    #[test]
    fn bypassed_waiter_keeps_its_request() {
        let mut av = avoider();
        av.request(p(0), q(1), &mut FastProbe).unwrap();
        av.request(p(2), q(3), &mut FastProbe).unwrap();
        av.request(p(2), q(1), &mut FastProbe).unwrap();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(1), q(3), &mut FastProbe).unwrap();
        av.release(p(0), q(1), &mut FastProbe).unwrap();
        // p2 still waits for q2 (and q4).
        assert!(av.rag().waiting_on(p(1)).contains(&q(1)));
    }

    #[test]
    fn duplicate_request_is_error_even_when_parked() {
        let mut av = avoider();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // parked
        assert!(matches!(
            av.request(p(0), q(1), &mut FastProbe),
            Err(CoreError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn cancel_request_removes_matrix_and_parked_entries() {
        let mut av = avoider();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        assert!(av.cancel_request(p(1), q(0)));
        assert!(!av.cancel_request(p(1), q(0)));
        assert!(av.rag().requesters(q(0)).is_empty());
        // Parked entry cancellation.
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // parked (R-dl)
        assert!(av.cancel_request(p(0), q(1)));
        assert!(av.parked_requests().is_empty());
    }

    #[test]
    fn waiting_on_includes_parked() {
        let mut av = avoider();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // parked
        assert_eq!(av.waiting_on(p(0)), vec![q(1)]);
    }

    #[test]
    fn grant_log_records_every_fixed_grant() {
        let mut av = avoider();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        assert_eq!(av.take_grants(), vec![(p(0), q(0))]);
        av.request(p(1), q(0), &mut FastProbe).unwrap(); // pending: not a grant
        assert!(av.take_grants().is_empty());
        av.release(p(0), q(0), &mut FastProbe).unwrap();
        assert_eq!(av.take_grants(), vec![(p(1), q(0))]);
        assert!(av.take_grants().is_empty(), "take drains the log");
    }

    #[test]
    fn grant_log_covers_parked_requests_served_on_release() {
        // Same flow as parked_request_served_on_release: the parked
        // request's grant must show up in the log.
        let mut av = avoider();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // R-dl, parked
        av.take_grants();
        av.release(p(1), q(1), &mut FastProbe).unwrap();
        assert_eq!(av.take_grants(), vec![(p(0), q(1))]);
    }

    #[test]
    fn from_parts_roundtrips_behavior() {
        let mut av = avoider();
        av.request(p(1), q(1), &mut FastProbe).unwrap();
        av.request(p(0), q(0), &mut FastProbe).unwrap();
        av.request(p(1), q(0), &mut FastProbe).unwrap();
        av.request(p(0), q(1), &mut FastProbe).unwrap(); // parked + ask
        av.take_grants();
        let rebuilt = Avoider::from_parts(
            av.rag().clone(),
            av.priorities().to_vec(),
            av.parked_requests().to_vec(),
            av.outstanding_giveups().to_vec(),
            av.livelock_events(),
        );
        let mut live = av.clone();
        let mut restored = rebuilt;
        let a = live.release(p(1), q(1), &mut FastProbe).unwrap();
        let b = restored.release(p(1), q(1), &mut FastProbe).unwrap();
        assert_eq!(a, b, "restored avoider must decide identically");
        assert_eq!(live.rag(), restored.rag());
        assert_eq!(live.take_grants(), restored.take_grants());
    }

    #[test]
    fn state_never_cyclic_under_adversarial_storm() {
        let mut av = avoider();
        let cmds: Vec<(u16, u16)> = vec![(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)];
        for (pi, qi) in cmds {
            let _ = av.request(p(pi), q(qi), &mut FastProbe);
            assert!(
                !av.rag().has_cycle(),
                "avoidance invariant violated: state contains a cycle"
            );
        }
    }
}

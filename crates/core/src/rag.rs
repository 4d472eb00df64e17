//! Resource Allocation Graph (RAG): the specification-level system state.
//!
//! The RAG is the classical bipartite directed graph over processes and
//! resources (the paper's `γ_ij`): a **request edge** `p → q` means process
//! `p` is blocked waiting for resource `q`; a **grant edge** `q → p` means
//! resource `q` is currently allocated to `p`. The paper's system model
//! (Section 3.2.2) uses *single-unit* resources — a resource is granted to
//! at most one process at a time — and [`Rag`] enforces that invariant.
//!
//! [`Rag::has_cycle`] is a straightforward depth-first search. It exists as
//! the *oracle* against which the Parallel Deadlock Detection Algorithm
//! ([`crate::pdda`]) is property-tested: the paper proves PDDA detects
//! deadlock iff the RAG contains a cycle.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{CoreError, ProcId, ResId};

/// Process-wide source of unique RAG identities. Detection engines key
/// their cached mirrors on `(id, epoch)`, so two distinct graphs must
/// never share an id even across threads.
static NEXT_RAG_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_rag_id() -> u64 {
    NEXT_RAG_ID.fetch_add(1, Ordering::Relaxed)
}

/// How many recent [`RagDelta`]s a [`Rag`] retains. A detection engine
/// that last synced within this many mutations can catch up by replaying
/// deltas; older engines fall back to a full rebuild. 256 covers many
/// OS scheduling quanta between detector invocations while keeping the
/// journal's memory bounded.
const JOURNAL_CAP: usize = 256;

/// One cell-level state change, as the DDU's cell array would see it.
///
/// Every successful [`Rag`] mutation appends exactly one delta: the
/// request/grant/empty value the matrix cell `(q, p)` now holds.
/// (A grant that consumes a pending request is a single delta — the
/// cell transitions `r → g` atomically, exactly like
/// [`crate::matrix::StateMatrix::set_grant`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RagDelta {
    /// Cell `(q, p)` became a request edge `p → q`.
    Request { p: ProcId, q: ResId },
    /// Cell `(q, p)` became a grant edge `q → p`.
    Grant { p: ProcId, q: ResId },
    /// Cell `(q, p)` became empty.
    Clear { p: ProcId, q: ResId },
}

/// The system state as an explicit request/grant edge set.
///
/// # Example
///
/// The two-process / two-resource circular wait:
///
/// ```
/// use deltaos_core::{ProcId, Rag, ResId};
///
/// # fn main() -> Result<(), deltaos_core::CoreError> {
/// let mut rag = Rag::new(2, 2);
/// rag.add_grant(ResId(0), ProcId(0))?;
/// rag.add_grant(ResId(1), ProcId(1))?;
/// rag.add_request(ProcId(0), ResId(1))?;
/// rag.add_request(ProcId(1), ResId(0))?;
/// assert!(rag.has_cycle());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Rag {
    resources: usize,
    processes: usize,
    /// `owner[q] = Some(p)` when grant edge `q → p` exists.
    owner: Vec<Option<ProcId>>,
    /// `requests[q]` = processes with a request edge `p → q`, in insertion
    /// order (deterministic iteration).
    requests: Vec<Vec<ProcId>>,
    /// Edges (requests + grants), kept by every mutator so
    /// [`Rag::edge_count`] is O(1).
    edges: usize,
    /// Unique graph identity (see [`Rag::id`]); a [`Clone`] gets a fresh
    /// one so engine caches never confuse two diverging copies.
    id: u64,
    /// Mutation counter: bumped once per successful edge change.
    epoch: u64,
    /// The last up-to-[`JOURNAL_CAP`] deltas, oldest first; entry `k`
    /// from the back took the graph from epoch `epoch - k - 1` to
    /// `epoch - k`.
    journal: VecDeque<RagDelta>,
}

/// Equality is structural — two RAGs are equal when they encode the same
/// edge set — so identity, epoch and journal are deliberately excluded.
impl PartialEq for Rag {
    fn eq(&self, other: &Self) -> bool {
        self.resources == other.resources
            && self.processes == other.processes
            && self.owner == other.owner
            && self.requests == other.requests
    }
}

impl Eq for Rag {}

/// A clone keeps the full edge state, epoch and journal but receives a
/// fresh [`Rag::id`]: the copy may diverge from the original, and the
/// incremental detection engine keys its mirror on `(id, epoch)`.
impl Clone for Rag {
    fn clone(&self) -> Self {
        Rag {
            resources: self.resources,
            processes: self.processes,
            owner: self.owner.clone(),
            requests: self.requests.clone(),
            edges: self.edges,
            id: fresh_rag_id(),
            epoch: self.epoch,
            journal: self.journal.clone(),
        }
    }
}

impl Rag {
    /// Creates an empty RAG for `resources` (m) rows and `processes` (n)
    /// columns.
    pub fn new(resources: usize, processes: usize) -> Self {
        Rag {
            resources,
            processes,
            owner: vec![None; resources],
            requests: vec![Vec::new(); resources],
            edges: 0,
            id: fresh_rag_id(),
            epoch: 0,
            journal: VecDeque::new(),
        }
    }

    /// Number of resources `m`.
    pub fn resources(&self) -> usize {
        self.resources
    }

    /// Number of processes `n`.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// This graph's unique identity. Never reused within a process; a
    /// [`Clone`] gets its own.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mutation epoch: the number of successful edge changes since
    /// construction. `(id, epoch)` uniquely names a graph *state*, which
    /// is what [`crate::engine::DetectEngine`] keys its mirror and its
    /// result cache on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` if the journal still holds every delta after `since_epoch`,
    /// i.e. a mirror synced at `since_epoch` can catch up by replay.
    pub fn journal_covers(&self, since_epoch: u64) -> bool {
        since_epoch <= self.epoch && (self.epoch - since_epoch) as usize <= self.journal.len()
    }

    /// The deltas that took the graph from `since_epoch` to the current
    /// epoch, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if the journal no longer covers `since_epoch` (check with
    /// [`Rag::journal_covers`] first).
    pub fn deltas_since(&self, since_epoch: u64) -> impl Iterator<Item = RagDelta> + '_ {
        assert!(
            self.journal_covers(since_epoch),
            "journal does not reach back to epoch {since_epoch} (now {}, {} entries)",
            self.epoch,
            self.journal.len()
        );
        let missing = (self.epoch - since_epoch) as usize;
        self.journal
            .iter()
            .skip(self.journal.len() - missing)
            .copied()
    }

    /// Records one successful mutation: bumps the epoch and appends the
    /// delta, evicting the oldest entry once the journal is full.
    fn record(&mut self, delta: RagDelta) {
        self.epoch += 1;
        if self.journal.len() == JOURNAL_CAP {
            self.journal.pop_front();
        }
        self.journal.push_back(delta);
    }

    fn check_ids(&self, p: ProcId, q: ResId) -> Result<(), CoreError> {
        if p.index() >= self.processes {
            return Err(CoreError::UnknownProcess(p));
        }
        if q.index() >= self.resources {
            return Err(CoreError::UnknownResource(q));
        }
        Ok(())
    }

    /// Adds the request edge `p → q`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownProcess`] / [`CoreError::UnknownResource`] for
    ///   out-of-range ids.
    /// * [`CoreError::DuplicateEdge`] if the same request already exists.
    /// * [`CoreError::RequestWhileHolding`] if `p` already holds `q`
    ///   (a process never waits for a resource it owns).
    pub fn add_request(&mut self, p: ProcId, q: ResId) -> Result<(), CoreError> {
        self.check_ids(p, q)?;
        if self.owner[q.index()] == Some(p) {
            return Err(CoreError::RequestWhileHolding {
                process: p,
                resource: q,
            });
        }
        if self.requests[q.index()].contains(&p) {
            return Err(CoreError::DuplicateEdge {
                process: p,
                resource: q,
            });
        }
        self.requests[q.index()].push(p);
        self.edges += 1;
        self.record(RagDelta::Request { p, q });
        Ok(())
    }

    /// Adds the grant edge `q → p`.
    ///
    /// Any pending request `p → q` is consumed (the request became a grant),
    /// matching how the DAU converts a pending request into a grant.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownProcess`] / [`CoreError::UnknownResource`] for
    ///   out-of-range ids.
    /// * [`CoreError::ResourceBusy`] if `q` is already granted (single-unit
    ///   resource invariant, Assumption 2 of the paper).
    pub fn add_grant(&mut self, q: ResId, p: ProcId) -> Result<(), CoreError> {
        self.check_ids(p, q)?;
        if let Some(cur) = self.owner[q.index()] {
            return Err(CoreError::ResourceBusy {
                resource: q,
                owner: cur,
            });
        }
        let reqs = &mut self.requests[q.index()];
        let before = reqs.len();
        reqs.retain(|&r| r != p);
        // A consumed request becomes the grant: one edge either way.
        if reqs.len() == before {
            self.edges += 1;
        }
        self.owner[q.index()] = Some(p);
        self.record(RagDelta::Grant { p, q });
        Ok(())
    }

    /// Removes the request edge `p → q` if present; returns whether it
    /// existed.
    pub fn remove_request(&mut self, p: ProcId, q: ResId) -> bool {
        if q.index() >= self.resources {
            return false;
        }
        let reqs = &mut self.requests[q.index()];
        let before = reqs.len();
        reqs.retain(|&r| r != p);
        let removed = reqs.len() != before;
        if removed {
            self.edges -= 1;
            self.record(RagDelta::Clear { p, q });
        }
        removed
    }

    /// Removes the grant edge `q → p`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`] if `q` is not currently granted to `p`
    /// (Assumption 2: only the holder may release).
    pub fn remove_grant(&mut self, q: ResId, p: ProcId) -> Result<(), CoreError> {
        self.check_ids(p, q)?;
        if self.owner[q.index()] != Some(p) {
            return Err(CoreError::NotOwner {
                process: p,
                resource: q,
            });
        }
        self.owner[q.index()] = None;
        self.edges -= 1;
        self.record(RagDelta::Clear { p, q });
        Ok(())
    }

    /// The current owner of `q`, if granted.
    pub fn owner(&self, q: ResId) -> Option<ProcId> {
        self.owner.get(q.index()).copied().flatten()
    }

    /// Processes with a pending request for `q`, in request order.
    pub fn requesters(&self, q: ResId) -> &[ProcId] {
        self.requests
            .get(q.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Resources currently held by `p`.
    pub fn held_by(&self, p: ProcId) -> Vec<ResId> {
        self.owner
            .iter()
            .enumerate()
            .filter_map(|(i, o)| (*o == Some(p)).then_some(ResId(i as u16)))
            .collect()
    }

    /// Resources `p` is waiting on.
    pub fn waiting_on(&self, p: ProcId) -> Vec<ResId> {
        self.requests
            .iter()
            .enumerate()
            .filter_map(|(i, reqs)| reqs.contains(&p).then_some(ResId(i as u16)))
            .collect()
    }

    /// Total number of edges (requests + grants), in O(1).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// `true` when the graph has no edges at all.
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// DFS cycle detection: the deadlock *oracle*.
    ///
    /// A cycle in the RAG is a circular wait, which under the single-unit /
    /// hold-and-wait / no-preemption model is exactly a deadlock. The
    /// parallel algorithm in [`crate::pdda`] is verified against this.
    pub fn has_cycle(&self) -> bool {
        // Node numbering: processes 0..n, resources n..n+m.
        let n = self.processes;
        let m = self.resources;
        let total = n + m;
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut mark = vec![0u8; total];

        // Build successor lists: p → q for each request; q → p for grants.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (qi, reqs) in self.requests.iter().enumerate() {
            for p in reqs {
                succ[p.index()].push(n + qi);
            }
        }
        for (qi, o) in self.owner.iter().enumerate() {
            if let Some(p) = o {
                succ[n + qi].push(p.index());
            }
        }

        // Iterative DFS with explicit stack (node, next-successor index).
        for start in 0..total {
            if mark[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            mark[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < succ[node].len() {
                    let child = succ[node][*next];
                    *next += 1;
                    match mark[child] {
                        0 => {
                            mark[child] = 1;
                            stack.push((child, 0));
                        }
                        1 => return true, // back edge: cycle
                        _ => {}
                    }
                } else {
                    mark[node] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

impl fmt::Display for Rag {
    /// Lists grant then request edges in index order, e.g.
    /// `grants: q1->p1; requests: p2->q1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grants:")?;
        let mut any = false;
        for (qi, o) in self.owner.iter().enumerate() {
            if let Some(p) = o {
                write!(f, " {}->{}", ResId(qi as u16), p)?;
                any = true;
            }
        }
        if !any {
            write!(f, " (none)")?;
        }
        write!(f, "; requests:")?;
        any = false;
        for (qi, reqs) in self.requests.iter().enumerate() {
            for p in reqs {
                write!(f, " {}->{}", p, ResId(qi as u16))?;
                any = true;
            }
        }
        if !any {
            write!(f, " (none)")?;
        }
        Ok(())
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

    #[test]
    fn empty_rag_has_no_cycle() {
        let rag = Rag::new(5, 5);
        assert!(!rag.has_cycle());
        assert!(rag.is_empty());
        assert_eq!(rag.edge_count(), 0);
    }

    #[test]
    fn grant_only_chain_has_no_cycle() {
        let mut rag = Rag::new(3, 3);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(1), p(1)).unwrap();
        assert!(!rag.has_cycle());
        assert_eq!(rag.edge_count(), 2);
    }

    #[test]
    fn two_cycle_detected() {
        let mut rag = Rag::new(2, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(1), p(1)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        rag.add_request(p(1), q(0)).unwrap();
        assert!(rag.has_cycle());
    }

    #[test]
    fn long_chain_without_closing_edge_is_acyclic() {
        // p1→q1→p2→q2→p3→q3→p4 : a wait chain, not a cycle.
        let mut rag = Rag::new(3, 4);
        rag.add_request(p(0), q(0)).unwrap();
        rag.add_grant(q(0), p(1)).unwrap();
        rag.add_request(p(1), q(1)).unwrap();
        rag.add_grant(q(1), p(2)).unwrap();
        rag.add_request(p(2), q(2)).unwrap();
        rag.add_grant(q(2), p(3)).unwrap();
        assert!(!rag.has_cycle());
        // Closing the loop creates the deadlock:
        // p4→q1→p2→q2→p3→q3→p4.
        rag.add_request(p(3), q(0)).unwrap();
        assert!(rag.has_cycle());
    }

    #[test]
    fn closing_edge_creates_cycle() {
        let mut rag = Rag::new(3, 3);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(1), p(1)).unwrap();
        rag.add_grant(q(2), p(2)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        rag.add_request(p(1), q(2)).unwrap();
        assert!(!rag.has_cycle());
        rag.add_request(p(2), q(0)).unwrap();
        assert!(rag.has_cycle());
    }

    #[test]
    fn paper_example_2_state_is_acyclic() {
        // Figure 10(b): q1→p1→q2→p3→q4→p4, q4 granted to p4.
        let mut rag = Rag::new(4, 4);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        rag.add_grant(q(1), p(2)).unwrap();
        rag.add_request(p(2), q(3)).unwrap();
        rag.add_grant(q(3), p(3)).unwrap();
        assert!(!rag.has_cycle());
    }

    #[test]
    fn single_unit_invariant_enforced() {
        let mut rag = Rag::new(1, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        let err = rag.add_grant(q(0), p(1)).unwrap_err();
        assert!(matches!(err, CoreError::ResourceBusy { .. }));
    }

    #[test]
    fn duplicate_request_rejected() {
        let mut rag = Rag::new(1, 1);
        rag.add_request(p(0), q(0)).unwrap();
        let err = rag.add_request(p(0), q(0)).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateEdge { .. }));
    }

    #[test]
    fn request_while_holding_rejected() {
        let mut rag = Rag::new(1, 1);
        rag.add_grant(q(0), p(0)).unwrap();
        let err = rag.add_request(p(0), q(0)).unwrap_err();
        assert!(matches!(err, CoreError::RequestWhileHolding { .. }));
    }

    #[test]
    fn edge_count_matches_a_recount_after_every_operation() {
        fn recount(rag: &Rag) -> usize {
            let grants = rag.owner.iter().filter(|o| o.is_some()).count();
            let requests: usize = rag.requests.iter().map(Vec::len).sum();
            grants + requests
        }
        let mut rag = Rag::new(6, 5);
        let mut state = 0x5EED_u64;
        let mut below = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let (mut ok, mut failed) = (0, 0);
        for _ in 0..4_000 {
            // Ids one past each bound, so out-of-range calls fail too.
            let p = p(below(6) as u16);
            let q = q(below(7) as u16);
            let done = match below(4) {
                0 => rag.add_request(p, q).is_ok(),
                1 => rag.add_grant(q, p).is_ok(),
                2 => rag.remove_request(p, q),
                _ => rag.remove_grant(q, p).is_ok(),
            };
            if done {
                ok += 1;
            } else {
                failed += 1;
            }
            assert_eq!(rag.edge_count(), recount(&rag));
            assert_eq!(rag.is_empty(), recount(&rag) == 0);
        }
        assert!(ok > 500 && failed > 500, "{ok} ok, {failed} failed");
        assert_eq!(rag.clone().edge_count(), recount(&rag));
    }

    #[test]
    fn grant_consumes_pending_request() {
        let mut rag = Rag::new(1, 1);
        rag.add_request(p(0), q(0)).unwrap();
        rag.add_grant(q(0), p(0)).unwrap();
        assert!(rag.requesters(q(0)).is_empty());
        assert_eq!(rag.owner(q(0)), Some(p(0)));
        assert_eq!(rag.edge_count(), 1);
    }

    #[test]
    fn release_requires_ownership() {
        let mut rag = Rag::new(1, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        assert!(matches!(
            rag.remove_grant(q(0), p(1)),
            Err(CoreError::NotOwner { .. })
        ));
        rag.remove_grant(q(0), p(0)).unwrap();
        assert_eq!(rag.owner(q(0)), None);
    }

    #[test]
    fn held_by_and_waiting_on() {
        let mut rag = Rag::new(3, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(2), p(0)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        assert_eq!(rag.held_by(p(0)), vec![q(0), q(2)]);
        assert_eq!(rag.waiting_on(p(0)), vec![q(1)]);
        assert!(rag.held_by(p(1)).is_empty());
    }

    #[test]
    fn out_of_range_ids_error() {
        let mut rag = Rag::new(1, 1);
        assert!(matches!(
            rag.add_request(p(1), q(0)),
            Err(CoreError::UnknownProcess(_))
        ));
        assert!(matches!(
            rag.add_request(p(0), q(1)),
            Err(CoreError::UnknownResource(_))
        ));
    }

    #[test]
    fn remove_request_reports_presence() {
        let mut rag = Rag::new(1, 1);
        rag.add_request(p(0), q(0)).unwrap();
        assert!(rag.remove_request(p(0), q(0)));
        assert!(!rag.remove_request(p(0), q(0)));
    }

    #[test]
    fn display_lists_edges() {
        let mut rag = Rag::new(2, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_request(p(1), q(0)).unwrap();
        let s = rag.to_string();
        assert!(s.contains("q1->p1"));
        assert!(s.contains("p2->q1"));
    }

    #[test]
    fn epoch_counts_only_successful_mutations() {
        let mut rag = Rag::new(2, 2);
        assert_eq!(rag.epoch(), 0);
        rag.add_request(p(0), q(0)).unwrap();
        assert_eq!(rag.epoch(), 1);
        assert!(rag.add_request(p(0), q(0)).is_err(), "duplicate");
        assert_eq!(rag.epoch(), 1, "failed mutation must not bump the epoch");
        assert!(!rag.remove_request(p(1), q(0)));
        assert_eq!(rag.epoch(), 1, "no-op removal must not bump the epoch");
        rag.add_grant(q(0), p(0)).unwrap();
        rag.remove_grant(q(0), p(0)).unwrap();
        assert_eq!(rag.epoch(), 3);
    }

    #[test]
    fn journal_replays_recent_history() {
        let mut rag = Rag::new(2, 2);
        rag.add_request(p(0), q(0)).unwrap();
        rag.add_grant(q(0), p(0)).unwrap();
        rag.remove_grant(q(0), p(0)).unwrap();
        assert!(rag.journal_covers(0));
        let deltas: Vec<RagDelta> = rag.deltas_since(0).collect();
        assert_eq!(
            deltas,
            vec![
                RagDelta::Request { p: p(0), q: q(0) },
                RagDelta::Grant { p: p(0), q: q(0) },
                RagDelta::Clear { p: p(0), q: q(0) },
            ]
        );
        assert_eq!(rag.deltas_since(2).count(), 1);
        assert_eq!(rag.deltas_since(3).count(), 0);
    }

    #[test]
    fn journal_is_bounded_and_reports_exhaustion() {
        let mut rag = Rag::new(1, 1);
        for _ in 0..300 {
            rag.add_request(p(0), q(0)).unwrap();
            assert!(rag.remove_request(p(0), q(0)));
        }
        assert_eq!(rag.epoch(), 600);
        assert!(!rag.journal_covers(0), "600 mutations exceed the journal");
        assert!(rag.journal_covers(rag.epoch() - 10));
        assert!(
            !rag.journal_covers(rag.epoch() + 1),
            "future epochs never covered"
        );
    }

    #[test]
    fn clone_gets_fresh_id_but_equal_state() {
        let mut rag = Rag::new(2, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        let copy = rag.clone();
        assert_ne!(rag.id(), copy.id());
        assert_eq!(rag.epoch(), copy.epoch());
        assert_eq!(rag, copy, "equality is structural, not identity");
        rag.add_request(p(1), q(0)).unwrap();
        assert_ne!(rag, copy);
    }

    #[test]
    fn distinct_rags_have_distinct_ids() {
        assert_ne!(Rag::new(1, 1).id(), Rag::new(1, 1).id());
    }

    #[test]
    fn self_loop_impossible_no_false_cycle() {
        // A process holding one resource and requesting another free one.
        let mut rag = Rag::new(2, 1);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        assert!(!rag.has_cycle());
    }
}

//! Adversarial and exhaustive state construction for the DDU step-count
//! study (Table 1's "worst case # iterations" column).
//!
//! Two tools:
//!
//! * [`chain_rag`] builds the wait-chain family that maximizes terminal
//!   reduction length — reduction can only peel the two chain ends per
//!   step, so a chain over `k = min(m, n)` process/resource pairs needs
//!   `Θ(k)` steps.
//! * [`exhaustive_max_steps`] enumerates *every* valid single-unit state
//!   of a small matrix and reports the true worst case; feasible up to a
//!   few dozen total cells (8^m states for n = 2). Its odometer,
//!   [`StateOdometer`], is public so the detection paths can be checked
//!   against each other on every state of a small shape.

use crate::matrix::StateMatrix;
use crate::reduction::terminal_reduction;
use crate::{ProcId, Rag, ResId};

/// Builds the adversarial wait chain over `k` processes and `k` resources:
/// `p1→q1→p2→q2→…→p_k` with `q_k` granted to `p_k`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn chain_rag(k: usize) -> Rag {
    assert!(k > 0, "chain length must be non-zero");
    let mut rag = Rag::new(k, k);
    for i in 0..k as u16 - 1 {
        rag.add_request(ProcId(i), ResId(i)).expect("chain request");
        rag.add_grant(ResId(i), ProcId(i + 1)).expect("chain grant");
    }
    rag.add_grant(ResId(k as u16 - 1), ProcId(k as u16 - 1))
        .expect("tail grant");
    rag
}

/// Steps the reduction engine takes on the `k`-chain.
pub fn chain_steps(k: usize) -> u32 {
    let mut m = StateMatrix::from_rag(&chain_rag(k));
    terminal_reduction(&mut m).steps
}

/// One row of a single-unit state: the process column holding the
/// resource, if any, and the bit set of processes requesting it (never
/// including the holder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowState {
    /// Column of the grant edge, if the resource is held.
    pub grant: Option<usize>,
    /// Bit `t` set ⟺ process `t` requests the resource.
    pub requests: u32,
}

/// Odometer over every valid single-unit state of a `resources` ×
/// `processes` matrix.
///
/// Each row is one digit. It ranges over the row states: an optional
/// grant column plus any request subset of the other columns,
/// `(n + 2) · 2^(n-1)` of them, with the empty row first. Row 0 is the
/// fastest digit, so most steps change row 0 alone and a carry changes
/// rows `0..=k`; a caller that mirrors the state incrementally rewrites
/// only those rows. The enumeration starts at the empty matrix.
#[derive(Debug, Clone)]
pub struct StateOdometer {
    processes: usize,
    configs: Vec<RowState>,
    digits: Vec<usize>,
}

impl StateOdometer {
    /// The odometer at the empty `resources` × `processes` state.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `processes` exceeds 16.
    pub fn new(resources: usize, processes: usize) -> Self {
        assert!(
            resources > 0 && processes > 0,
            "dimensions must be non-zero"
        );
        assert!(processes <= 16, "request sets are 16-bit row masks");
        let mut configs = Vec::new();
        for grant in std::iter::once(None).chain((0..processes).map(Some)) {
            for requests in 0u32..(1 << processes) {
                if grant.is_some_and(|g| requests & (1 << g) != 0) {
                    continue; // a cell cannot be both grant and request
                }
                configs.push(RowState { grant, requests });
            }
        }
        StateOdometer {
            processes,
            configs,
            digits: vec![0; resources],
        }
    }

    /// Number of states the odometer visits, or `None` past `u64`.
    pub fn states(&self) -> Option<u64> {
        (self.configs.len() as u64).checked_pow(self.digits.len() as u32)
    }

    /// The current state of row `s`.
    pub fn row(&self, s: usize) -> RowState {
        self.configs[self.digits[s]]
    }

    /// Steps to the next state and returns how many rows changed (rows
    /// `0..k`), or `None` after the last state.
    pub fn advance(&mut self) -> Option<usize> {
        for (i, d) in self.digits.iter_mut().enumerate() {
            *d += 1;
            if *d < self.configs.len() {
                return Some(i + 1);
            }
            *d = 0;
        }
        None
    }

    /// The current state as a matrix.
    pub fn matrix(&self) -> StateMatrix {
        let mut m = StateMatrix::new(self.digits.len(), self.processes);
        for s in 0..self.digits.len() {
            let RowState { grant, requests } = self.row(s);
            if let Some(g) = grant {
                m.set_grant(ResId(s as u16), ProcId(g as u16));
            }
            for t in (0..self.processes).filter(|t| requests & (1 << t) != 0) {
                m.set_request(ProcId(t as u16), ResId(s as u16));
            }
        }
        m
    }
}

/// Exhaustively enumerates all valid single-unit states of an
/// m-resources × n-processes matrix ([`StateOdometer`]) and returns the
/// maximum reduction step count, together with the number of states
/// visited.
///
/// Keep `m·n` small: the Table 1 "2×3" entry is 512 states.
///
/// # Panics
///
/// Panics if the state space exceeds `2^24` (a guard against accidental
/// explosion, not a hardware limit).
pub fn exhaustive_max_steps(resources: usize, processes: usize) -> (u32, u64) {
    let mut states = StateOdometer::new(resources, processes);
    assert!(
        matches!(states.states(), Some(t) if t <= 1 << 24),
        "state space too large to enumerate"
    );
    let mut max_steps = 0u32;
    let mut visited = 0u64;
    loop {
        let steps = terminal_reduction(&mut states.matrix()).steps;
        max_steps = max_steps.max(steps);
        visited += 1;
        if states.advance().is_none() {
            return (max_steps, visited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::step_bound;

    #[test]
    fn chain_is_acyclic_and_fully_reducible() {
        let rag = chain_rag(6);
        assert!(!rag.has_cycle());
        let mut m = StateMatrix::from_rag(&rag);
        let r = terminal_reduction(&mut m);
        assert!(r.complete);
    }

    #[test]
    fn chain_steps_grow_linearly() {
        let s3 = chain_steps(3);
        let s6 = chain_steps(6);
        let s12 = chain_steps(12);
        assert!(s6 > s3);
        assert!(s12 > s6);
        // Roughly linear: doubling k roughly doubles steps.
        assert!(s12 as f64 / s6 as f64 > 1.5);
    }

    #[test]
    fn chain_steps_respect_proven_bound() {
        for k in 1..=20 {
            assert!(chain_steps(k) <= step_bound(k, k));
        }
    }

    #[test]
    fn exhaustive_2x3_matches_table1_scale() {
        // Table 1's smallest unit: 2 processes × 3 resources, worst case
        // 2 edge-removing iterations. Our step count includes the
        // terminating pass, so expect the max around 3.
        let (max_steps, visited) = exhaustive_max_steps(3, 2);
        assert_eq!(visited, 512);
        assert!(
            (2..=4).contains(&max_steps),
            "unexpected worst case {max_steps}"
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_enumeration_guarded() {
        exhaustive_max_steps(10, 10);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_chain_rejected() {
        chain_rag(0);
    }
}

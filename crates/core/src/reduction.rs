//! The terminal reduction sequence `ξ` (Algorithm 1, Definitions 7–13).
//!
//! One reduction step `ε` finds every **terminal row** (a resource row with
//! requests only, or exactly one grant and nothing else) and every
//! **terminal column** (a process column whose non-zero entries are all
//! requests, or all grants) and removes all their edges. Iterating until no
//! terminal remains yields an *irreducible* matrix; the state is
//! deadlock-free iff that matrix is empty (a *complete reduction*).
//!
//! The implementation is the word-parallel form the DDU hardware computes
//! (Equations 3–5): per step, a Bit-Wise-OR tree collapses each row and
//! each column to the `(any-request, any-grant)` pair, an XOR picks the
//! terminals, and an OR over all τ bits produces the termination condition
//! `T_iter`.

use crate::matrix::StateMatrix;

/// Result of running the terminal reduction sequence on a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionReport {
    /// Number of reduction steps `ε` that removed edges (the `k` of
    /// Definition 13).
    pub iterations: u32,
    /// Number of loop passes executed by the engine, including the final
    /// pass that finds no terminals. This is the DDU's step count: the
    /// hardware spends one clock on the pass that raises `T_iter = 0`.
    pub steps: u32,
    /// `true` if the reduction was *complete* (all edges removed — no
    /// deadlock).
    pub complete: bool,
}

/// Reusable working storage for [`reduce_core`].
///
/// Owning one of these (as [`crate::engine::DetectEngine`] does) makes a
/// reduction pass allocation-free: the column masks, column BWO
/// accumulators, terminal-row flags and the active-row worklist all live
/// here and are resized only when the matrix shape grows.
#[derive(Debug, Clone, Default)]
pub struct ReduceScratch {
    /// Terminal flag per resource row (indexed by row id; only entries
    /// for active rows are meaningful within a pass).
    terminal_rows: Vec<bool>,
    /// Per-word terminal-column mask (Equation 4's `τ^c`).
    col_mask: Vec<u64>,
    /// Column BWO accumulators (Equation 3's `BWO^c`), request/grant.
    col_r: Vec<u64>,
    col_g: Vec<u64>,
    /// Worklist of rows that still carry edges.
    active: Vec<u32>,
}

impl ReduceScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ReduceScratch::default()
    }

    /// Rows still non-empty when the last [`reduce_core`] run stopped —
    /// the irreducible residue. The engine uses this to restore its work
    /// matrix to all-zeros without a full-matrix pass.
    pub(crate) fn residue(&self) -> &[u32] {
        &self.active
    }

    fn ensure(&mut self, rows: usize, words: usize) {
        if self.terminal_rows.len() < rows {
            self.terminal_rows.resize(rows, false);
        }
        if self.col_mask.len() < words {
            self.col_mask.resize(words, 0);
            self.col_r.resize(words, 0);
            self.col_g.resize(words, 0);
        }
    }
}

/// The terminal reduction engine shared by [`terminal_reduction`] (cold
/// path: scans all rows) and the incremental [`crate::engine::DetectEngine`]
/// (hot path: seeds the worklist from its occupancy index).
///
/// `seed` is the initial active-row worklist. It must contain **every**
/// non-empty row (extra empty rows are harmless); `None` scans the matrix
/// to build it. Rows outside the worklist are skipped entirely — empty
/// rows contribute nothing to the column BWO trees and can never be
/// terminal, so the verdict, `iterations` and `steps` are identical to a
/// full scan, pass for pass. Every pass clears and masks all column
/// words.
pub(crate) fn reduce_core(
    matrix: &mut StateMatrix,
    scratch: &mut ReduceScratch,
    seed: Option<&[u32]>,
) -> ReductionReport {
    let m = matrix.resources();
    let words = matrix.words_per_row();
    let mut iterations = 0u32;
    let mut steps = 0u32;

    // Mask of valid column bits in the last word, so phantom columns
    // beyond `n` can never appear terminal.
    let tail_mask = u64::MAX >> ((64 - matrix.processes() % 64) % 64);

    scratch.ensure(m, words);
    scratch.active.clear();
    match seed {
        Some(rows) => scratch.active.extend_from_slice(rows),
        None => {
            for s in 0..m {
                if !matrix.row_is_empty(s) {
                    scratch.active.push(s as u32);
                }
            }
        }
    }
    #[cfg(debug_assertions)]
    for s in 0..m {
        debug_assert!(
            scratch.active.contains(&(s as u32)) || matrix.row_is_empty(s),
            "worklist seed is missing non-empty row {s}"
        );
    }

    let complete;
    loop {
        steps += 1;

        // Equation 3/4, both sides in one fused scan: each live row is
        // read exactly once, feeding the column BWO accumulators *and*
        // producing its own `(any-request, any-grant)` pair. Empty rows
        // have `ra ^ ga == false`, so restricting to the worklist loses
        // nothing.
        let mut any_terminal = false;
        scratch.col_r[..words].fill(0);
        scratch.col_g[..words].fill(0);
        for &s in &scratch.active {
            let (ra, ga) = matrix.row_scan(s as usize, &mut scratch.col_r, &mut scratch.col_g);
            let flag = ra ^ ga;
            scratch.terminal_rows[s as usize] = flag;
            any_terminal |= flag;
        }
        // τ_ct = r-any XOR g-any, per column, restricted to columns that
        // actually have edges (XOR of two zero bits is zero, so empty
        // columns are naturally excluded).
        for w in 0..words {
            scratch.col_mask[w] = scratch.col_r[w] ^ scratch.col_g[w];
        }
        scratch.col_mask[words - 1] &= tail_mask;
        any_terminal |= scratch.col_mask[..words].iter().any(|&w| w != 0);

        // Equation 5: T_iter == 0 → irreducible, stop. The final pass's
        // BWO accumulators already summarize every live edge, so the
        // matrix is empty iff both trees collapsed to zero — no
        // whole-matrix scan needed.
        if !any_terminal {
            complete = scratch.col_r[..words].iter().all(|&w| w == 0)
                && scratch.col_g[..words].iter().all(|&w| w == 0);
            break;
        }
        iterations += 1;

        // The removal half of ε (lines 8–9 of Algorithm 1), rows and
        // columns "in parallel": both removals are computed from the same
        // pre-removal snapshot, exactly like the hardware.
        for i in 0..scratch.active.len() {
            let s = scratch.active[i] as usize;
            if scratch.terminal_rows[s] {
                matrix.clear_row(s);
            } else {
                matrix.clear_columns_in_row(s, &scratch.col_mask[..words]);
            }
        }
        // Drop rows that just went empty from the worklist.
        scratch.active.retain(|&s| !matrix.row_is_empty(s as usize));
    }

    debug_assert_eq!(complete, matrix.is_empty());
    ReductionReport {
        iterations,
        steps,
        complete,
    }
}

/// Runs the terminal reduction sequence `ξ` in place, returning the report.
///
/// After the call, `matrix` holds the irreducible matrix `M_{i,j+k}`.
/// This is the cold, self-contained entry point — it allocates its own
/// scratch; the incremental engine reuses scratch across probes via
/// [`reduce_core`].
///
/// # Example
///
/// The Figure 12 example: rows `q2`, `q3` and columns `p2`, `p4`, `p6` are
/// terminal in the first step.
///
/// ```
/// use deltaos_core::matrix::StateMatrix;
/// use deltaos_core::reduction::terminal_reduction;
/// use deltaos_core::{ProcId, ResId};
///
/// let mut m = StateMatrix::new(3, 6);
/// m.set_grant(ResId(0), ProcId(0));     // q1 -> p1
/// m.set_request(ProcId(1), ResId(0));   // p2 -> q1
/// m.set_request(ProcId(3), ResId(1));   // p4 -> q2  (q2 row: requests only)
/// m.set_grant(ResId(2), ProcId(5));     // q3 -> p6  (q3 row: single grant)
/// let report = terminal_reduction(&mut m);
/// assert!(report.complete);
/// assert!(m.is_empty());
/// ```
pub fn terminal_reduction(matrix: &mut StateMatrix) -> ReductionReport {
    let mut scratch = ReduceScratch::new();
    reduce_core(matrix, &mut scratch, None)
}

/// Upper bound on reduction steps proven in the paper's technical report:
/// the hardware completes in `O(min(m, n))` steps. We use the conservative
/// closed form `2·min(m,n)` as the property-test bound.
pub fn step_bound(resources: usize, processes: usize) -> u32 {
    2 * resources.min(processes) as u32 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::matrix_from_edges;
    use crate::{ProcId, Rag, ResId};

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }
    fn q(i: u16) -> ResId {
        ResId(i)
    }

    #[test]
    fn empty_matrix_reduces_in_one_step() {
        let mut m = StateMatrix::new(5, 5);
        let r = terminal_reduction(&mut m);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.steps, 1);
        assert!(r.complete);
    }

    #[test]
    fn single_grant_is_terminal() {
        let mut m = matrix_from_edges(2, 2, &[(q(0), p(0))], &[]).unwrap();
        let r = terminal_reduction(&mut m);
        assert!(r.complete);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn deadlock_cycle_is_irreducible() {
        let mut m = matrix_from_edges(
            2,
            2,
            &[(q(0), p(0)), (q(1), p(1))],
            &[(p(0), q(1)), (p(1), q(0))],
        )
        .unwrap();
        let r = terminal_reduction(&mut m);
        assert!(!r.complete);
        assert_eq!(m.edge_count(), 4, "the 2-cycle must survive intact");
    }

    #[test]
    fn hanger_on_edges_are_stripped_from_cycle() {
        // A 2-cycle plus an extra process p3 requesting q1: p3's column is
        // terminal (requests only) and gets removed; the cycle remains.
        let mut m = matrix_from_edges(
            2,
            3,
            &[(q(0), p(0)), (q(1), p(1))],
            &[(p(0), q(1)), (p(1), q(0)), (p(2), q(0))],
        )
        .unwrap();
        let r = terminal_reduction(&mut m);
        assert!(!r.complete);
        assert_eq!(m.edge_count(), 4);
    }

    #[test]
    fn figure_12_first_step_removes_terminals() {
        // Figure 12(a): q2 and q3 are terminal rows; p2, p4, p6 terminal
        // columns. We model a compatible state: 4 resources, 6 processes.
        let mut rag = Rag::new(4, 6);
        rag.add_grant(q(0), p(0)).unwrap(); // q1 -> p1
        rag.add_request(p(0), q(3)).unwrap(); // p1 -> q4
        rag.add_grant(q(3), p(2)).unwrap(); // q4 -> p3
        rag.add_request(p(2), q(0)).unwrap(); // p3 -> q1 (cycle q1,p1,q4,p3)
        rag.add_request(p(1), q(1)).unwrap(); // p2 -> q2 (terminal row+col)
        rag.add_request(p(3), q(1)).unwrap(); // p4 -> q2
        rag.add_grant(q(2), p(5)).unwrap(); // q3 -> p6 (terminal row+col)
        let mut m = StateMatrix::from_rag(&rag);
        let r = terminal_reduction(&mut m);
        assert!(!r.complete, "the embedded cycle is a deadlock");
        assert_eq!(m.edge_count(), 4, "only the 4-edge cycle survives");
    }

    #[test]
    fn chain_reduces_completely() {
        // p1→q1→p2→q2→p3: no cycle, must fully reduce.
        let mut rag = Rag::new(2, 3);
        rag.add_request(p(0), q(0)).unwrap();
        rag.add_grant(q(0), p(1)).unwrap();
        rag.add_request(p(1), q(1)).unwrap();
        rag.add_grant(q(1), p(2)).unwrap();
        let mut m = StateMatrix::from_rag(&rag);
        let r = terminal_reduction(&mut m);
        assert!(r.complete);
        assert!(r.steps <= step_bound(2, 3));
    }

    #[test]
    fn steps_respect_bound_on_long_chain() {
        // Worst-case style chain across 8 resources / 8 processes.
        let k = 8;
        let mut rag = Rag::new(k, k);
        for i in 0..k as u16 - 1 {
            rag.add_grant(q(i), p(i)).unwrap();
            rag.add_request(p(i), q(i + 1)).unwrap();
        }
        rag.add_grant(q(k as u16 - 1), p(k as u16 - 1)).unwrap();
        let mut m = StateMatrix::from_rag(&rag);
        let r = terminal_reduction(&mut m);
        assert!(r.complete);
        assert!(
            r.steps <= step_bound(k, k),
            "steps {} exceed bound {}",
            r.steps,
            step_bound(k, k)
        );
    }

    #[test]
    fn idempotent_at_fixpoint() {
        let mut m = matrix_from_edges(
            2,
            2,
            &[(q(0), p(0)), (q(1), p(1))],
            &[(p(0), q(1)), (p(1), q(0))],
        )
        .unwrap();
        terminal_reduction(&mut m);
        let snapshot = m.clone();
        let r2 = terminal_reduction(&mut m);
        assert_eq!(m, snapshot, "irreducible matrix must be a fixpoint");
        assert_eq!(r2.iterations, 0);
    }

    #[test]
    fn wide_matrix_tail_columns_handled() {
        // 70 processes → tail word has 6 valid bits; ensure no phantom
        // terminals corrupt the result.
        let mut rag = Rag::new(2, 70);
        rag.add_grant(q(0), p(69)).unwrap();
        rag.add_request(p(68), q(0)).unwrap();
        let mut m = StateMatrix::from_rag(&rag);
        let r = terminal_reduction(&mut m);
        assert!(r.complete);
    }
}

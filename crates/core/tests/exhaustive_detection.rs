//! Exhaustive small-scope detection check.
//!
//! The LCG suites sample; at small shapes the whole state space fits, and
//! a sweep cannot miss what a seed might. These tests visit every valid
//! single-unit state of a shape in [`StateOdometer`] order and demand
//! that every detection path agrees on each one:
//!
//! * the dense [`terminal_reduction`] of the state's matrix;
//! * [`SparseState::reduce`], on a state kept current by cell writes;
//! * the DFS oracle [`Rag::has_cycle`];
//! * a forced-sparse and a default [`DetectEngine`], probing one [`Rag`]
//!   that the odometer's row changes are applied to, so the delta
//!   journal, the result cache and the sparse mirror all see traffic.
//!
//! The two reductions and both engines must also agree on `iterations`
//! and `steps`. The tier-1 sweep covers every shape up to 3×3 plus 2×4
//! and 4×2; the ignored one (`cargo test --release -p deltaos-core
//! --test exhaustive_detection -- --ignored`) adds every other shape up
//! to 4×4, plus 5×3 and 3×5.

use deltaos_core::engine::DetectEngine;
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::reduction::terminal_reduction;
use deltaos_core::sparse::{SparseConfig, SparseState};
use deltaos_core::worst_case::{RowState, StateOdometer};
use deltaos_core::{ProcId, Rag, ResId};

/// Rewrites row `s` from `old` to `new` in the RAG (only the edges that
/// differ) and in the sparse state (every cell of the row).
fn rewrite_row(rag: &mut Rag, sp: &mut SparseState, s: usize, old: RowState, new: RowState) {
    let q = ResId(s as u16);
    if old.grant != new.grant {
        if let Some(g) = old.grant {
            rag.remove_grant(q, ProcId(g as u16))
                .expect("the old grant is held");
        }
    }
    for t in 0..16 {
        if old.requests & !new.requests & (1 << t) != 0 {
            assert!(rag.remove_request(ProcId(t), q), "the old request exists");
        }
    }
    if old.grant != new.grant {
        if let Some(g) = new.grant {
            rag.add_grant(q, ProcId(g as u16)).expect("the row is free");
        }
    }
    for t in 0..16 {
        if new.requests & !old.requests & (1 << t) != 0 {
            rag.add_request(ProcId(t), q).expect("a new, valid request");
        }
    }
    for t in 0..sp.processes() {
        if new.grant == Some(t) {
            sp.set_grant(s, t);
        } else if new.requests & (1 << t) != 0 {
            sp.set_request(t, s);
        } else {
            sp.clear(s, t);
        }
    }
}

/// Sweeps every state of an `m` × `n` matrix; returns the number visited.
fn sweep(m: usize, n: usize) -> u64 {
    let mut states = StateOdometer::new(m, n);
    let mut rag = Rag::new(m, n);
    let mut sp = SparseState::new(m, n);
    let mut forced = DetectEngine::new(m, n);
    forced.set_sparse(SparseConfig::always());
    let mut default = DetectEngine::new(m, n);
    let mut rows: Vec<RowState> = (0..m).map(|s| states.row(s)).collect();
    let mut visited = 0u64;
    loop {
        let dense = terminal_reduction(&mut states.matrix());
        let sparse = sp.reduce();
        let at = || format!("{m}x{n} state {visited}: {rows:?}");
        assert_eq!(dense, sparse, "dense vs sparse reduction at {}", at());
        assert_eq!(
            !dense.complete,
            rag.has_cycle(),
            "reduction vs DFS cycle oracle at {}",
            at()
        );
        let expected = DetectOutcome::from(dense);
        assert_eq!(
            forced.probe(&rag),
            expected,
            "forced-sparse engine at {}",
            at()
        );
        assert_eq!(default.probe(&rag), expected, "default engine at {}", at());
        visited += 1;
        let Some(changed) = states.advance() else {
            break;
        };
        for (s, row) in rows.iter_mut().enumerate().take(changed) {
            let new = states.row(s);
            rewrite_row(&mut rag, &mut sp, s, *row, new);
            *row = new;
        }
    }
    assert_eq!(Some(visited), states.states());
    // Every reduction was a real one: each step changed the graph.
    let stats = forced.stats();
    assert_eq!(stats.sparse_reductions, visited);
    assert_eq!(stats.dense_reductions, 0);
    visited
}

#[test]
fn every_state_up_to_3x3_agrees_across_detection_paths() {
    let mut visited = 0;
    for m in 1..=3 {
        for n in 1..=3 {
            visited += sweep(m, n);
        }
    }
    visited += sweep(2, 4);
    visited += sweep(4, 2);
    // 3×3 alone is 20³ states; 2×4 is 48², 4×2 is 8⁴.
    assert_eq!(visited, 15_443);
}

#[test]
#[ignore = "about 10M states; run in release"]
fn every_state_up_to_4x4_and_5x3_agrees_across_detection_paths() {
    let mut visited = 0;
    for (m, n) in [(3, 4), (4, 3), (1, 4), (4, 1), (4, 4), (5, 3), (3, 5)] {
        visited += sweep(m, n);
    }
    assert_eq!(visited, 10_184_065);
}

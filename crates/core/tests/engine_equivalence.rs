//! Randomized equivalence: the incremental [`DetectEngine`] must agree
//! with the cold path ([`pdda::detect_cold`] — fresh `from_rag` plus a
//! full `terminal_reduction`) on **verdict, iterations and steps** after
//! arbitrary edit sequences, including journal overflow, clones and
//! interleaved cache hits.
//!
//! Runs in tier-1 with no external crates: randomness comes from a
//! hand-rolled 64-bit LCG (MMIX constants), seeded deterministically, so
//! failures replay exactly.

use deltaos_core::engine::DetectEngine;
use deltaos_core::sparse::SparseConfig;
use deltaos_core::{pdda, ProcId, Rag, ResId};

/// Knuth's MMIX LCG — good enough to scatter edit sequences, and fully
/// deterministic.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixpoint-ish start; mix the seed a little.
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform-ish value in `0..bound` (`bound > 0`); the tiny modulo
    /// bias is irrelevant for test-case generation.
    fn below(&mut self, bound: u64) -> u64 {
        (self.next() >> 16) % bound
    }
}

/// Applies one random RAG edit. Invalid operations (duplicate request,
/// busy resource, …) are simply ignored — exactly how an adversarial
/// caller exercises the epoch/journal bookkeeping, since failed
/// mutations must not advance the epoch.
fn random_edit(rag: &mut Rag, rng: &mut Lcg) {
    let p = ProcId(rng.below(rag.processes() as u64) as u16);
    let q = ResId(rng.below(rag.resources() as u64) as u16);
    match rng.below(4) {
        0 => {
            let _ = rag.add_request(p, q);
        }
        1 => {
            let _ = rag.add_grant(q, p);
        }
        2 => {
            let _ = rag.remove_request(p, q);
        }
        _ => {
            let _ = rag.remove_grant(q, p);
        }
    }
}

fn assert_agrees(engine: &mut DetectEngine, rag: &Rag, seq: u64, op: usize) {
    let fast = engine.probe(rag);
    let cold = pdda::detect_cold(rag);
    assert_eq!(
        fast, cold,
        "engine diverged from cold path at sequence {seq}, op {op}:\n{rag}"
    );
}

#[test]
fn engine_matches_cold_path_over_1000_random_edit_sequences() {
    let mut sequences = 0u64;
    for seq in 0..1024u64 {
        let mut rng = Lcg::new(seq);
        let m = 1 + rng.below(8) as usize;
        let n = 1 + rng.below(8) as usize;
        let mut rag = Rag::new(m, n);
        let mut engine = DetectEngine::new(m, n);
        let ops = 8 + rng.below(24) as usize;
        for op in 0..ops {
            random_edit(&mut rag, &mut rng);
            // Sometimes batch a few edits between probes so the delta
            // replay handles multi-edit gaps, and sometimes probe twice
            // so cache hits are exercised mid-sequence.
            match rng.below(4) {
                0 => {}
                1 => {
                    assert_agrees(&mut engine, &rag, seq, op);
                    assert_agrees(&mut engine, &rag, seq, op);
                }
                _ => assert_agrees(&mut engine, &rag, seq, op),
            }
        }
        // Always settle the sequence with a final comparison.
        assert_agrees(&mut engine, &rag, seq, ops);
        sequences += 1;
    }
    assert!(sequences >= 1000);
}

#[test]
fn engine_survives_journal_overflow_and_clones() {
    // Longer sequences on one graph: overflow the bounded journal (so
    // syncs fall back to full rebuilds) and periodically swap in a clone
    // (fresh identity, same state).
    for seq in 0..32u64 {
        let mut rng = Lcg::new(0xC0FFEE ^ seq);
        let mut rag = Rag::new(6, 6);
        let mut engine = DetectEngine::new(6, 6);
        for op in 0..600 {
            random_edit(&mut rag, &mut rng);
            if rng.below(8) == 0 {
                assert_agrees(&mut engine, &rag, seq, op);
            }
            if rng.below(64) == 0 {
                rag = rag.clone();
            }
        }
        assert_agrees(&mut engine, &rag, seq, 600);
    }
}

#[test]
fn wide_matrices_agree_on_multi_word_rows_and_tail_words() {
    // The 8×8 sequences above always fit one row-word. Use ≥3 words of
    // columns with edits clustered in one word (sometimes the tail
    // word): the engine must agree with the cold path while most column
    // words stay empty.
    for seq in 0..128u64 {
        let mut rng = Lcg::new(0xBEEF ^ seq);
        let m = 1 + rng.below(6) as usize;
        let n = 130 + rng.below(60) as usize; // 3 words of columns
        let mut rag = Rag::new(m, n);
        let mut engine = DetectEngine::new(m, n);
        // Cluster edits in one 64-column word (sometimes the tail word),
        // leaving the other words provably empty.
        let base = [0u64, 64, 128][rng.below(3) as usize];
        let span = (n as u64 - base).min(64);
        let ops = 8 + rng.below(24) as usize;
        for op in 0..ops {
            let p = ProcId((base + rng.below(span)) as u16);
            let q = ResId(rng.below(m as u64) as u16);
            match rng.below(4) {
                0 => {
                    let _ = rag.add_request(p, q);
                }
                1 => {
                    let _ = rag.add_grant(q, p);
                }
                2 => {
                    let _ = rag.remove_request(p, q);
                }
                _ => {
                    let _ = rag.remove_grant(q, p);
                }
            }
            if rng.below(3) != 0 {
                assert_agrees(&mut engine, &rag, seq, op);
            }
        }
        assert_agrees(&mut engine, &rag, seq, ops);
    }

    // And a mixed sequence spreading edits over all words: correctness
    // must hold as columns in every word fill and empty.
    for seq in 0..64u64 {
        let mut rng = Lcg::new(0xD00D ^ seq);
        let m = 1 + rng.below(5) as usize;
        let n = 100 + rng.below(100) as usize;
        let mut rag = Rag::new(m, n);
        let mut engine = DetectEngine::new(m, n);
        for op in 0..40 {
            random_edit(&mut rag, &mut rng);
            if rng.below(2) == 0 {
                assert_agrees(&mut engine, &rag, seq, op);
            }
        }
        assert_agrees(&mut engine, &rag, seq, 40);
    }
}

#[test]
fn colmajor_engine_matches_cold_path_on_tall_matrices() {
    // 1024×64 is tall (m ≥ 8n) and past the 256² area floor, so the
    // engine keeps the transposed mirror and reduces column-major; the
    // cold path stays row-major, so agreement certifies the self-duality
    // argument. The sparse mirror is off so every probe reduces dense.
    for t in 1..=8u64 {
        let mut engine = DetectEngine::new(1024, 64);
        engine.set_sparse(SparseConfig::disabled());
        assert!(engine.is_colmajor(), "1024x64 must go column-major");
        let mut rng = Lcg::new(0x7A11 ^ t);
        let mut rag = Rag::new(1024, 64);
        for op in 0..300 {
            random_edit(&mut rag, &mut rng);
            if rng.below(8) == 0 {
                assert_agrees(&mut engine, &rag, t, op);
            }
        }
        assert_agrees(&mut engine, &rag, t, 300);
        let stats = engine.stats();
        assert_eq!(stats.dense_reductions, stats.reductions);
    }
}

#[test]
fn probes_at_the_same_epoch_reduce_once() {
    let mut rag = Rag::new(4, 4);
    rag.add_grant(ResId(0), ProcId(0)).unwrap();
    rag.add_request(ProcId(1), ResId(0)).unwrap();
    let mut engine = DetectEngine::new(4, 4);

    let first = engine.probe(&rag);
    let second = engine.probe(&rag);
    assert_eq!(first, second);
    let stats = engine.stats();
    assert_eq!(stats.probes, 2);
    assert_eq!(stats.reductions, 1, "same-epoch re-probe must not reduce");
    assert_eq!(stats.cache_hits, 1);

    // One more edge invalidates the cache; the next probe reduces again
    // after replaying exactly one delta.
    rag.add_request(ProcId(2), ResId(0)).unwrap();
    engine.probe(&rag);
    let stats = engine.stats();
    assert_eq!(stats.reductions, 2);
    assert_eq!(stats.deltas_applied, 1);
}

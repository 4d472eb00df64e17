//! Dense-vs-sparse engine equivalence under randomized delta streams.
//!
//! The hybrid dispatcher's contract is that the sparse adjacency-list
//! engine is **bit-identical** to the dense matrix engine: same
//! [`DetectOutcome`] (verdict, `iterations`, `steps`) on every input,
//! and deterministic stats. These tests drive the
//! *same* LCG-generated edge-delta streams — including deletions,
//! probe-only stretches and streams that oscillate across the hybrid
//! edge threshold — through forced-dense, forced-sparse and hybrid
//! engines, checking every probe against [`pdda::detect_cold`]. Sparse
//! probes of different shapes interleave on shared threads, which checks
//! the per-thread reduction workspace.

use deltaos_core::engine::{DetectEngine, EngineStats};
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::sparse::SparseConfig;
use deltaos_core::{pdda, ProcId, Rag, ResId};

struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        (self.next() >> 16) % bound
    }
}

/// Seed salts: each randomized stream runs once per salt.
const SALTS: std::ops::RangeInclusive<u64> = 1..=8;

/// One random mutation against the RAG: request/grant adds and removes
/// in a mix that exercises grant-consumes-request and no-op removals.
fn random_op(rng: &mut Lcg, rag: &mut Rag, m: u64, n: u64) {
    let p = ProcId(rng.below(n) as u16);
    let q = ResId(rng.below(m) as u16);
    match rng.below(5) {
        0 | 1 => {
            let _ = rag.add_request(p, q);
        }
        2 => {
            let _ = rag.add_grant(q, p);
        }
        3 => {
            let _ = rag.remove_request(p, q);
        }
        _ => {
            let _ = rag.remove_grant(q, p);
        }
    }
}

/// Counter fields that must agree between a forced-dense and a
/// forced-sparse engine fed the identical stream (everything except the
/// path split itself and the dense-only word-skip accounting).
fn path_independent(s: EngineStats) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        s.probes,
        s.cache_hits,
        s.delta_syncs,
        s.deltas_applied,
        s.full_rebuilds,
        s.reductions,
        s.live_edges,
        s.density_permille,
    )
}

#[test]
fn identical_streams_through_dense_and_sparse_are_bit_identical() {
    for t in SALTS {
        for seq in 0..4u64 {
            let mut dense = DetectEngine::new(256, 256);
            dense.set_sparse(SparseConfig::disabled());
            let mut sparse = DetectEngine::new(256, 256);
            sparse.set_sparse(SparseConfig::always());
            let mut rag = Rag::new(256, 256);
            let mut rng = Lcg::new(0x5BA12E ^ (seq << 8) ^ t);
            for op in 0..400 {
                random_op(&mut rng, &mut rag, 256, 256);
                if rng.below(6) == 0 {
                    let d = dense.probe(&rag);
                    let s = sparse.probe(&rag);
                    let cold = pdda::detect_cold(&rag);
                    assert_eq!(d, s, "salt={t} seq={seq} op={op}: dense vs sparse");
                    assert_eq!(s, cold, "salt={t} seq={seq} op={op}: sparse vs cold");
                }
            }
            assert_eq!(dense.probe(&rag), sparse.probe(&rag));
            let (ds, ss) = (dense.stats(), sparse.stats());
            assert_eq!(
                path_independent(ds),
                path_independent(ss),
                "salt={t} seq={seq}: path-independent stats diverged"
            );
            assert_eq!(ds.sparse_reductions, 0, "forced-dense must never go sparse");
            assert_eq!(ds.dense_reductions, ds.reductions);
            assert_eq!(ss.dense_reductions, 0, "forced-sparse must never go dense");
            assert_eq!(ss.sparse_reductions, ss.reductions);
        }
    }
}

#[test]
fn probe_only_batches_hit_both_caches_identically() {
    let mut dense = DetectEngine::new(64, 64);
    dense.set_sparse(SparseConfig::disabled());
    let mut sparse = DetectEngine::new(64, 64);
    sparse.set_sparse(SparseConfig::always());
    let mut rag = Rag::new(64, 64);
    rag.add_grant(ResId(0), ProcId(0)).unwrap();
    rag.add_request(ProcId(1), ResId(0)).unwrap();
    for _ in 0..5 {
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
    }
    assert_eq!(dense.stats().cache_hits, 4);
    assert_eq!(sparse.stats().cache_hits, 4);
    assert_eq!(dense.stats().reductions, 1);
    assert_eq!(sparse.stats().reductions, 1);
}

#[test]
fn streams_oscillating_across_the_threshold_match_cold() {
    // Hybrid config on a 64×64 engine: ≤98 live edges goes sparse
    // (98,000 ≤ 307 × the 320 word visits of 64² dense work, i.e. 24‰
    // of the area), above goes dense. The stream pumps the edge count up
    // past the threshold and back down repeatedly, so the dispatcher
    // flips paths mid-session — every crossing must be seamless (same
    // outcomes, same cache behaviour).
    let cfg = SparseConfig {
        min_area: 1,
        edges_per_kilo_work: 307,
    };
    for t in SALTS {
        let mut hybrid = DetectEngine::new(64, 64);
        hybrid.set_sparse(cfg);
        let mut rag = Rag::new(64, 64);
        let mut rng = Lcg::new(0x05C111A7E ^ t);
        for cycle in 0..3 {
            // Pump up: adds dominate, edge count climbs past ~150.
            for op in 0..260 {
                let p = ProcId(rng.below(64) as u16);
                let q = ResId(rng.below(64) as u16);
                if rng.below(8) == 0 {
                    let _ = rag.remove_grant(q, p);
                } else if rng.below(2) == 0 {
                    let _ = rag.add_request(p, q);
                } else {
                    let _ = rag.add_grant(q, p);
                }
                if rng.below(5) == 0 {
                    let got = hybrid.probe(&rag);
                    let cold = pdda::detect_cold(&rag);
                    assert_eq!(got, cold, "salt={t} cycle={cycle} up op={op}");
                }
            }
            // Drain down: removals dominate, edge count falls back.
            for op in 0..260 {
                let p = ProcId(rng.below(64) as u16);
                let q = ResId(rng.below(64) as u16);
                if rng.below(8) == 0 {
                    let _ = rag.add_request(p, q);
                } else if rng.below(2) == 0 {
                    let _ = rag.remove_request(p, q);
                } else {
                    let _ = rag.remove_grant(q, p);
                }
                if rng.below(5) == 0 {
                    let got = hybrid.probe(&rag);
                    let cold = pdda::detect_cold(&rag);
                    assert_eq!(got, cold, "salt={t} cycle={cycle} down op={op}");
                }
            }
        }
        let s = hybrid.stats();
        assert!(
            s.dense_reductions > 0 && s.sparse_reductions > 0,
            "salt={t}: stream must cross the threshold both ways \
             (dense={}, sparse={})",
            s.dense_reductions,
            s.sparse_reductions
        );
        assert_eq!(s.dense_reductions + s.sparse_reductions, s.reductions);
    }
}

#[test]
fn hybrid_stats_replay_identically_and_match_cold() {
    // The dispatch decision depends only on shape and live-edge count,
    // so the same script must yield identical outcomes AND identical
    // EngineStats — including the dense/sparse path split — in a fresh
    // engine, and every outcome must match the cold path.
    let script = || -> (Vec<DetectOutcome>, EngineStats) {
        let mut engine = DetectEngine::new(128, 128);
        // ≤196 live edges go sparse: 256 × the 768 word visits of 128²
        // dense work, 12‰ of the area.
        engine.set_sparse(SparseConfig {
            min_area: 1,
            edges_per_kilo_work: 256,
        });
        let mut rng = Lcg::new(0x7EAD5);
        let mut rag = Rag::new(128, 128);
        let mut outcomes = Vec::new();
        for _ in 0..500 {
            random_op(&mut rng, &mut rag, 128, 128);
            if rng.below(4) == 0 {
                let got = engine.probe(&rag);
                assert_eq!(got, pdda::detect_cold(&rag));
                outcomes.push(got);
            }
        }
        (outcomes, engine.stats())
    };
    let (base_outcomes, base_stats) = script();
    assert!(!base_outcomes.is_empty());
    assert!(base_stats.dense_reductions > 0 && base_stats.sparse_reductions > 0);
    let (outcomes, stats) = script();
    assert_eq!(outcomes, base_outcomes, "outcomes diverged");
    assert_eq!(stats, base_stats, "EngineStats diverged");
}

#[test]
fn snapshot_shaped_restore_keeps_the_hybrid_split() {
    // Engine restore overwrites counters wholesale; the path-split
    // counters must survive that round trip like every other counter.
    let mut rag = Rag::new(64, 64);
    rag.add_grant(ResId(0), ProcId(0)).unwrap();
    rag.add_request(ProcId(1), ResId(0)).unwrap();
    let mut live = DetectEngine::new(64, 64);
    live.set_sparse(SparseConfig::always());
    let out = live.probe(&rag);
    let mut restored = DetectEngine::new(64, 64);
    restored.set_sparse(SparseConfig::always());
    restored.restore(&rag, live.stats(), Some(out));
    assert_eq!(restored.probe(&rag), out);
    assert_eq!(restored.stats().cache_hits, live.stats().cache_hits + 1);
    assert_eq!(restored.stats().sparse_reductions, 1);
    assert_eq!(restored.stats().dense_reductions, 0);
    assert_eq!(restored.stats().live_edges, 2);
}

/// Random edges until `rag` holds `target` of them.
fn populate(rng: &mut Lcg, rag: &mut Rag, target: usize) {
    let (m, n) = (rag.resources() as u64, rag.processes() as u64);
    while rag.edge_count() < target {
        random_op(rng, rag, m, n);
    }
}

#[test]
fn interleaved_shapes_share_one_workspace_per_thread() {
    // Every sparse probe on a thread reduces in that thread's one
    // workspace, whose counts must be zero between probes. Probing
    // engines of different shapes in turn (a large random graph, a
    // smaller one, a 300-pass chain, an empty engine, a 2×2 cycle) makes
    // any count a probe leaves behind corrupt the next probe of another
    // shape; two threads run the script at once.
    let script = || -> Vec<DetectOutcome> {
        let mut rng = Lcg::new(0x5A4ED);
        let mut big = Rag::new(1024, 1024);
        populate(&mut rng, &mut big, 1_200);
        let mut mid = Rag::new(512, 512);
        populate(&mut rng, &mut mid, 416);
        let mut chain = Rag::new(300, 300);
        for s in 0..300u16 {
            chain.add_grant(ResId(s), ProcId(s)).unwrap();
            if s + 1 < 300 {
                chain.add_request(ProcId(s + 1), ResId(s)).unwrap();
            }
        }
        let empty = Rag::new(64, 64);
        let mut cycle = Rag::new(2, 2);
        cycle.add_grant(ResId(0), ProcId(0)).unwrap();
        cycle.add_grant(ResId(1), ProcId(1)).unwrap();
        cycle.add_request(ProcId(0), ResId(1)).unwrap();
        let mut engines: Vec<DetectEngine> =
            [(1024, 1024), (512, 512), (300, 300), (64, 64), (2, 2)]
                .into_iter()
                .map(|(m, n)| {
                    let mut e = DetectEngine::new(m, n);
                    e.set_sparse(SparseConfig::always());
                    e
                })
                .collect();
        let mut outcomes = Vec::new();
        for round in 0..8 {
            for _ in 0..6 {
                random_op(&mut rng, &mut big, 1024, 1024);
                random_op(&mut rng, &mut mid, 512, 512);
            }
            // An order-respecting wait keeps the chain 300 passes deep;
            // the cycle opens and closes every round.
            if round % 2 == 0 {
                chain.add_request(ProcId(299), ResId(0)).unwrap();
                cycle.add_request(ProcId(1), ResId(0)).unwrap();
            } else {
                assert!(chain.remove_request(ProcId(299), ResId(0)));
                assert!(cycle.remove_request(ProcId(1), ResId(0)));
            }
            for (engine, rag) in engines.iter_mut().zip([&big, &mid, &chain, &empty, &cycle]) {
                let got = engine.probe(rag);
                assert_eq!(
                    got,
                    pdda::detect_cold(rag),
                    "round {round}: {}x{} probe diverged from the cold path",
                    rag.resources(),
                    rag.processes()
                );
                outcomes.push(got);
            }
        }
        for engine in &engines {
            assert_eq!(engine.stats().dense_reductions, 0);
        }
        outcomes
    };
    let barrier = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = || {
            barrier.wait();
            script()
        };
        let a = s.spawn(run);
        let b = s.spawn(run);
        (
            a.join().expect("first script thread"),
            b.join().expect("second script thread"),
        )
    });
    assert_eq!(a, b, "the two threads diverged");
    assert!(a.iter().any(|o| o.deadlock) && a.iter().any(|o| !o.deadlock));
    assert!(
        a.iter().any(|o| o.iterations >= 300),
        "the chain must reduce deep"
    );
}

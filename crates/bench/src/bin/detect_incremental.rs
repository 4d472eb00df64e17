//! Full-rebuild vs incremental detection probes.
//!
//! Models the RTOS2 hot loop: a mostly-stable sparse RAG mutated by a
//! few edges between detector invocations. The *full rebuild* path is
//! [`baseline_detect`] — the pre-engine probe preserved verbatim (fresh
//! `StateMatrix::from_rag`, freshly allocated scratch, whole-matrix
//! row/column scans every pass); the *incremental* path is a persistent
//! [`DetectEngine`] replaying journal deltas into a live-row worklist.
//! Both compute the identical verdict/iterations/steps, so the gap
//! isolates exactly what the engine removes: per-probe allocation, full
//! matrix construction and whole-matrix scans.
//!
//! The two paths' samples are interleaved, so the speedup does not move
//! with the host's speed. At 64² and up the engine's default gate probes
//! these graphs through the sparse mirror's pass labels. The toggled
//! request there joins two idle nodes, so those rows time the mirror's
//! cheapest write, one that moves no label; writes whose label change
//! spreads are timed by `detect_sparse`'s grid.
//!
//! Emits `BENCH_detect.json` at the repository root, including the
//! acceptance check (≥5× on 64×64 single-edge-edit probes).

use deltaos_bench::microbench::time_pair;
use deltaos_core::engine::DetectEngine;
use deltaos_core::matrix::StateMatrix;
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::reduction::ReductionReport;
use deltaos_core::{ProcId, Rag, ResId};

/// Sparse base state: one short grant/request chain per 32 rows, so the
/// live-edge population stays O(1)-ish while the matrix grows — the
/// steady state an RTOS's resource manager actually probes, where a
/// handful of tasks contend over a couple of resources and everything
/// else is idle. Detection still has real multi-pass reduction work.
fn sparse_rag(k: usize) -> Rag {
    let mut rag = Rag::new(k, k);
    let mut i = 0usize;
    while i + 3 < k {
        let (a, b, c) = (i as u16, i as u16 + 1, i as u16 + 2);
        rag.add_grant(ResId(a), ProcId(a)).unwrap();
        rag.add_request(ProcId(a), ResId(b)).unwrap();
        rag.add_grant(ResId(b), ProcId(b)).unwrap();
        rag.add_request(ProcId(b), ResId(c)).unwrap();
        rag.add_grant(ResId(c), ProcId(c)).unwrap();
        i += 32;
    }
    rag
}

/// The pre-engine probe, replicated verbatim as the benchmark baseline:
/// build a fresh matrix, then run Algorithm 1 with whole-matrix row and
/// column scans and a freshly allocated BWO tree every pass — exactly
/// what `pdda::detect` cost before the incremental engine existed. (The
/// crate's current cold path shares the engine's worklist reduction, so
/// timing it instead would *understate* the pre-engine cost.)
fn baseline_detect(rag: &Rag) -> DetectOutcome {
    let mut matrix = StateMatrix::from_rag(rag);
    let m = matrix.resources();
    let words = matrix.words_per_row();
    let tail_bits = matrix.processes() % 64;
    let tail_mask = if tail_bits == 0 {
        u64::MAX
    } else {
        (1u64 << tail_bits) - 1
    };
    let mut terminal_rows: Vec<bool> = vec![false; m];
    let mut col_mask: Vec<u64> = vec![0; words];
    let mut iterations = 0u32;
    let mut steps = 0u32;
    loop {
        steps += 1;
        let (cr, cg) = matrix.column_bwo();
        let mut any_terminal = false;
        for w in 0..words {
            let valid = if w + 1 == words { tail_mask } else { u64::MAX };
            col_mask[w] = (cr[w] ^ cg[w]) & valid;
            any_terminal |= col_mask[w] != 0;
        }
        for (s, flag) in terminal_rows.iter_mut().enumerate() {
            let (ra, ga) = matrix.row_bwo(s);
            *flag = ra ^ ga;
            any_terminal |= *flag;
        }
        if !any_terminal {
            break;
        }
        iterations += 1;
        for (s, flag) in terminal_rows.iter().enumerate() {
            if *flag {
                matrix.clear_row(s);
            }
        }
        matrix.clear_columns(&col_mask);
    }
    ReductionReport {
        iterations,
        steps,
        complete: matrix.is_empty(),
    }
    .into()
}

/// The edit cell: the last process requesting the last resource — free
/// in [`sparse_rag`] for every benchmarked size.
fn toggle_edge(rag: &mut Rag, on: &mut bool) {
    let p = ProcId(rag.processes() as u16 - 1);
    let q = ResId(rag.resources() as u16 - 1);
    if *on {
        rag.remove_request(p, q);
    } else {
        rag.add_request(p, q).unwrap();
    }
    *on = !*on;
}

struct Row {
    m: usize,
    edits_per_probe: usize,
    full_ns: f64,
    incremental_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.full_ns / self.incremental_ns
    }
}

fn bench_pair(k: usize, edits_per_probe: usize) -> Row {
    // Full-rebuild path: edit then the pre-engine probe. Incremental
    // path: identical edits, persistent engine. Their samples interleave
    // (`time_pair`), so a shift in host speed moves both alike instead of
    // deciding the speedup.
    let (mut full_rag, mut full_on) = (sparse_rag(k), false);
    let (mut rag, mut on) = (sparse_rag(k), false);
    let mut engine = DetectEngine::new(k, k);
    engine.probe(&rag); // prime the mirror (the one full rebuild)
    let (full, incr) = time_pair(
        || {
            for _ in 0..edits_per_probe {
                toggle_edge(&mut full_rag, &mut full_on);
            }
            std::hint::black_box(baseline_detect(&full_rag));
        },
        || {
            for _ in 0..edits_per_probe {
                toggle_edge(&mut rag, &mut on);
            }
            std::hint::black_box(engine.probe(&rag));
        },
    );
    assert_eq!(
        engine.probe(&rag),
        baseline_detect(&rag),
        "engine and pre-engine baseline disagree at {k}x{k}"
    );

    let stats = engine.stats();
    assert_eq!(
        stats.full_rebuilds, 1,
        "steady state must never rebuild (got {stats:?})"
    );
    if edits_per_probe == 0 {
        assert_eq!(
            stats.reductions, 1,
            "edit-free probes must be pure cache hits (got {stats:?})"
        );
    }

    let row = Row {
        m: k,
        edits_per_probe,
        full_ns: full.median_ns,
        incremental_ns: incr.median_ns,
    };
    println!(
        "{:>3}x{:<3} edits/probe={:<2}  full {:>10.1} ns  incremental {:>10.1} ns  speedup {:>6.1}x",
        row.m,
        row.m,
        row.edits_per_probe,
        row.full_ns,
        row.incremental_ns,
        row.speedup()
    );
    row
}

fn json_escape_free(rows: &[Row], accept: &Row) -> String {
    // All values are numeric; hand-rolled JSON keeps the bench crate
    // registry-dependency-free.
    let mut out = String::from("{\n  \"bench\": \"detect_incremental\",\n");
    out.push_str("  \"unit\": \"ns_per_probe_median\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"m\": {}, \"n\": {}, \"edits_per_probe\": {}, \"full_ns\": {:.1}, \"incremental_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.m,
            r.m,
            r.edits_per_probe,
            r.full_ns,
            r.incremental_ns,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"acceptance\": {{\"m\": {}, \"edits_per_probe\": {}, \"speedup\": {:.2}, \"required\": 5.0, \"pass\": {}}}\n}}\n",
        accept.m,
        accept.edits_per_probe,
        accept.speedup(),
        accept.speedup() >= 5.0
    ));
    out
}

fn main() {
    if cfg!(debug_assertions) {
        // Debug timings are dominated by the engine's own equivalence
        // debug_asserts; writing them to the tracked BENCH_detect.json
        // would silently corrupt the perf trajectory.
        eprintln!("detect_incremental: debug build — rerun with --release");
        std::process::exit(2);
    }
    println!("=== detect_incremental: full rebuild vs incremental engine ===");
    let mut rows = Vec::new();

    // Size sweep at one edit per probe (the RTOS2 steady state).
    for k in [3usize, 8, 16, 32, 64, 128] {
        rows.push(bench_pair(k, 1));
    }
    // Edit-rate sweep at 64x64: denser mutation batches between probes,
    // plus the edit-free case (pure result-cache hit).
    for edits in [0usize, 4, 16] {
        rows.push(bench_pair(64, edits));
    }

    let accept = rows
        .iter()
        .find(|r| r.m == 64 && r.edits_per_probe == 1)
        .expect("64x64 single-edit row present");
    let accept = Row {
        m: accept.m,
        edits_per_probe: accept.edits_per_probe,
        full_ns: accept.full_ns,
        incremental_ns: accept.incremental_ns,
    };
    println!(
        "\nacceptance: 64x64 single-edge-edit speedup {:.1}x (required >= 5x)",
        accept.speedup()
    );

    let json = json_escape_free(&rows, &accept);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detect.json");
    std::fs::write(path, &json).expect("write BENCH_detect.json");
    println!("wrote {path}");
    assert!(
        accept.speedup() >= 5.0,
        "incremental engine must be >= 5x on sparse 64x64 single-edit probes"
    );
}

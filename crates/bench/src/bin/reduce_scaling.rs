//! Parallel sharded reduction scaling sweep.
//!
//! Reduces LCG-populated matrices at {256², 512², 1024²} across
//! {1, 2, 4, 8} shards, plus a tall 4096×64 case that exercises the
//! column-major variant, timing [`terminal_reduction_with`] with a
//! fresh matrix clone per iteration. Before anything is timed, every
//! configuration's parallel result (final matrix *and*
//! [`ReductionReport`]) is asserted bit-identical to the serial one —
//! the determinism guarantee is checked in the same binary that reports
//! the speedups.
//!
//! The measured shapes are deliberately *below* the default auto-shard
//! gates: an earlier run of this sweep measured 0.26–0.67× "speedups"
//! at 512²/1024², which is why `ParConfig::default` now keeps those
//! shapes serial (`min_area` = 2048², host-capped threads). The bench
//! therefore forces the gates open for its measurement rows — it is
//! measuring the sharded path itself — and the acceptance check flips
//! from a throughput floor to a gating-consistency rule: **no shape
//! with a measured slowdown may be auto-selected for sharding**.
//!
//! The sweep also times the sparse path's cold reduction
//! ([`SparseState`]: a rebuild from the matrix, which peels once, plus
//! the report) on the 1024² peel chain. At ~2k live edges in a 1M-cell
//! matrix (≈2‰ density) the chain is exactly the regime the hybrid
//! engine routes to the sparse path, and the column records the
//! dense-vs-sparse crossover next to the shard scaling in one place.
//!
//! Emits `BENCH_reduce_scaling.json` at the repository root.
//! `--smoke` runs 256² at 1–2 threads (debug builds allowed, no JSON,
//! no perf gate) for CI.

use deltaos_bench::microbench::{time, time_with_setup};
use deltaos_core::matrix::StateMatrix;
use deltaos_core::par::{ParConfig, WorkerPool};
use deltaos_core::reduction::{terminal_reduction_with, ReductionReport};
use deltaos_core::sparse::SparseState;
use deltaos_core::{ProcId, ResId};

/// Deterministic peel workload: one long grant/request chain — row `s`
/// granted to process `s mod n`, waited on by process `(s+1) mod n` —
/// ending in an open tail so the reduction peels from the far end, a
/// couple of rows per pass. The live worklist shrinks by O(1) per pass
/// while every pass scans all surviving rows, so a k-row matrix does
/// Θ(k²) row scans: the fused-scan work the shards split, with enough
/// passes that per-pass gating decisions matter.
fn workload(m: usize, n: usize) -> StateMatrix {
    let mut mat = StateMatrix::new(m, n);
    for s in 0..m {
        mat.set_grant(ResId(s as u16), ProcId((s % n) as u16));
        if s + 1 < m {
            mat.set_request(ProcId(((s + 1) % n) as u16), ResId(s as u16));
        }
    }
    mat
}

/// Serial reference config: one shard, column-major disabled, so the
/// baseline is always the plain row-major path.
fn serial_cfg() -> ParConfig {
    ParConfig {
        threads: 1,
        colmajor_ratio: 0,
        ..ParConfig::default()
    }
}

/// The benchmarked config for `threads` shards. The default gates would
/// keep every square case here serial (that is what this bench's own
/// measurements bought), so the measurement rows force the area gate
/// down to the historical 256² floor and disable the host-CPU cap —
/// the point is to measure the sharded path, not the dispatcher.
fn par_cfg(threads: usize) -> ParConfig {
    ParConfig {
        min_area: 256 * 256,
        cap_to_host: false,
        ..ParConfig::with_threads(threads)
    }
}

/// Would the *default* auto gates (host cap aside) shard this shape?
/// Host-independent so the recorded value is reproducible anywhere.
fn auto_sharded(m: usize, n: usize, threads: usize) -> bool {
    let auto = ParConfig {
        cap_to_host: false,
        ..ParConfig::with_threads(threads)
    };
    auto.area_allows(m, n) || auto.wants_colmajor(m, n)
}

fn reduce(
    mat: &StateMatrix,
    pool: Option<&WorkerPool>,
    cfg: ParConfig,
) -> (StateMatrix, ReductionReport) {
    let mut work = mat.clone();
    let report = terminal_reduction_with(&mut work, pool, cfg);
    (work, report)
}

/// Asserts the parallel/column-major reduction of `mat` is bit-identical
/// to the serial one, and returns the serial report.
fn assert_equivalent(
    label: &str,
    mat: &StateMatrix,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> ReductionReport {
    let (serial_m, serial_r) = reduce(mat, None, serial_cfg());
    let (par_m, par_r) = reduce(mat, Some(pool), cfg);
    assert_eq!(serial_r, par_r, "{label}: report diverged from serial");
    assert!(
        serial_m == par_m,
        "{label}: final matrix diverged from serial"
    );
    serial_r
}

struct Row {
    m: usize,
    n: usize,
    threads: usize,
    ns: f64,
    serial_ns: f64,
    steps: u32,
    colmajor: bool,
    auto_sharded: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_ns / self.ns
    }
}

fn bench_case(m: usize, n: usize, threads: &[usize], rows: &mut Vec<Row>) {
    let mat = workload(m, n);
    let colmajor = par_cfg(1).wants_colmajor(m, n);
    let serial = time_with_setup(
        || mat.clone(),
        |mut w| {
            std::hint::black_box(terminal_reduction_with(&mut w, None, serial_cfg()));
        },
    );
    for &t in threads {
        let pool = WorkerPool::new(t);
        let cfg = par_cfg(t);
        let report = assert_equivalent(&format!("{m}x{n} t={t}"), &mat, &pool, cfg);
        let timed = time_with_setup(
            || mat.clone(),
            |mut w| {
                std::hint::black_box(terminal_reduction_with(&mut w, Some(&pool), cfg));
            },
        );
        let row = Row {
            m,
            n,
            threads: t,
            ns: timed.median_ns,
            serial_ns: serial.median_ns,
            steps: report.steps,
            colmajor,
            auto_sharded: auto_sharded(m, n, t),
        };
        println!(
            "{:>4}x{:<4} threads={:<2} {:>12.1} ns (serial {:>12.1} ns)  speedup {:>5.2}x  steps {:>4}{}{}",
            row.m,
            row.n,
            row.threads,
            row.ns,
            row.serial_ns,
            row.speedup(),
            row.steps,
            if colmajor { "  [colmajor]" } else { "" },
            if row.auto_sharded { "  [auto]" } else { "" }
        );
        rows.push(row);
    }
}

/// Times the sparse path's cold reduction on the same 1024² peel chain
/// — a rebuild from the matrix, whose one peel labels every row and
/// column, plus the report (a probe of an unchanged state only reads the
/// kept labels) — and checks it agrees with the dense serial report.
/// Returns `(sparse_ns, serial_ns)`.
fn bench_sparse_1024(rows: &[Row]) -> (f64, f64) {
    let mat = workload(1024, 1024);
    let mut sp = SparseState::new(1024, 1024);
    sp.rebuild_from_matrix(&mat);
    let (_, dense_r) = reduce(&mat, None, serial_cfg());
    let sparse_r = sp.reduce();
    assert_eq!(
        dense_r, sparse_r,
        "1024x1024 sparse: report diverged from dense serial"
    );
    let timed = time(|| {
        sp.rebuild_from_matrix(&mat);
        std::hint::black_box(sp.reduce());
    });
    let serial_ns = rows
        .iter()
        .find(|r| r.m == 1024 && r.n == 1024)
        .expect("1024x1024 row present")
        .serial_ns;
    println!(
        "1024x1024 sparse     {:>12.1} ns (serial {:>12.1} ns)  speedup {:>5.2}x  edges {}",
        timed.median_ns,
        serial_ns,
        serial_ns / timed.median_ns,
        sp.live_edges()
    );
    (timed.median_ns, serial_ns)
}

fn to_json(rows: &[Row], sparse_1024: (f64, f64), host_cpus: usize) -> String {
    // The acceptance rule: the default gates must never auto-select the
    // sharded path for a shape this very sweep measured as a slowdown.
    let violations: Vec<&Row> = rows
        .iter()
        .filter(|r| r.threads > 1 && r.speedup() < 1.0 && r.auto_sharded)
        .collect();
    let mut out = String::from("{\n  \"bench\": \"reduce_scaling\",\n");
    out.push_str("  \"unit\": \"ns_per_reduction_median\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"equivalence\": {\"serial_vs_parallel_bit_identical\": true, \"dense_vs_sparse_report_identical\": true},\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"m\": {}, \"n\": {}, \"threads\": {}, \"ns\": {:.1}, \"serial_ns\": {:.1}, \"speedup\": {:.3}, \"steps\": {}, \"colmajor\": {}, \"auto_sharded\": {}}}{}\n",
            r.m,
            r.n,
            r.threads,
            r.ns,
            r.serial_ns,
            r.speedup(),
            r.steps,
            r.colmajor,
            r.auto_sharded,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let (sparse_ns, serial_ns) = sparse_1024;
    out.push_str(&format!(
        "  \"sparse_1024\": {{\"ns\": {:.1}, \"serial_ns\": {:.1}, \"speedup\": {:.3}}},\n",
        sparse_ns,
        serial_ns,
        serial_ns / sparse_ns
    ));
    out.push_str(&format!(
        "  \"acceptance\": {{\"rule\": \"no_auto_shard_where_slowdown_measured\", \"violations\": {}, \"pass\": {}}}\n}}\n",
        violations.len(),
        violations.is_empty()
    ));
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let mut rows = Vec::new();
        bench_case(256, 256, &[1, 2], &mut rows);
        // Equivalence on the column-major shape too, untimed.
        let tall = workload(2048, 64);
        let pool = WorkerPool::new(2);
        assert_equivalent("2048x64 t=2 (smoke)", &tall, &pool, par_cfg(2));
        println!("smoke ok");
        return;
    }

    if cfg!(debug_assertions) {
        // Debug timings would corrupt the tracked BENCH_reduce_scaling.json.
        eprintln!("reduce_scaling: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== reduce_scaling: sharded reduction sweep ({host_cpus} host CPUs) ===");
    let mut rows = Vec::new();
    for k in [256usize, 512, 1024] {
        bench_case(k, k, &[1, 2, 4, 8], &mut rows);
    }
    // Tall case: the column-major variant (m >= 8n transposes first).
    bench_case(4096, 64, &[1, 4], &mut rows);
    let sparse_1024 = bench_sparse_1024(&rows);

    let json = to_json(&rows, sparse_1024, host_cpus);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_reduce_scaling.json"
    );
    std::fs::write(path, &json).expect("write BENCH_reduce_scaling.json");
    println!("wrote {path}");

    let violations: Vec<String> = rows
        .iter()
        .filter(|r| r.threads > 1 && r.speedup() < 1.0 && r.auto_sharded)
        .map(|r| format!("{}x{} t={} {:.2}x", r.m, r.n, r.threads, r.speedup()))
        .collect();
    assert!(
        violations.is_empty(),
        "default gates auto-shard measured slowdowns: {violations:?}"
    );
    println!("acceptance: no measured slowdown is auto-sharded by the default gates");
}

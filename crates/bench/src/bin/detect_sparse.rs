//! Dense-vs-sparse detection: the crossover grid behind the hybrid
//! gate, and the node-count scaling sweep.
//!
//! **Crossover grid.** For each shape (16², 64², 256², 512², 1024² and
//! the tall 4096×64), each density (live edges over the area: 1‰, 1%,
//! 5%, 20%) and each depth (a shallow random graph and the deep padded
//! peel chain), the grid times forced-dense against forced-sparse
//! [`DetectEngine`] probes, each after one toggled request edge, and the
//! per-edit cost of keeping the sparse mirror: its time, and the
//! adjacency entries the mirror visits per toggle and probe (a count
//! that holds on any host). The two engines' samples
//! are interleaved, so a shift in host speed moves both alike instead
//! of deciding the ratio. Each cell records the path
//! [`SparseConfig::default`] picks for its shape and edge count. The
//! acceptance check: on every cell of a shape the gate keeps a sparse
//! mirror for (64² and up), the gate's path is within 1.25× of the
//! faster one, or within 0.5 µs of it. Below that floor dense is the only
//! path, and the sparse saving it forgoes is printed. Both sides run
//! single-threaded, so the check is armed on every host.
//!
//! **Scaling sweep.** Identical incremental edit+probe loops through
//! both engines at {1k, 10k, 100k} graph nodes (nodes = resources +
//! processes), timing the per-probe median. The dense path's cost is
//! dominated by the matrix area (its work copy and worklist setup scale
//! with m·n); the sparse path scales with the live-edge count — so the
//! gap widens with size. Its acceptance gate: sparse ≥10× over dense at
//! 100k nodes and 0.01 edges per node, also armed on every host.
//!
//! Before anything is timed, probe outcomes of both engines are
//! asserted equal (and against the cold path where it is affordable) —
//! the equivalence guarantee is checked in the same binary that reports
//! the timings.
//!
//! One extra row is *dense-infeasible by construction*: a 1M×1M graph
//! (2M nodes). The dense bitmap pair alone would need ~250 GB and the
//! `u16` process/resource ids of the matrix engine cannot even address
//! it; [`SparseState`]'s usize API detects on it in microseconds. The
//! row is recorded with `"dense_feasible": false`.
//!
//! Emits `BENCH_sparse.json` at the repository root: `rows` (the scaling
//! sweep) and `grid` (the crossover cells), densities as a share of the
//! area from the measured edge count. `--smoke` runs one grid cell on
//! each side of the gate plus the gate check (unarmed in debug builds,
//! where the timings mean nothing), and the 1k-node sweep case; it
//! writes no JSON.

use deltaos_bench::microbench::{time, time_pair};
use deltaos_core::engine::DetectEngine;
use deltaos_core::sparse::{SparseConfig, SparseState};
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

/// Populates `rag` with `target` random edges (grants and requests in a
/// 1:2 mix, rejected duplicates retried) — the steady-state graph the
/// probe loop perturbs.
fn populate(rag: &mut Rag, rng: &mut Lcg, target: usize) {
    let (m, n) = (rag.resources() as u64, rag.processes() as u64);
    let mut guard = 0usize;
    while rag.edge_count() < target {
        let p = ProcId(rng.below(n) as u16);
        let q = ResId(rng.below(m) as u16);
        if rng.below(3) == 0 {
            let _ = rag.add_grant(q, p);
        } else {
            let _ = rag.add_request(p, q);
        }
        guard += 1;
        assert!(guard < target * 40 + 1000, "edge population stalled");
    }
}

/// Per-probe medians through `dense` and `sparse`, their samples
/// interleaved by [`time_pair`] so a shift in host speed cannot skew the
/// ratio. The toggled request `p → q` is first removed from `rag`; each
/// engine then probes its own copy, and each iteration toggles the
/// request there, so the result cache never short-circuits.
fn probe_pair_ns(
    dense: &mut DetectEngine,
    sparse: &mut DetectEngine,
    rag: &mut Rag,
    (p, q): (ProcId, ResId),
) -> (f64, f64) {
    let _ = rag.remove_request(p, q);
    let (d, s) = time_pair(toggler(dense, rag, (p, q)), toggler(sparse, rag, (p, q)));
    (d.median_ns, s.median_ns)
}

/// One timed iteration for `engine`: toggle `p → q` in a private copy of
/// `rag` (a new graph identity, so the first call rebuilds the mirror
/// during calibration) and probe.
fn toggler<'a>(
    engine: &'a mut DetectEngine,
    rag: &Rag,
    (p, q): (ProcId, ResId),
) -> impl FnMut() + 'a {
    let mut rag = rag.clone();
    let mut on = false;
    move || {
        if on {
            rag.remove_request(p, q);
        } else {
            rag.add_request(p, q).expect("the toggled request is valid");
        }
        on = !on;
        std::hint::black_box(engine.probe(&rag));
    }
}

struct Row {
    nodes: usize,
    m: usize,
    n: usize,
    edges: usize,
    dense_ns: Option<f64>,
    sparse_ns: f64,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.dense_ns.map(|d| d / self.sparse_ns)
    }

    /// Live edges as a share of the area, from the measured count.
    fn density_pct(&self) -> f64 {
        100.0 * self.edges as f64 / (self.m as f64 * self.n as f64)
    }
}

/// Builds the graph for one sweep cell (`edges_per_node` × nodes edges
/// before the check stream), checks dense/sparse probe equivalence on a
/// shared edit stream, then times both engines.
fn bench_cell(nodes: usize, edges_per_node: f64, check_cold: bool) -> Row {
    let (m, n) = (nodes / 2, nodes / 2);
    let edges = (nodes as f64 * edges_per_node).round() as usize;
    let mut rng = Lcg::new((nodes as u64) << 16 | (edges_per_node * 10_000.0) as u64);
    let mut rag = Rag::new(m, n);
    populate(&mut rag, &mut rng, edges);

    let mut dense = DetectEngine::new(m, n);
    dense.set_sparse(SparseConfig::disabled());
    let mut sparse = DetectEngine::new(m, n);
    sparse.set_sparse(SparseConfig::always());

    // Equivalence on a perturbation stream before timing anything.
    let checks = if nodes <= 10_000 { 32 } else { 5 };
    for i in 0..checks {
        let p = ProcId(rng.below(n as u64) as u16);
        let q = ResId(rng.below(m as u64) as u16);
        if rng.below(2) == 0 {
            let _ = rag.add_request(p, q);
        } else {
            let _ = rag.remove_request(p, q);
        }
        let d = dense.probe(&rag);
        let s = sparse.probe(&rag);
        assert_eq!(d, s, "nodes={nodes} edges/node={edges_per_node} check={i}");
        if check_cold {
            assert_eq!(s, pdda::detect_cold(&rag), "vs cold, check={i}");
        }
    }

    let toggle = (ProcId(0), ResId((m - 1) as u16));
    let (dense_ns, sparse_ns) = probe_pair_ns(&mut dense, &mut sparse, &mut rag, toggle);
    let row = Row {
        nodes,
        m,
        n,
        edges: rag.edge_count(),
        dense_ns: Some(dense_ns),
        sparse_ns,
    };
    println!(
        "{:>8} nodes ({:>6}x{:<6}) {:>6} edges ({:>8.5}%)  dense {:>14.1} ns  sparse {:>12.1} ns  speedup {:>8.1}x",
        row.nodes,
        row.m,
        row.n,
        row.edges,
        row.density_pct(),
        dense_ns,
        sparse_ns,
        row.speedup().unwrap()
    );
    row
}

/// The dense-infeasible row: 1M×1M via the sparse usize API. The dense
/// engine cannot represent it (u16 ids top out at 65536 and the bitmap
/// pair would need ~250 GB), so only the sparse side is timed.
fn bench_infeasible() -> Row {
    let (m, n) = (1_000_000usize, 1_000_000usize);
    let mut sp = SparseState::new(m, n);
    let mut rng = Lcg::new(0x1AF6E);
    let edges = 10_000usize;
    while (sp.live_edges() as usize) < edges {
        let p = rng.below(n as u64) as usize;
        let q = rng.below(m as u64) as usize;
        if rng.below(3) == 0 {
            sp.set_grant(q, p);
        } else {
            sp.set_request(p, q);
        }
    }
    let mut on = false;
    let measured = time(|| {
        if on {
            sp.clear(m - 1, 0);
        } else {
            sp.set_request(0, m - 1);
        }
        on = !on;
        std::hint::black_box(sp.detect());
    });
    let row = Row {
        nodes: m + n,
        m,
        n,
        edges: sp.live_edges() as usize,
        dense_ns: None,
        sparse_ns: measured.median_ns,
    };
    println!(
        "{:>8} nodes ({:>6}x{:<6}) {:>6} edges ({:>8.5}%)  dense     INFEASIBLE     sparse {:>12.1} ns",
        row.nodes,
        row.m,
        row.n,
        row.edges,
        row.density_pct(),
        row.sparse_ns
    );
    row
}

/// Shallow or deep graph, the two reduction depths the grid covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// A random graph: most edges leave in the first few passes.
    Shallow,
    /// The peel chain, padded with order-respecting requests: the
    /// reduction peels one edge from each end per pass.
    Deep,
}

impl Depth {
    fn name(self) -> &'static str {
        match self {
            Depth::Shallow => "shallow",
            Depth::Deep => "deep",
        }
    }
}

/// The deep graph on `rag`, holding `target` edges: the peel chain
/// (`R_s` granted to `P_s` and requested by `P_{s+1}`) over as many
/// pairs as the budget allows, then padding requests `P_j → R_i` with
/// `j` above `R_i`'s owner. Rows beyond the chain are first granted to a
/// chain process. Every wait points to a lower process index, so the
/// graph is acyclic and reduces completely, but a padding edge survives
/// until one of the chain's peeling ends reaches its row or column.
fn populate_deep(rag: &mut Rag, rng: &mut Lcg, target: usize) {
    let (m, n) = (rag.resources(), rag.processes());
    let k = m.min(n).min(target.div_ceil(2)).max(1);
    for s in 0..k {
        rag.add_grant(ResId(s as u16), ProcId(s as u16))
            .expect("chain grant");
        if s + 1 < k {
            rag.add_request(ProcId(s as u16 + 1), ResId(s as u16))
                .expect("chain request");
        }
    }
    let mut guard = 0usize;
    while rag.edge_count() < target {
        guard += 1;
        assert!(guard < target * 40 + 1000, "deep population stalled");
        let q = ResId(rng.below(m as u64) as u16);
        let owner = match rag.owner(q) {
            Some(o) => o.index(),
            None => {
                let o = rng.below(k as u64) as u16;
                rag.add_grant(q, ProcId(o)).expect("unowned row");
                continue;
            }
        };
        if owner + 1 < n {
            let p = owner + 1 + rng.below((n - owner - 1) as u64) as usize;
            let _ = rag.add_request(ProcId(p as u16), q);
        }
    }
}

/// One crossover-grid cell: forced-dense against forced-sparse probe
/// time on one graph, the path the default gate picks for it, and the
/// per-edit cost of keeping the sparse mirror.
struct GridCell {
    m: usize,
    n: usize,
    depth: Depth,
    target_permille: f64,
    edges: usize,
    iterations: u32,
    dense_ns: f64,
    sparse_ns: f64,
    mirror_edit_ns: f64,
    /// Adjacency entries [`SparseState`] visits per toggle and probe.
    visits_per_toggle: f64,
    /// The default gate keeps a sparse mirror for this shape.
    covered: bool,
    gate_sparse: bool,
}

impl GridCell {
    fn density_pct(&self) -> f64 {
        100.0 * self.edges as f64 / (self.m * self.n) as f64
    }

    fn chosen_ns(&self) -> f64 {
        if self.gate_sparse {
            self.sparse_ns
        } else {
            self.dense_ns
        }
    }

    fn best_ns(&self) -> f64 {
        self.dense_ns.min(self.sparse_ns)
    }

    /// The gate-consistency rule: the default gate's path is within
    /// `GATE_RATIO` of the faster one, or within `GATE_SLACK_NS` of it.
    /// `None` below the mirror floor, where the engine keeps no sparse
    /// mirror and dense is the only path.
    fn gate_ok(&self) -> Option<bool> {
        let (chosen, best) = (self.chosen_ns(), self.best_ns());
        self.covered
            .then_some(chosen <= GATE_RATIO * best || chosen - best <= GATE_SLACK_NS)
    }
}

/// How far the default gate's path may trail the faster one.
const GATE_RATIO: f64 = 1.25;
/// Absolute slack, for cells where both paths take well under a
/// microsecond and the ratio is timer noise.
const GATE_SLACK_NS: f64 = 500.0;

/// Times one grid cell. Both engines are checked against each other
/// (and the cold path, below 256² or on shallow graphs) before anything
/// is timed; the timed loop toggles a request that keeps the graph's
/// shape (an order-respecting wait on the deep graph).
fn grid_cell(m: usize, n: usize, target_permille: f64, depth: Depth) -> GridCell {
    let area = m * n;
    let target = ((area as f64 * target_permille / 1000.0).round() as usize).max(1);
    let mut rng = Lcg::new((area as u64) << 20 ^ (m as u64) << 8 ^ target as u64);
    let mut rag = Rag::new(m, n);
    let toggle = match depth {
        Depth::Shallow => {
            populate(&mut rag, &mut rng, target);
            let q = ResId((m - 1) as u16);
            let p = ProcId(u16::from(rag.owner(q) == Some(ProcId(0))));
            (p, q)
        }
        Depth::Deep => {
            populate_deep(&mut rag, &mut rng, target);
            (ProcId((n - 1) as u16), ResId(0))
        }
    };
    let edges = rag.edge_count();

    let mut dense = DetectEngine::new(m, n);
    dense.set_sparse(SparseConfig::disabled());
    let mut sparse = DetectEngine::new(m, n);
    sparse.set_sparse(SparseConfig::always());
    let d = dense.probe(&rag);
    let s = sparse.probe(&rag);
    assert_eq!(d, s, "{m}x{n} {} {target} edges", depth.name());
    if area <= 256 * 256 || depth == Depth::Shallow {
        assert_eq!(s, pdda::detect_cold(&rag), "{m}x{n} vs cold");
    }
    if depth == Depth::Deep {
        assert!(!s.deadlock, "the deep graph is acyclic");
    }

    let (dense_ns, sparse_ns) = probe_pair_ns(&mut dense, &mut sparse, &mut rag, toggle);
    let mut mirror = SparseState::new(m, n);
    mirror.rebuild_from_rag(&rag);
    let (p, q) = (toggle.0.index(), toggle.1.index());
    let before = mirror.visits();
    for _ in 0..2 {
        mirror.set_request(p, q);
        std::hint::black_box(mirror.reduce());
        mirror.clear(q, p);
        std::hint::black_box(mirror.reduce());
    }
    let visits_per_toggle = (mirror.visits() - before) as f64 / 4.0;
    let mut on = false;
    let mirror_edit_ns = time(|| {
        if on {
            mirror.clear(q, p);
        } else {
            mirror.set_request(p, q);
        }
        on = !on;
        std::hint::black_box(&mirror);
    })
    .median_ns;
    let cell = GridCell {
        m,
        n,
        depth,
        target_permille,
        edges,
        iterations: s.iterations,
        dense_ns,
        sparse_ns,
        mirror_edit_ns,
        visits_per_toggle,
        covered: SparseConfig::default().covers_shape(m, n),
        gate_sparse: SparseConfig::default().prefers_sparse(m, n, edges as u64),
    };
    println!(
        "{:>4}x{:<4} {:<7} {:>7} edges ({:>7.3}%) {:>5} iters  dense {:>12.1} ns  sparse {:>12.1} ns  ({:>6.2}x)  mirror edit {:>8.1} ns {:>8.1} visits  gate {:<6} {}",
        m,
        n,
        depth.name(),
        edges,
        cell.density_pct(),
        cell.iterations,
        dense_ns,
        sparse_ns,
        sparse_ns / dense_ns,
        mirror_edit_ns,
        visits_per_toggle,
        if cell.gate_sparse { "sparse" } else { "dense" },
        match cell.gate_ok() {
            Some(true) => "ok",
            Some(false) => "MISS",
            None => "(below the mirror floor)",
        }
    );
    cell
}

/// The grid's shapes: squares from paper scale to service scale, and the
/// tall shape the dense engine reduces column-major.
const GRID_SHAPES: [(usize, usize); 6] = [
    (16, 16),
    (64, 64),
    (256, 256),
    (512, 512),
    (1024, 1024),
    (4096, 64),
];
/// Live edges per thousand cells of the area: 1‰, 1%, 5% and 20%.
const GRID_PERMILLE: [f64; 4] = [1.0, 10.0, 50.0, 200.0];

/// Panics naming every cell where the default gate's path trails the
/// faster one by more than the rule allows. Cells below the mirror floor
/// have one path; their forgone sparse saving is printed, not judged.
fn check_gate(cells: &[GridCell]) {
    let misses: Vec<String> = cells
        .iter()
        .filter(|c| c.gate_ok() == Some(false))
        .map(|c| {
            format!(
                "{}x{} {} {} edges: gate {} {:.1} ns, best {:.1} ns",
                c.m,
                c.n,
                c.depth.name(),
                c.edges,
                if c.gate_sparse { "sparse" } else { "dense" },
                c.chosen_ns(),
                c.best_ns()
            )
        })
        .collect();
    let judged = cells.iter().filter(|c| c.covered).count();
    println!(
        "gate check: {} of {judged} cells within {GATE_RATIO}x or {GATE_SLACK_NS} ns of the faster path",
        judged - misses.len()
    );
    let floor: Vec<&GridCell> = cells.iter().filter(|c| !c.covered).collect();
    if let Some(worst) = floor
        .iter()
        .max_by(|a, b| (a.chosen_ns() - a.best_ns()).total_cmp(&(b.chosen_ns() - b.best_ns())))
    {
        println!(
            "below the mirror floor ({} cells, dense only): the sparse path would save at most {:.1} ns per probe ({}x{} {})",
            floor.len(),
            worst.chosen_ns() - worst.best_ns(),
            worst.m,
            worst.n,
            worst.depth.name()
        );
    }
    assert!(
        misses.is_empty(),
        "the default gate picks a slower path on: {}",
        misses.join("; ")
    );
}

/// The scaling sweep's acceptance row: 100k nodes at 0.01 edges per
/// node, the sparser of its two cells.
fn acceptance_row(rows: &[Row]) -> &Row {
    rows.iter()
        .filter(|r| r.nodes == 100_000)
        .min_by_key(|r| r.edges)
        .expect("100k-node row present")
}

fn to_json(rows: &[Row], grid: &[GridCell], host_cpus: usize) -> String {
    let accept = acceptance_row(rows);
    let speedup = accept.speedup().expect("acceptance row is dense-feasible");
    let mut out = String::from("{\n  \"bench\": \"detect_sparse\",\n");
    out.push_str("  \"unit\": \"ns_per_probe_median\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"equivalence\": {\"dense_vs_sparse_probe_outcomes_identical\": true},\n");
    out.push_str("  \"density\": \"live edges as a share of the area (m * n), from the measured edge count\",\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let dense = r.dense_ns.map_or("null".to_string(), |d| format!("{d:.1}"));
        let speed = r
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.1}"));
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"m\": {}, \"n\": {}, \"edges\": {}, \"density_pct\": {:.6}, \"dense_feasible\": {}, \"dense_ns\": {}, \"sparse_ns\": {:.1}, \"speedup\": {}}}{}\n",
            r.nodes,
            r.m,
            r.n,
            r.edges,
            r.density_pct(),
            r.dense_ns.is_some(),
            dense,
            r.sparse_ns,
            speed,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"acceptance\": {{\"nodes\": 100000, \"edges\": {}, \"speedup\": {:.1}, \"required\": 10.0, \"pass\": {}}},\n",
        accept.edges,
        speedup,
        speedup >= 10.0
    ));
    out.push_str("  \"grid\": [\n");
    for (i, c) in grid.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"m\": {}, \"n\": {}, \"depth\": \"{}\", \"target_permille\": {}, \"edges\": {}, \"density_pct\": {:.4}, \"iterations\": {}, \"dense_ns\": {:.1}, \"sparse_ns\": {:.1}, \"sparse_over_dense\": {:.3}, \"mirror_edit_ns\": {:.1}, \"visits_per_toggle\": {:.1}, \"mirror\": {}, \"gate\": \"{}\", \"gate_ok\": {}}}{}\n",
            c.m,
            c.n,
            c.depth.name(),
            c.target_permille,
            c.edges,
            c.density_pct(),
            c.iterations,
            c.dense_ns,
            c.sparse_ns,
            c.sparse_ns / c.dense_ns,
            c.mirror_edit_ns,
            c.visits_per_toggle,
            c.covered,
            if c.gate_sparse { "sparse" } else { "dense" },
            c.gate_ok().map_or("null".to_string(), |ok| ok.to_string()),
            if i + 1 < grid.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gate_check\": {{\"rule\": \"default gate within {GATE_RATIO}x or {GATE_SLACK_NS} ns of the faster path, on every shape with a sparse mirror\", \"cells\": {}, \"pass\": {}}}\n}}\n",
        grid.iter().filter(|c| c.covered).count(),
        grid.iter().all(|c| c.gate_ok() != Some(false))
    ));
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // One cell on each side of the default gate. It sends every
        // grid cell with a mirror sparse, the densest 256² one included,
        // so the dense side is the mirror floor.
        let cells = [
            grid_cell(256, 256, 200.0, Depth::Deep),
            grid_cell(16, 16, 200.0, Depth::Shallow),
        ];
        assert!(
            cells[0].gate_sparse && !cells[1].gate_sparse,
            "the smoke cells must straddle the gate"
        );
        if cfg!(debug_assertions) {
            println!("gate check unarmed: debug-build timings mean nothing");
        } else {
            check_gate(&cells);
        }
        bench_cell(1_000, 0.01, true);
        println!("smoke ok");
        return;
    }

    if cfg!(debug_assertions) {
        // Debug timings would corrupt the tracked BENCH_sparse.json.
        eprintln!("detect_sparse: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== detect_sparse: dense/sparse crossover grid ({host_cpus} host CPUs) ===");
    let mut grid = Vec::new();
    for (m, n) in GRID_SHAPES {
        for permille in GRID_PERMILLE {
            for depth in [Depth::Shallow, Depth::Deep] {
                grid.push(grid_cell(m, n, permille, depth));
            }
        }
    }
    println!("=== detect_sparse: dense vs sparse scaling sweep ===");
    let mut rows = Vec::new();
    for nodes in [1_000usize, 10_000, 100_000] {
        for edges_per_node in [0.01f64, 0.1] {
            rows.push(bench_cell(nodes, edges_per_node, nodes == 1_000));
        }
    }
    rows.push(bench_infeasible());

    let json = to_json(&rows, &grid, host_cpus);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse.json");
    std::fs::write(path, &json).expect("write BENCH_sparse.json");
    println!("wrote {path}");

    let speedup = acceptance_row(&rows)
        .speedup()
        .expect("acceptance row is dense-feasible");
    println!(
        "acceptance: 100k-node 0.01-edges-per-node sparse speedup {speedup:.1}x (required >= 10x)"
    );
    check_gate(&grid);
    assert!(
        speedup >= 10.0,
        "sparse must be >= 10x over dense at 100k nodes, 0.01 edges per node (got {speedup:.1}x)"
    );
}

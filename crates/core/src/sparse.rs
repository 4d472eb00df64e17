//! Sparse graph-native terminal reduction for large, mostly-empty RAGs.
//!
//! The dense engine pays O(live_rows × ⌈n/64⌉) per reduction pass no
//! matter how few edges exist: every live row contributes a full word
//! scan even when it carries a single bit. At service scale (tens of
//! thousands of processes, well under 1% occupancy) nearly every word is
//! zero, so the matrix form does mostly-wasted work — and beyond the
//! `u16` id space it cannot even be allocated.
//!
//! [`SparseState`] keeps the same state as one flat edge array: every
//! live cell is a (row, column, grant bit) triple, stored contiguously in
//! no particular order. A per-row list of edge slots indexes the array,
//! so a cell read or write costs O(degree) of the touched row; deleting
//! an edge swap-removes it and repoints the one slot that moved.
//!
//! [`SparseState::reduce`] copies the edge array into a workspace and
//! counts `[requests, grants]` per row and per column. Each pass splits
//! the surviving edges into kept and gone, then decrements the counts of
//! the gone edges. An edge goes when its row or its column is terminal
//! (requests XOR grants), judged on the counts as they stood at the start
//! of the pass.
//!
//! **Equivalence.** That rule is [`crate::reduction::reduce_core`]'s pass
//! restated per edge:
//!
//! * a row is terminal iff it has requests XOR grants — its count pair
//!   here, the fused BWO row scan there;
//! * a column is terminal iff it has requests XOR grants across live
//!   rows — its count pair here, the dense column mask there;
//! * `reduce_core` removes against the pre-removal snapshot the flags
//!   were computed from: terminal rows drop whole rows, non-terminal rows
//!   drop only their terminal-column cells. Together that is exactly "an
//!   edge leaves in the pass in which one of its ends is terminal", and
//!   deferring the decrements until the split is done keeps the snapshot;
//! * a terminal row or column holds at least one edge, so a pass finds a
//!   terminal iff it removes an edge. The first pass that removes nothing
//!   is counted in `steps`, and completeness is "no edge survived" —
//!   identical to the dense check that every column accumulator is zero.
//!
//! Since the per-pass terminal sets are equal, `iterations`, `steps` and
//! the verdict are bit-identical to the dense engine on every input (the
//! LCG equivalence suite drives both paths through identical random
//! delta streams to enforce this).
//!
//! **Cost.** Copying and counting is O(edges). A pass is one sweep over
//! the surviving edges plus a decrement per gone edge, all over a few
//! contiguous arrays, so a probe costs O(Σ surviving edges over its
//! passes). Shallow graphs, which lose most edges in the first few
//! passes, cost a small multiple of the edge count. The worst case is a
//! deep chain, which loses only its two ends per pass: a chain of k edges
//! takes about k/2 passes and O(k²) in all.
//!
//! Unlike the matrix paths, `SparseState` is indexed by `usize`, so it
//! represents graphs beyond `u16` ids (e.g. 1M×1M, where a dense
//! bit-matrix pair would need ~500 GB) in memory proportional to the
//! edge count.

use crate::matrix::{Cell, StateMatrix};
use crate::pdda::DetectOutcome;
use crate::reduction::ReductionReport;
use crate::{Rag, RagDelta, ResId};

/// Gates for the hybrid dense/sparse dispatch in
/// [`crate::engine::DetectEngine`].
///
/// Both gates are functions of matrix shape and live-edge count alone —
/// never of thread counts or timing — so which engine serves a probe is
/// a deterministic property of the input, and stats stay bit-identical
/// across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseConfig {
    /// Minimum matrix area (`m * n`) before the sparse path is
    /// considered at all. The default keeps everything below 1024×1024 —
    /// including every paper-scale case — on the proven dense engine.
    pub min_area: usize,
    /// Maximum live-edge density, in thousandths of the matrix area
    /// (`live_edges * 1000 <= max_density_permille * area`), at which the
    /// sparse path is preferred. Above it the dense word-parallel scan
    /// wins and the engine falls back.
    pub max_density_permille: u64,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            // 1024² and up, at most 4‰ of the area (≈4.2k edges at
            // 1024²). 4‰ is not a measured crossover: `detect_sparse`
            // finds the sparse path faster than dense on every row it
            // runs, down to 500², but every row sits below 0.5‰ of its
            // area.
            min_area: 1 << 20,
            max_density_permille: 4,
        }
    }
}

impl SparseConfig {
    /// A config that never selects the sparse path (dense-only engine).
    pub fn disabled() -> Self {
        SparseConfig {
            min_area: usize::MAX,
            max_density_permille: 0,
        }
    }

    /// A config that always selects the sparse path (test/bench forcing).
    pub fn always() -> Self {
        SparseConfig {
            min_area: 0,
            max_density_permille: u64::MAX,
        }
    }

    /// `true` if a matrix of this area may ever use the sparse path
    /// (governs whether the engine maintains the sparse mirror).
    pub fn covers_shape(&self, area: usize) -> bool {
        area >= self.min_area
    }

    /// `true` if a probe at this area and live-edge count should take
    /// the sparse path.
    pub fn prefers_sparse(&self, area: usize, live_edges: u64) -> bool {
        self.covers_shape(area)
            && live_edges.saturating_mul(1000)
                <= self.max_density_permille.saturating_mul(area as u64)
    }
}

/// One live cell: a request or grant edge between resource row `row` and
/// process column `col`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    row: u32,
    col: u32,
    grant: bool,
}

/// `true` if a `[requests, grants]` count pair is terminal: edges of
/// exactly one kind.
fn terminal(counts: [u32; 2]) -> bool {
    (counts[0] == 0) != (counts[1] == 0)
}

/// Reusable probe workspace: the surviving edges, the edges removed in
/// the current pass, and `[requests, grants]` counts per row and per
/// column. The counts are all zero between probes.
#[derive(Debug, Clone, Default)]
struct Workspace {
    live: Vec<Edge>,
    gone: Vec<Edge>,
    row_cnt: Vec<[u32; 2]>,
    col_cnt: Vec<[u32; 2]>,
}

impl Workspace {
    fn ensure(&mut self, m: usize, n: usize) {
        if self.row_cnt.len() < m {
            self.row_cnt.resize(m, [0; 2]);
        }
        if self.col_cnt.len() < n {
            self.col_cnt.resize(n, [0; 2]);
        }
    }
}

/// Flat edge-array encoding of the state matrix, with the same cell
/// semantics as [`StateMatrix`] (a cell is Empty, Request or Grant;
/// writing one kind clears the other) and a terminal reduction that is
/// bit-identical to the dense engine's.
#[derive(Debug, Clone)]
pub struct SparseState {
    m: usize,
    n: usize,
    /// Every live edge, in no particular order.
    edges: Vec<Edge>,
    /// `row_slots[s]` = indices into `edges` of row `s`'s edges. A row
    /// may hold several grants: direct DDU-style cell writes can legally
    /// produce multi-grant rows, and the matrix twin represents them.
    row_slots: Vec<Vec<u32>>,
    ws: Workspace,
}

impl SparseState {
    /// Creates an empty `resources` × `processes` sparse state.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or does not fit `u32`.
    pub fn new(resources: usize, processes: usize) -> Self {
        assert!(
            resources > 0 && processes > 0,
            "dimensions must be non-zero"
        );
        assert!(
            resources <= u32::MAX as usize && processes <= u32::MAX as usize,
            "dimensions must fit u32 ids"
        );
        SparseState {
            m: resources,
            n: processes,
            edges: Vec::new(),
            row_slots: vec![Vec::new(); resources],
            ws: Workspace::default(),
        }
    }

    /// Number of resource rows.
    pub fn resources(&self) -> usize {
        self.m
    }

    /// Number of process columns.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Total live edges (requests + grants).
    pub fn live_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// `true` if no edge is present.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Reads cell `(q, p)`.
    pub fn cell(&self, q: usize, p: usize) -> Cell {
        assert!(q < self.m && p < self.n, "cell ({q},{p}) out of range");
        let t = p as u32;
        match self.row_slots[q]
            .iter()
            .map(|&i| self.edges[i as usize])
            .find(|e| e.col == t)
        {
            None => Cell::Empty,
            Some(e) if e.grant => Cell::Grant,
            Some(_) => Cell::Request,
        }
    }

    /// Sets cell `(q, p)` to a request edge `p → q` (clearing any grant
    /// in that cell, like [`StateMatrix::set_request`]).
    pub fn set_request(&mut self, p: usize, q: usize) {
        self.write(q, p, Cell::Request);
    }

    /// Sets cell `(q, p)` to a grant edge `q → p`.
    pub fn set_grant(&mut self, q: usize, p: usize) {
        self.write(q, p, Cell::Grant);
    }

    /// Clears cell `(q, p)`.
    pub fn clear(&mut self, q: usize, p: usize) {
        self.write(q, p, Cell::Empty);
    }

    /// Applies one journal delta — the hook that keeps the edge-array
    /// mirror current in O(degree) per edge change.
    pub fn apply_delta(&mut self, delta: RagDelta) {
        match delta {
            RagDelta::Request { p, q } => self.set_request(p.index(), q.index()),
            RagDelta::Grant { p, q } => self.set_grant(q.index(), p.index()),
            RagDelta::Clear { p, q } => self.clear(q.index(), p.index()),
        }
    }

    fn write(&mut self, s: usize, t: usize, kind: Cell) {
        assert!(
            s < self.m && t < self.n,
            "cell ({s},{t}) out of {}x{}",
            self.m,
            self.n
        );
        let (row, col) = (s as u32, t as u32);
        let slots = &mut self.row_slots[s];
        let found = slots
            .iter()
            .position(|&i| self.edges[i as usize].col == col);
        match (found, kind) {
            (None, Cell::Empty) => {}
            (None, _) => {
                let slot = u32::try_from(self.edges.len()).expect("edge count fits u32 slots");
                slots.push(slot);
                self.edges.push(Edge {
                    row,
                    col,
                    grant: kind == Cell::Grant,
                });
            }
            (Some(i), Cell::Empty) => {
                let slot = slots.swap_remove(i) as usize;
                self.edges.swap_remove(slot);
                // The last edge moved into the hole: repoint its slot.
                if let Some(moved) = self.edges.get(slot) {
                    let last = self.edges.len() as u32;
                    let entry = self.row_slots[moved.row as usize]
                        .iter_mut()
                        .find(|i| **i == last)
                        .expect("every edge has a row slot");
                    *entry = slot as u32;
                }
            }
            (Some(i), _) => self.edges[slots[i] as usize].grant = kind == Cell::Grant,
        }
    }

    /// Removes every edge in O(edges), not O(m).
    pub fn clear_all(&mut self) {
        for e in &self.edges {
            self.row_slots[e.row as usize].clear();
        }
        self.edges.clear();
    }

    /// Rebuilds from a RAG (the cold path's sparse twin).
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit these dimensions.
    pub fn rebuild_from_rag(&mut self, rag: &Rag) {
        assert!(
            rag.resources() <= self.m && rag.processes() <= self.n,
            "RAG {}x{} does not fit sparse state {}x{}",
            rag.resources(),
            rag.processes(),
            self.m,
            self.n
        );
        self.clear_all();
        for qi in 0..rag.resources() {
            let q = ResId(qi as u16);
            if let Some(p) = rag.owner(q) {
                self.set_grant(qi, p.index());
            }
            for &p in rag.requesters(q) {
                self.set_request(p.index(), qi);
            }
        }
    }

    /// Rebuilds from a dense matrix (used when the hybrid engine turns
    /// the sparse mirror on mid-life).
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not fit these dimensions.
    pub fn rebuild_from_matrix(&mut self, mat: &StateMatrix) {
        assert!(
            mat.resources() <= self.m && mat.processes() <= self.n,
            "matrix {}x{} does not fit sparse state {}x{}",
            mat.resources(),
            mat.processes(),
            self.m,
            self.n
        );
        self.clear_all();
        for s in 0..mat.resources() {
            for (w, (&rw, &gw)) in mat.row_r(s).iter().zip(mat.row_g(s)).enumerate() {
                let mut bits = rw;
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    self.set_request(t, s);
                    bits &= bits - 1;
                }
                let mut bits = gw;
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    self.set_grant(s, t);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Runs the terminal reduction on a working copy of the edge array,
    /// leaving the state untouched. Returns the same report the dense
    /// [`crate::reduction::reduce_core`] would on the equivalent matrix —
    /// same `iterations`, same `steps`, same completeness.
    pub fn reduce(&mut self) -> ReductionReport {
        self.ws.ensure(self.m, self.n);
        let Workspace {
            live,
            gone,
            row_cnt,
            col_cnt,
        } = &mut self.ws;
        live.clone_from(&self.edges);
        for e in live.iter() {
            row_cnt[e.row as usize][e.grant as usize] += 1;
            col_cnt[e.col as usize][e.grant as usize] += 1;
        }
        let mut iterations = 0u32;
        let mut steps = 0u32;
        loop {
            steps += 1;
            // Split on the counts as they stood at the start of the pass:
            // an edge goes if either end is terminal in that snapshot.
            gone.clear();
            live.retain(|e| {
                let goes = terminal(row_cnt[e.row as usize]) || terminal(col_cnt[e.col as usize]);
                if goes {
                    gone.push(*e);
                }
                !goes
            });
            if gone.is_empty() {
                // The no-terminal pass is counted in `steps` (the DDU
                // spends a clock raising `T_iter = 0`).
                break;
            }
            iterations += 1;
            for e in gone.iter() {
                row_cnt[e.row as usize][e.grant as usize] -= 1;
                col_cnt[e.col as usize][e.grant as usize] -= 1;
            }
        }
        // Gone edges took their counts to zero; zero what the survivors
        // still hold so the next probe starts clean in O(survivors).
        for e in live.iter() {
            row_cnt[e.row as usize] = [0; 2];
            col_cnt[e.col as usize] = [0; 2];
        }
        ReductionReport {
            iterations,
            steps,
            complete: live.is_empty(),
        }
    }

    /// Probe: reduce and convert to a [`DetectOutcome`].
    pub fn detect(&mut self) -> DetectOutcome {
        self.reduce().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::terminal_reduction;
    use crate::{ProcId, Rag};

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

    /// Applies the same random write stream (sets *and* clears) to a
    /// dense matrix and a sparse state.
    fn random_pair(rng: &mut Lcg, m: usize, n: usize, writes: usize) -> (StateMatrix, SparseState) {
        let mut mat = StateMatrix::new(m, n);
        let mut sp = SparseState::new(m, n);
        for _ in 0..writes {
            let s = rng.below(m as u64) as usize;
            let t = rng.below(n as u64) as usize;
            match rng.below(4) {
                0 => {
                    mat.set_grant(ResId(s as u16), ProcId(t as u16));
                    sp.set_grant(s, t);
                }
                1 | 2 => {
                    mat.set_request(ProcId(t as u16), ResId(s as u16));
                    sp.set_request(t, s);
                }
                _ => {
                    mat.clear(ResId(s as u16), ProcId(t as u16));
                    sp.clear(s, t);
                }
            }
        }
        (mat, sp)
    }

    /// The `par_equivalence` peel chain in both encodings: row `s` is
    /// granted to process `s` and requested by process `s + 1`.
    fn peel_pair(m: usize, n: usize) -> (StateMatrix, SparseState) {
        let mut mat = StateMatrix::new(m, n);
        let mut sp = SparseState::new(m, n);
        for s in 0..m {
            mat.set_grant(ResId(s as u16), ProcId((s % n) as u16));
            sp.set_grant(s, s % n);
            if s + 1 < m {
                mat.set_request(ProcId(((s + 1) % n) as u16), ResId(s as u16));
                sp.set_request((s + 1) % n, s);
            }
        }
        (mat, sp)
    }

    #[test]
    fn cell_semantics_match_state_matrix() {
        for seq in 0..6u64 {
            let mut rng = Lcg::new(0x5EA5 ^ seq);
            let (mat, sp) = random_pair(&mut rng, 96, 80, 700);
            assert_eq!(mat.edge_count() as u64, sp.live_edges(), "seq {seq}");
            for s in 0..96 {
                for t in 0..80 {
                    assert_eq!(
                        mat.cell(ResId(s as u16), ProcId(t as u16)),
                        sp.cell(s, t),
                        "seq {seq} cell ({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_matches_dense_reduction_bit_for_bit() {
        for seq in 0..10u64 {
            let mut rng = Lcg::new(0xD15C ^ seq);
            let writes = 400 + rng.below(600) as usize;
            let (mat, mut sp) = random_pair(&mut rng, 96, 80, writes);
            let mut work = mat.clone();
            let dense = terminal_reduction(&mut work);
            let sparse = sp.reduce();
            assert_eq!(dense, sparse, "seq {seq}: reports diverged");
            // The probe is non-destructive and repeatable.
            assert_eq!(sp.reduce(), sparse, "seq {seq}: second probe diverged");
            assert_eq!(mat.edge_count() as u64, sp.live_edges(), "seq {seq}");
        }
        // A deep reduction: the peel chain R299→P299→R298→…→R0→P0 loses
        // one edge at each end per pass, 300 removing passes plus the
        // counted empty one.
        let (mat, mut sp) = peel_pair(300, 300);
        let dense = terminal_reduction(&mut mat.clone());
        let sparse = sp.reduce();
        assert_eq!(dense, sparse, "peel 300x300: reports diverged");
        assert_eq!(
            sparse,
            ReductionReport {
                iterations: 300,
                steps: 301,
                complete: true
            },
            "peel 300x300"
        );
        assert_eq!(sp.reduce(), sparse, "peel 300x300: second probe diverged");
    }

    #[test]
    fn empty_state_reduces_complete_in_one_counted_pass() {
        let mut sp = SparseState::new(64, 64);
        let mut mat = StateMatrix::new(64, 64);
        let dense = terminal_reduction(&mut mat);
        assert_eq!(sp.reduce(), dense);
        assert_eq!(
            sp.reduce(),
            ReductionReport {
                iterations: 0,
                steps: 1,
                complete: true
            }
        );
    }

    #[test]
    fn deadlock_cycle_is_incomplete_and_chain_is_complete() {
        let mut sp = SparseState::new(4, 4);
        sp.set_grant(0, 0);
        sp.set_grant(1, 1);
        sp.set_request(0, 1);
        assert!(!sp.detect().deadlock, "chain must reduce completely");
        sp.set_request(1, 0);
        assert!(sp.detect().deadlock, "2-cycle must survive reduction");
        sp.clear(0, 1);
        assert!(!sp.detect().deadlock, "removing an edge breaks the cycle");
    }

    #[test]
    fn deletions_keep_live_row_tracking_consistent() {
        let mut sp = SparseState::new(8, 8);
        for s in 0..8 {
            sp.set_grant(s, s);
            sp.set_request((s + 1) % 8, s);
        }
        assert_eq!(sp.live_edges(), 16);
        for s in 0..8 {
            sp.clear(s, s);
            sp.clear(s, (s + 1) % 8);
        }
        assert_eq!(sp.live_edges(), 0);
        assert!(sp.is_empty());
        assert_eq!(
            sp.reduce(),
            ReductionReport {
                iterations: 0,
                steps: 1,
                complete: true
            }
        );
        // Overwrites (request over grant and back) keep the count exact.
        sp.set_grant(3, 3);
        sp.set_request(3, 3);
        sp.set_grant(3, 3);
        assert_eq!(sp.live_edges(), 1);
        assert_eq!(sp.cell(3, 3), Cell::Grant);
    }

    #[test]
    fn rebuild_from_rag_and_matrix_agree() {
        let mut rag = Rag::new(6, 6);
        rag.add_grant(ResId(0), ProcId(0)).unwrap();
        rag.add_grant(ResId(1), ProcId(1)).unwrap();
        rag.add_request(ProcId(0), ResId(1)).unwrap();
        rag.add_request(ProcId(2), ResId(0)).unwrap();
        let mat = StateMatrix::from_rag(&rag);
        let mut from_rag = SparseState::new(6, 6);
        from_rag.rebuild_from_rag(&rag);
        let mut from_mat = SparseState::new(6, 6);
        from_mat.rebuild_from_matrix(&mat);
        assert_eq!(from_rag.live_edges(), from_mat.live_edges());
        for s in 0..6 {
            for t in 0..6 {
                assert_eq!(from_rag.cell(s, t), from_mat.cell(s, t), "({s},{t})");
            }
        }
        assert_eq!(from_rag.reduce(), from_mat.reduce());
    }

    #[test]
    fn dimensions_beyond_u16_ids_work() {
        // A graph the dense matrix cannot represent at all: ids beyond
        // u16, dimensions whose bit matrix would be ~2.5 TB.
        let mut sp = SparseState::new(100_000, 100_000);
        sp.set_grant(90_000, 90_001);
        sp.set_grant(90_002, 90_003);
        sp.set_request(90_001, 90_002);
        assert!(!sp.detect().deadlock);
        sp.set_request(90_003, 90_000);
        assert!(sp.detect().deadlock, "high-id 2-cycle must be found");
        sp.clear(90_002, 90_001);
        assert!(!sp.detect().deadlock);
        assert_eq!(sp.live_edges(), 3);
    }

    #[test]
    fn config_gates_are_deterministic_shape_functions() {
        let cfg = SparseConfig::default();
        assert!(!cfg.covers_shape(50 * 50), "paper scale stays dense");
        assert!(!cfg.covers_shape(512 * 512));
        assert!(cfg.covers_shape(1024 * 1024));
        // At 1024²: 4000 edges is within 4‰, 5000 is not.
        assert!(cfg.prefers_sparse(1 << 20, 4000));
        assert!(!cfg.prefers_sparse(1 << 20, 5000));
        assert!(SparseConfig::always().prefers_sparse(1, u64::MAX));
        assert!(!SparseConfig::disabled().prefers_sparse(usize::MAX - 1, 0));
    }
}

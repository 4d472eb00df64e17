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
//! no particular order. Each row's edges form a chain through the array
//! (a head slot per row, a next slot per edge), so a cell read or write
//! costs O(degree) of the touched row and a new edge allocates nothing
//! per row; deleting an edge unlinks it, swap-removes it and repoints
//! the one link that held the moved edge.
//!
//! [`SparseState::reduce`] counts `[requests, grants]` per row and per
//! column. Each pass splits the surviving edges into kept and gone, then
//! decrements the counts of the gone edges. An edge goes when its row or
//! its column is terminal (requests XOR grants), judged on the counts as
//! they stood at the start of the pass. The first pass splits straight
//! from the state's own edge array, so the state is read, never copied.
//!
//! **Workspace.** The counts and the kept/gone edge lists live in one
//! workspace per thread (a `thread_local!`, like
//! [`crate::pdda::detect`]'s engine), shared by every state the thread
//! probes, whatever its shape. A service loop that owns many sessions
//! therefore holds one set of reduction buffers, not one per session,
//! and the probe takes `&self`. The buffers grow to the largest shape
//! and edge count the thread has reduced. The sharing rests on one
//! invariant: every count is zero between probes. A probe adds its
//! edges' counts and takes them back to zero before it returns (gone
//! edges by decrement, survivors by a final reset), so it touches no
//! O(m + n) state and a probe of another shape finds clean counts.
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
//! **Cost.** Counting is O(edges). A pass is one sweep over the
//! surviving edges plus a decrement per gone edge, all over a few
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

use std::cell::RefCell;

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
///
/// The default is fitted to the crossover grid in `BENCH_sparse.json`
/// (the `detect_sparse` bench: forced-dense against forced-sparse probes
/// over six shapes, four densities and two reduction depths). A pass of
/// either engine costs in proportion to what it visits: the sparse one
/// visits each surviving edge, the dense one each live row, at about
/// four words of bookkeeping plus its matrix words. A sparse edge visit
/// and a dense word visit cost about the same, so the sparse path wins
/// while the graph holds fewer edges than the dense engine's work per
/// pass with every row live: rows × (words per row + 4), in whichever
/// orientation is cheaper (the engine reduces tall matrices
/// column-major). Both sides scale with the number of passes alike, so
/// the crossover holds for shallow and deep graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseConfig {
    /// Minimum matrix area (`m * n`) at which the engine keeps a sparse
    /// mirror and may take the sparse path. The default, 64², keeps
    /// paper-scale matrices and 16² service sessions on the dense path
    /// with no second mirror: the grid finds the sparse probe faster at
    /// 16² as well, by 0.04–1.4 µs, but a mirror there left
    /// `svcbench`'s `wire_rtt` (256 such sessions) no cheaper per op.
    pub min_area: usize,
    /// Live edges the sparse path may carry per 1000 word visits of the
    /// dense engine's work per pass. The default, 1000, is the fitted
    /// crossover: one edge per word visit.
    pub edges_per_kilo_work: u64,
}

/// Dense bookkeeping per live row and pass, in word visits: the
/// worklist, terminal flag and removal of a row (fitted to the grid).
const ROW_WORDS: u64 = 4;

/// The dense engine's work per reduction pass with every row live, in
/// word visits: rows × (words per row + [`ROW_WORDS`]), in whichever
/// orientation is cheaper.
fn dense_work(m: usize, n: usize) -> u64 {
    let (m, n) = (m as u64, n as u64);
    let rows_major = |rows: u64, cols: u64| rows.saturating_mul(cols.div_ceil(64) + ROW_WORDS);
    rows_major(m, n).min(rows_major(n, m))
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            min_area: 64 * 64,
            edges_per_kilo_work: 1000,
        }
    }
}

impl SparseConfig {
    /// A config that never selects the sparse path (dense-only engine).
    pub fn disabled() -> Self {
        SparseConfig {
            min_area: usize::MAX,
            edges_per_kilo_work: 0,
        }
    }

    /// A config that always selects the sparse path (test/bench forcing).
    pub fn always() -> Self {
        SparseConfig {
            min_area: 0,
            edges_per_kilo_work: u64::MAX,
        }
    }

    /// `true` if an `m` × `n` matrix may ever use the sparse path
    /// (governs whether the engine maintains the sparse mirror).
    pub fn covers_shape(&self, m: usize, n: usize) -> bool {
        m.saturating_mul(n) >= self.min_area
    }

    /// `true` if a probe of an `m` × `n` matrix holding `live_edges`
    /// edges should take the sparse path.
    pub fn prefers_sparse(&self, m: usize, n: usize, live_edges: u64) -> bool {
        self.covers_shape(m, n)
            && live_edges.saturating_mul(1000)
                <= self.edges_per_kilo_work.saturating_mul(dense_work(m, n))
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

/// The reduction workspace: the surviving edges, the edges removed in
/// the current pass, and `[requests, grants]` counts per row and per
/// column, all zero between probes (see the module doc).
#[derive(Debug, Default)]
struct Workspace {
    live: Vec<Edge>,
    gone: Vec<Edge>,
    row_cnt: Vec<[u32; 2]>,
    col_cnt: Vec<[u32; 2]>,
}

thread_local! {
    /// The workspace every sparse state probed on this thread shares.
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

impl Workspace {
    /// Terminal reduction of `edges` on an `m` × `n` matrix. See the
    /// module doc for the rule and its equivalence to the dense engine.
    fn reduce(&mut self, edges: &[Edge], m: usize, n: usize) -> ReductionReport {
        if self.row_cnt.len() < m {
            self.row_cnt.resize(m, [0; 2]);
        }
        if self.col_cnt.len() < n {
            self.col_cnt.resize(n, [0; 2]);
        }
        let Workspace {
            live,
            gone,
            row_cnt,
            col_cnt,
        } = self;
        debug_assert!(
            row_cnt.iter().chain(col_cnt.iter()).all(|c| *c == [0; 2]),
            "sparse workspace counts must be zero between probes"
        );
        for e in edges {
            row_cnt[e.row as usize][e.grant as usize] += 1;
            col_cnt[e.col as usize][e.grant as usize] += 1;
        }
        // An edge goes if either end is terminal on the counts as they
        // stood at the start of the pass.
        let goes = |row_cnt: &[[u32; 2]], col_cnt: &[[u32; 2]], e: &Edge| {
            terminal(row_cnt[e.row as usize]) || terminal(col_cnt[e.col as usize])
        };
        // The first pass splits straight from the persistent array, so
        // the state's edges are read once and never copied whole.
        live.clear();
        gone.clear();
        for e in edges {
            if goes(row_cnt, col_cnt, e) {
                gone.push(*e);
            } else {
                live.push(*e);
            }
        }
        let mut iterations = 0u32;
        let mut steps = 1u32;
        // The pass that removes nothing is counted in `steps` (the DDU
        // spends a clock raising `T_iter = 0`).
        while !gone.is_empty() {
            iterations += 1;
            for e in gone.iter() {
                row_cnt[e.row as usize][e.grant as usize] -= 1;
                col_cnt[e.col as usize][e.grant as usize] -= 1;
            }
            steps += 1;
            gone.clear();
            live.retain(|e| {
                let g = goes(row_cnt, col_cnt, e);
                if g {
                    gone.push(*e);
                }
                !g
            });
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
}

/// End of a row's edge chain.
const NIL: u32 = u32::MAX;

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
    /// `next[i]` = slot of the next edge in edge `i`'s row, or [`NIL`]:
    /// each row's edges form one chain through the array. A row may hold
    /// several grants: direct DDU-style cell writes can legally produce
    /// multi-grant rows, and the matrix twin represents them.
    next: Vec<u32>,
    /// `head[s]` = slot of row `s`'s first edge, or [`NIL`].
    head: Vec<u32>,
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
            next: Vec::new(),
            head: vec![NIL; resources],
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

    /// The slot of cell `(s, col)` in row `s`'s chain, or [`NIL`], and
    /// the slot before it ([`NIL`] when it is the head).
    fn find(&self, s: usize, col: u32) -> (u32, u32) {
        let (mut prev, mut i) = (NIL, self.head[s]);
        while i != NIL && self.edges[i as usize].col != col {
            prev = i;
            i = self.next[i as usize];
        }
        (prev, i)
    }

    /// Reads cell `(q, p)`.
    pub fn cell(&self, q: usize, p: usize) -> Cell {
        assert!(q < self.m && p < self.n, "cell ({q},{p}) out of range");
        match self.find(q, p as u32).1 {
            NIL => Cell::Empty,
            i if self.edges[i as usize].grant => Cell::Grant,
            _ => Cell::Request,
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
        match (self.find(s, col), kind) {
            ((_, NIL), Cell::Empty) => {}
            ((_, NIL), _) => {
                let slot = u32::try_from(self.edges.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("edge count fits u32 slots");
                self.edges.push(Edge {
                    row,
                    col,
                    grant: kind == Cell::Grant,
                });
                self.next.push(self.head[s]);
                self.head[s] = slot;
            }
            ((prev, i), Cell::Empty) => {
                let after = self.next[i as usize];
                match prev {
                    NIL => self.head[s] = after,
                    prev => self.next[prev as usize] = after,
                }
                // The last edge moves into the hole: repoint the link
                // that held it.
                let last = (self.edges.len() - 1) as u32;
                self.edges.swap_remove(i as usize);
                self.next.swap_remove(i as usize);
                if i != last {
                    let r = self.edges[i as usize].row as usize;
                    if self.head[r] == last {
                        self.head[r] = i;
                    } else {
                        let mut j = self.head[r];
                        while self.next[j as usize] != last {
                            j = self.next[j as usize];
                        }
                        self.next[j as usize] = i;
                    }
                }
            }
            ((_, i), _) => self.edges[i as usize].grant = kind == Cell::Grant,
        }
    }

    /// Removes every edge in O(edges), not O(m).
    pub fn clear_all(&mut self) {
        for e in &self.edges {
            self.head[e.row as usize] = NIL;
        }
        self.edges.clear();
        self.next.clear();
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

    /// Runs the terminal reduction in this thread's workspace, leaving
    /// the state untouched. Returns the same report the dense
    /// [`crate::reduction::reduce_core`] would on the equivalent matrix —
    /// same `iterations`, same `steps`, same completeness.
    pub fn reduce(&self) -> ReductionReport {
        WORKSPACE.with(|ws| ws.borrow_mut().reduce(&self.edges, self.m, self.n))
    }

    /// Probe: reduce and convert to a [`DetectOutcome`].
    pub fn detect(&self) -> DetectOutcome {
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
            let (mat, sp) = random_pair(&mut rng, 96, 80, writes);
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
        let (mat, sp) = peel_pair(300, 300);
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
        let sp = SparseState::new(64, 64);
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
        assert!(!cfg.covers_shape(50, 50), "paper scale stays dense");
        assert!(!cfg.covers_shape(16, 16), "16² sessions keep no mirror");
        assert!(cfg.covers_shape(64, 64));
        assert!(cfg.covers_shape(512, 512));
        assert!(cfg.covers_shape(1024, 1024));
        // The svcbench `detect_mix` populations: 512² at ~416 edges and
        // 1024² at ~1,200 go sparse.
        assert!(cfg.prefers_sparse(512, 512, 416));
        assert!(cfg.prefers_sparse(1024, 1024, 1_200));
        // At 1024²: 1024 rows × (16 words + 4) = 20,480 edges.
        assert!(cfg.prefers_sparse(1024, 1024, 5_000));
        assert!(cfg.prefers_sparse(1024, 1024, 20_480));
        assert!(!cfg.prefers_sparse(1024, 1024, 20_481));
        // Tall shapes are costed column-major: 64 × (64 + 4), not
        // 4096 × (1 + 4).
        assert!(cfg.prefers_sparse(4096, 64, 4_352));
        assert!(!cfg.prefers_sparse(4096, 64, 4_353));
        assert_eq!(
            cfg.prefers_sparse(4096, 64, 4_000),
            cfg.prefers_sparse(64, 4096, 4_000)
        );
        assert!(SparseConfig::always().prefers_sparse(1, 1, u64::MAX));
        assert!(!SparseConfig::disabled().prefers_sparse(usize::MAX - 1, 1, 0));
    }
}

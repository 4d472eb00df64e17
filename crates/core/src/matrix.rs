//! The state matrix `M_ij` (Definition 6): a bit-plane encoding of the RAG.
//!
//! Each entry `α_st` of the m×n matrix is ternary — a request edge
//! `r_{t→s}`, a grant edge `g_{s→t}`, or empty — and the paper encodes it
//! as the bit pair `(α^r_st, α^g_st)` (Equation 2). [`StateMatrix`] stores
//! the two bit planes row-major with each row's columns packed into `u64`
//! words. That packing is not an optimization detail: it is the software
//! twin of the DDU's cell array, where all columns of a row are processed
//! *in the same clock*. The word-parallel reduction in
//! [`crate::reduction`] evaluates the hardware's Bit-Wise-OR / XOR / AND
//! trees (Equations 3–7) one row-word at a time, which is exactly how the
//! O(min(m,n)) step bound arises.

use std::fmt;

use crate::{CoreError, ProcId, Rag, ResId};

/// One ternary matrix entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// No edge (`0_st`).
    Empty,
    /// Request edge `r_{t→s}`: process `t` waits for resource `s`.
    Request,
    /// Grant edge `g_{s→t}`: resource `s` is allocated to process `t`.
    Grant,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Cell::Empty => '.',
            Cell::Request => 'r',
            Cell::Grant => 'g',
        };
        write!(f, "{c}")
    }
}

/// The m×n system state matrix with `r`/`g` bit planes.
///
/// Rows are resources (`q1..qm`), columns are processes (`p1..pn`), exactly
/// as in Definition 6 and Figure 11 of the paper.
///
/// # Example
///
/// ```
/// use deltaos_core::matrix::{Cell, StateMatrix};
/// use deltaos_core::{ProcId, ResId};
///
/// let mut m = StateMatrix::new(3, 3);
/// m.set_grant(ResId(0), ProcId(0));
/// m.set_request(ProcId(1), ResId(0));
/// assert_eq!(m.cell(ResId(0), ProcId(0)), Cell::Grant);
/// assert_eq!(m.cell(ResId(0), ProcId(1)), Cell::Request);
/// assert_eq!(m.cell(ResId(1), ProcId(1)), Cell::Empty);
/// assert_eq!(m.edge_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct StateMatrix {
    m: usize,
    n: usize,
    /// Words per row: `ceil(n / 64)`.
    words: usize,
    /// Request bit plane, row-major (`m * words` words).
    r: Vec<u64>,
    /// Grant bit plane, row-major.
    g: Vec<u64>,
}

impl StateMatrix {
    /// Creates an empty matrix for `resources` rows and `processes`
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero — the hardware generators refuse
    /// degenerate arrays, and so do we.
    pub fn new(resources: usize, processes: usize) -> Self {
        assert!(
            resources > 0 && processes > 0,
            "matrix dimensions must be non-zero"
        );
        let words = processes.div_ceil(64);
        StateMatrix {
            m: resources,
            n: processes,
            words,
            r: vec![0; resources * words],
            g: vec![0; resources * words],
        }
    }

    /// Builds the matrix from a [`Rag`] (lines 2–6 of Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if either RAG dimension is zero, exactly like
    /// [`StateMatrix::new`] — an earlier version silently clamped
    /// degenerate graphs to a 1×1 matrix, hiding configuration bugs that
    /// `new` was designed to reject.
    pub fn from_rag(rag: &Rag) -> Self {
        let mut mat = StateMatrix::new(rag.resources(), rag.processes());
        mat.add_rag_edges(rag);
        mat
    }

    /// Writes every edge of `rag` into the matrix, which must be at least
    /// as large as the graph (the DDU loads smaller graphs into a wider
    /// cell array).
    pub(crate) fn add_rag_edges(&mut self, rag: &Rag) {
        for qi in 0..rag.resources() {
            let q = ResId(qi as u16);
            if let Some(p) = rag.owner(q) {
                self.set_grant(q, p);
            }
            for &p in rag.requesters(q) {
                self.set_request(p, q);
            }
        }
    }

    /// Number of resource rows `m`.
    pub fn resources(&self) -> usize {
        self.m
    }

    /// Number of process columns `n`.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Words per row (an implementation detail exposed for the reduction
    /// engine and benchmarks).
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    #[inline]
    fn idx(&self, s: usize, word: usize) -> usize {
        s * self.words + word
    }

    #[inline]
    fn bit(t: usize) -> (usize, u64) {
        (t / 64, 1u64 << (t % 64))
    }

    #[inline]
    fn check(&self, q: ResId, p: ProcId) {
        assert!(
            q.index() < self.m && p.index() < self.n,
            "cell ({q},{p}) out of range for {}x{} matrix",
            self.m,
            self.n
        );
    }

    /// Sets `α_st = r` (request edge `p → q`), clearing any grant bit.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn set_request(&mut self, p: ProcId, q: ResId) {
        self.check(q, p);
        let (w, b) = Self::bit(p.index());
        let i = self.idx(q.index(), w);
        self.r[i] |= b;
        self.g[i] &= !b;
    }

    /// Sets `α_st = g` (grant edge `q → p`), clearing any request bit.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn set_grant(&mut self, q: ResId, p: ProcId) {
        self.check(q, p);
        let (w, b) = Self::bit(p.index());
        let i = self.idx(q.index(), w);
        self.g[i] |= b;
        self.r[i] &= !b;
    }

    /// Clears the entry to `0_st`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn clear(&mut self, q: ResId, p: ProcId) {
        self.check(q, p);
        let (w, b) = Self::bit(p.index());
        let i = self.idx(q.index(), w);
        self.r[i] &= !b;
        self.g[i] &= !b;
    }

    /// Reads the entry `α_st`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn cell(&self, q: ResId, p: ProcId) -> Cell {
        self.check(q, p);
        let (w, b) = Self::bit(p.index());
        let i = self.idx(q.index(), w);
        match (self.r[i] & b != 0, self.g[i] & b != 0) {
            (false, false) => Cell::Empty,
            (true, false) => Cell::Request,
            (false, true) => Cell::Grant,
            (true, true) => unreachable!("entry cannot be both request and grant"),
        }
    }

    /// Request bit-plane words of row `s`.
    #[inline]
    pub fn row_r(&self, s: usize) -> &[u64] {
        &self.r[s * self.words..(s + 1) * self.words]
    }

    /// Grant bit-plane words of row `s`.
    #[inline]
    pub fn row_g(&self, s: usize) -> &[u64] {
        &self.g[s * self.words..(s + 1) * self.words]
    }

    /// Zeroes entire row `s` in both planes (terminal-row removal).
    #[inline]
    pub fn clear_row(&mut self, s: usize) {
        for w in 0..self.words {
            let i = self.idx(s, w);
            self.r[i] = 0;
            self.g[i] = 0;
        }
    }

    /// Clears, in every row, the columns whose bits are set in `mask`
    /// (terminal-column removal). `mask` must have `words_per_row` words.
    #[inline]
    #[allow(clippy::needless_range_loop)]
    pub fn clear_columns(&mut self, mask: &[u64]) {
        debug_assert_eq!(mask.len(), self.words);
        for s in 0..self.m {
            for w in 0..self.words {
                let i = self.idx(s, w);
                self.r[i] &= !mask[w];
                self.g[i] &= !mask[w];
            }
        }
    }

    /// Column-wise Bit-Wise-OR of both planes (Equation 3's `BWO^c`):
    /// returns `(col_r, col_g)` bit vectors indexed by process column.
    pub fn column_bwo(&self) -> (Vec<u64>, Vec<u64>) {
        let mut cr = vec![0u64; self.words];
        let mut cg = vec![0u64; self.words];
        for s in 0..self.m {
            for w in 0..self.words {
                let i = self.idx(s, w);
                cr[w] |= self.r[i];
                cg[w] |= self.g[i];
            }
        }
        (cr, cg)
    }

    /// Row-wise Bit-Wise-OR (Equation 3's `BWO^r`): for row `s` returns
    /// `(any_request, any_grant)`.
    #[inline]
    pub fn row_bwo(&self, s: usize) -> (bool, bool) {
        let mut ra = 0u64;
        let mut ga = 0u64;
        for w in 0..self.words {
            let i = self.idx(s, w);
            ra |= self.r[i];
            ga |= self.g[i];
        }
        (ra != 0, ga != 0)
    }

    /// `true` if row `s` holds no edge in either plane.
    #[inline]
    pub fn row_is_empty(&self, s: usize) -> bool {
        let (ra, ga) = self.row_bwo(s);
        !ra && !ga
    }

    /// ORs row `s` of both planes into the accumulators (the incremental
    /// engine's allocation-free form of [`StateMatrix::column_bwo`],
    /// applied row by row over an active-row worklist). Both slices must
    /// have `words_per_row` words.
    #[inline]
    pub fn accumulate_row_bwo(&self, s: usize, cr: &mut [u64], cg: &mut [u64]) {
        debug_assert!(cr.len() == self.words && cg.len() == self.words);
        for w in 0..self.words {
            let i = self.idx(s, w);
            cr[w] |= self.r[i];
            cg[w] |= self.g[i];
        }
    }

    /// Copies row `s` (both bit-planes) from `src`, which must have the
    /// same shape — the engine's row-sliced alternative to
    /// [`StateMatrix::copy_from`] when only a few rows are live.
    #[inline]
    pub fn copy_row_from(&mut self, src: &StateMatrix, s: usize) {
        debug_assert!(
            self.resources() == src.resources() && self.processes() == src.processes(),
            "row copy between mismatched shapes"
        );
        for w in 0..self.words {
            let i = self.idx(s, w);
            self.r[i] = src.r[i];
            self.g[i] = src.g[i];
        }
    }

    /// One fused reduction scan of row `s`: ORs the row into the column
    /// BWO accumulators *and* returns the row's own
    /// `(any_request, any_grant)` pair, reading each word exactly once —
    /// the per-pass hot loop of the worklist reduction, where
    /// [`StateMatrix::column_bwo`] followed by [`StateMatrix::row_bwo`]
    /// would touch every word twice.
    #[inline]
    pub fn row_scan(&self, s: usize, cr: &mut [u64], cg: &mut [u64]) -> (bool, bool) {
        debug_assert!(cr.len() == self.words && cg.len() == self.words);
        let mut ra = 0u64;
        let mut ga = 0u64;
        for w in 0..self.words {
            let i = self.idx(s, w);
            let r = self.r[i];
            let g = self.g[i];
            cr[w] |= r;
            cg[w] |= g;
            ra |= r;
            ga |= g;
        }
        (ra != 0, ga != 0)
    }

    /// Clears the masked columns in row `s` only — the worklist engine's
    /// form of [`StateMatrix::clear_columns`], which skips rows known to
    /// be empty. `mask` must have `words_per_row` words.
    #[inline]
    pub fn clear_columns_in_row(&mut self, s: usize, mask: &[u64]) {
        debug_assert_eq!(mask.len(), self.words);
        for (w, &m) in mask.iter().enumerate().take(self.words) {
            let i = self.idx(s, w);
            self.r[i] &= !m;
            self.g[i] &= !m;
        }
    }

    /// Transposes this matrix into `dst`, which must be `n × m` (its rows
    /// are this matrix's columns). Both bit planes are transposed with a
    /// 64×64 bit-block kernel; phantom bits beyond either dimension stay
    /// zero on both sides.
    ///
    /// This is the bridge to the column-major reduction variant for tall
    /// matrices: the terminal reduction is self-dual under transposition
    /// (see `crate::engine`), so reducing the transpose yields the
    /// identical report.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not the transposed shape.
    pub fn transpose_into(&self, dst: &mut StateMatrix) {
        assert!(
            dst.m == self.n && dst.n == self.m,
            "transpose of {}x{} needs a {}x{} destination, got {}x{}",
            self.m,
            self.n,
            self.n,
            self.m,
            dst.m,
            dst.n
        );
        transpose_plane(&self.r, self.m, self.n, self.words, &mut dst.r, dst.words);
        transpose_plane(&self.g, self.m, self.n, self.words, &mut dst.g, dst.words);
    }

    /// Zeroes every cell without reallocating.
    pub fn fill_empty(&mut self) {
        self.r.fill(0);
        self.g.fill(0);
    }

    /// Overwrites this matrix with `src`'s contents without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, src: &StateMatrix) {
        assert!(
            self.m == src.m && self.n == src.n,
            "cannot copy {}x{} matrix into {}x{}",
            src.m,
            src.n,
            self.m,
            self.n
        );
        self.r.copy_from_slice(&src.r);
        self.g.copy_from_slice(&src.g);
    }

    /// Total number of non-empty entries.
    pub fn edge_count(&self) -> usize {
        let r: u32 = self.r.iter().map(|w| w.count_ones()).sum();
        let g: u32 = self.g.iter().map(|w| w.count_ones()).sum();
        (r + g) as usize
    }

    /// `true` if every entry is `0_st` (a *complete reduction* result,
    /// Definition 13).
    pub fn is_empty(&self) -> bool {
        self.r.iter().all(|&w| w == 0) && self.g.iter().all(|&w| w == 0)
    }

    /// Rows and columns that still carry edges — after a terminal
    /// reduction, these are exactly the resources and processes involved
    /// in deadlock cycles (the irreducible core).
    pub fn survivors(&self) -> (Vec<ResId>, Vec<ProcId>) {
        let mut rows = Vec::new();
        for s in 0..self.m {
            let (ra, ga) = self.row_bwo(s);
            if ra || ga {
                rows.push(ResId(s as u16));
            }
        }
        let (cr, cg) = self.column_bwo();
        let mut cols = Vec::new();
        for t in 0..self.n {
            let w = t / 64;
            let b = 1u64 << (t % 64);
            if (cr[w] | cg[w]) & b != 0 {
                cols.push(ProcId(t as u16));
            }
        }
        (rows, cols)
    }
}

/// Transposes one row-major bit plane of an `m × n` matrix (`src_words`
/// words per row) into the `n × m` destination plane (`dst_words` words
/// per row) using the classic 64×64 bit-block transpose. Every
/// destination word is overwritten; phantom source rows/columns enter the
/// blocks as zero and land as zero.
fn transpose_plane(
    src: &[u64],
    m: usize,
    n: usize,
    src_words: usize,
    dst: &mut [u64],
    dst_words: usize,
) {
    for block_row in 0..m.div_ceil(64) {
        let base_row = block_row * 64;
        let rows = (m - base_row).min(64);
        for w in 0..src_words {
            let mut block = [0u64; 64];
            for (i, slot) in block.iter_mut().enumerate().take(rows) {
                *slot = src[(base_row + i) * src_words + w];
            }
            transpose64(&mut block);
            // Word `w` of the source rows holds columns `w*64 ..`; after
            // the in-block transpose, lane `j` is source column `w*64+j`
            // across the 64 source rows — i.e. destination row `w*64+j`,
            // word `block_row`.
            let base_col = w * 64;
            let cols = n.saturating_sub(base_col).min(64);
            for (j, &lane) in block.iter().enumerate().take(cols) {
                dst[(base_col + j) * dst_words + block_row] = lane;
            }
        }
    }
}

/// In-place transpose of a 64×64 bit matrix stored one row per word, bit
/// `t` of word `s` holding cell `(s, t)` (Hacker's Delight §7-3,
/// generalized to 64 bits).
///
/// Cells here are LSB-first (bit 0 = column 0), so each masked-swap round
/// exchanges the *high* `j`-bit blocks of rows `k` with the *low* blocks
/// of rows `k + j` — the mirror image of the book's MSB-first code, which
/// would transpose about the anti-diagonal in this bit order.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

impl fmt::Debug for StateMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StateMatrix {}x{} ({} edges)",
            self.m,
            self.n,
            self.edge_count()
        )
    }
}

impl fmt::Display for StateMatrix {
    /// Renders the matrix like Figure 11 of the paper: one row per
    /// resource, `r`/`g`/`.` per process column.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "     ")?;
        for t in 0..self.n {
            write!(f, "{:>3}", format!("p{}", t + 1))?;
        }
        writeln!(f)?;
        for s in 0..self.m {
            write!(f, "{:>4} ", format!("q{}", s + 1))?;
            for t in 0..self.n {
                write!(f, "{:>3}", self.cell(ResId(s as u16), ProcId(t as u16)))?;
            }
            if s + 1 < self.m {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Builds a matrix directly from edge lists; convenient for tests and the
/// worked examples of Figures 11 and 12.
///
/// # Errors
///
/// Returns [`CoreError`] if ids are out of range or the single-unit
/// invariant is violated.
pub fn matrix_from_edges(
    resources: usize,
    processes: usize,
    grants: &[(ResId, ProcId)],
    requests: &[(ProcId, ResId)],
) -> Result<StateMatrix, CoreError> {
    let mut rag = Rag::new(resources, processes);
    for &(q, p) in grants {
        rag.add_grant(q, p)?;
    }
    for &(p, q) in requests {
        rag.add_request(p, q)?;
    }
    Ok(StateMatrix::from_rag(&rag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_empty() {
        let m = StateMatrix::new(5, 5);
        assert!(m.is_empty());
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.resources(), 5);
        assert_eq!(m.processes(), 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        StateMatrix::new(0, 5);
    }

    #[test]
    fn set_and_read_cells() {
        let mut m = StateMatrix::new(2, 2);
        m.set_request(ProcId(0), ResId(1));
        m.set_grant(ResId(0), ProcId(1));
        assert_eq!(m.cell(ResId(1), ProcId(0)), Cell::Request);
        assert_eq!(m.cell(ResId(0), ProcId(1)), Cell::Grant);
        assert_eq!(m.cell(ResId(0), ProcId(0)), Cell::Empty);
    }

    #[test]
    fn request_to_grant_transition_is_exclusive() {
        let mut m = StateMatrix::new(1, 1);
        m.set_request(ProcId(0), ResId(0));
        m.set_grant(ResId(0), ProcId(0));
        assert_eq!(m.cell(ResId(0), ProcId(0)), Cell::Grant);
        m.set_request(ProcId(0), ResId(0));
        assert_eq!(m.cell(ResId(0), ProcId(0)), Cell::Request);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn clear_removes_edge() {
        let mut m = StateMatrix::new(1, 1);
        m.set_grant(ResId(0), ProcId(0));
        m.clear(ResId(0), ProcId(0));
        assert!(m.is_empty());
    }

    #[test]
    fn wide_matrix_crosses_word_boundary() {
        // 100 processes: columns span two u64 words.
        let mut m = StateMatrix::new(2, 100);
        assert_eq!(m.words_per_row(), 2);
        m.set_request(ProcId(70), ResId(1));
        m.set_grant(ResId(0), ProcId(99));
        assert_eq!(m.cell(ResId(1), ProcId(70)), Cell::Request);
        assert_eq!(m.cell(ResId(0), ProcId(99)), Cell::Grant);
        assert_eq!(m.edge_count(), 2);
        let (cr, cg) = m.column_bwo();
        assert_eq!(cr[1] & (1 << (70 - 64)), 1 << 6);
        assert_eq!(cg[1] & (1 << (99 - 64)), 1 << 35);
    }

    #[test]
    fn row_bwo_flags() {
        let mut m = StateMatrix::new(2, 3);
        m.set_request(ProcId(0), ResId(0));
        m.set_grant(ResId(0), ProcId(1));
        assert_eq!(m.row_bwo(0), (true, true));
        assert_eq!(m.row_bwo(1), (false, false));
    }

    #[test]
    fn clear_row_and_columns() {
        let mut m = StateMatrix::new(2, 2);
        m.set_request(ProcId(0), ResId(0));
        m.set_grant(ResId(0), ProcId(1));
        m.set_request(ProcId(0), ResId(1));
        m.clear_row(0);
        assert_eq!(m.edge_count(), 1);
        let mask = vec![1u64]; // column p1
        m.clear_columns(&mask);
        assert!(m.is_empty());
    }

    #[test]
    fn from_rag_matches_edges() {
        let mut rag = Rag::new(2, 2);
        rag.add_grant(ResId(0), ProcId(0)).unwrap();
        rag.add_request(ProcId(1), ResId(0)).unwrap();
        let m = StateMatrix::from_rag(&rag);
        assert_eq!(m.cell(ResId(0), ProcId(0)), Cell::Grant);
        assert_eq!(m.cell(ResId(0), ProcId(1)), Cell::Request);
        assert_eq!(m.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn from_rag_rejects_zero_dimensions() {
        // Regression: `from_rag` used to clamp zero dimensions to 1,
        // contradicting `StateMatrix::new`'s panic contract and silently
        // accepting degenerate system configurations.
        StateMatrix::from_rag(&Rag::new(0, 3));
    }

    #[test]
    fn incremental_helpers_match_bulk_forms() {
        let mut m = StateMatrix::new(3, 70);
        m.set_grant(ResId(0), ProcId(69));
        m.set_request(ProcId(1), ResId(0));
        m.set_request(ProcId(68), ResId(2));
        assert!(!m.row_is_empty(0));
        assert!(m.row_is_empty(1));

        // Row-accumulated column BWO over the non-empty rows equals the
        // whole-matrix column BWO.
        let (cr, cg) = m.column_bwo();
        let mut acr = vec![0u64; m.words_per_row()];
        let mut acg = vec![0u64; m.words_per_row()];
        for s in 0..3 {
            if !m.row_is_empty(s) {
                m.accumulate_row_bwo(s, &mut acr, &mut acg);
            }
        }
        assert_eq!((acr, acg), (cr, cg));

        // Per-row column clearing over every row equals clear_columns.
        let mut a = m.clone();
        let mut b = m.clone();
        let mask = vec![1u64 << 1, 1u64 << (68 - 64)];
        a.clear_columns(&mask);
        for s in 0..3 {
            b.clear_columns_in_row(s, &mask);
        }
        assert_eq!(a, b);

        // copy_from / fill_empty round-trip without reallocation.
        let mut dst = StateMatrix::new(3, 70);
        dst.copy_from(&m);
        assert_eq!(dst, m);
        dst.fill_empty();
        assert!(dst.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot copy")]
    fn copy_from_rejects_dimension_mismatch() {
        let mut dst = StateMatrix::new(2, 2);
        dst.copy_from(&StateMatrix::new(2, 3));
    }

    #[test]
    fn display_looks_like_figure_11() {
        let m =
            matrix_from_edges(2, 2, &[(ResId(0), ProcId(0))], &[(ProcId(1), ResId(0))]).unwrap();
        let s = m.to_string();
        assert!(s.contains("p1"));
        assert!(s.contains("q2"));
        assert!(s.contains('g'));
        assert!(s.contains('r'));
    }

    #[test]
    fn matrix_from_edges_propagates_invariant_errors() {
        let err = matrix_from_edges(1, 2, &[(ResId(0), ProcId(0)), (ResId(0), ProcId(1))], &[])
            .unwrap_err();
        assert!(matches!(err, CoreError::ResourceBusy { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        let m = StateMatrix::new(2, 2);
        m.cell(ResId(5), ProcId(0));
    }

    #[test]
    fn transpose_matches_cell_by_cell() {
        // Dimensions straddle word boundaries on both axes.
        for (m, n) in [(3usize, 3usize), (2, 100), (70, 5), (130, 70)] {
            let mut a = StateMatrix::new(m, n);
            // Deterministic scatter of grants/requests.
            let mut x = 0x9E3779B97F4A7C15u64;
            for s in 0..m {
                for t in 0..n {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    match x >> 62 {
                        0 => a.set_request(ProcId(t as u16), ResId(s as u16)),
                        1 => a.set_grant(ResId(s as u16), ProcId(t as u16)),
                        _ => {}
                    }
                }
            }
            let mut t_mat = StateMatrix::new(n, m);
            a.transpose_into(&mut t_mat);
            for s in 0..m {
                for t in 0..n {
                    let orig = a.cell(ResId(s as u16), ProcId(t as u16));
                    let flip = t_mat.cell(ResId(t as u16), ProcId(s as u16));
                    assert_eq!(flip, orig, "({s},{t}) in {m}x{n}");
                }
            }
            // Transposing back is the identity.
            let mut back = StateMatrix::new(m, n);
            t_mat.transpose_into(&mut back);
            assert_eq!(back, a, "double transpose of {m}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "transpose")]
    fn transpose_rejects_wrong_shape() {
        let a = StateMatrix::new(3, 5);
        let mut bad = StateMatrix::new(3, 5);
        a.transpose_into(&mut bad);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = StateMatrix::new(2, 2);
        a.set_grant(ResId(0), ProcId(0));
        let b = a.clone();
        a.clear(ResId(0), ProcId(0));
        assert_eq!(b.cell(ResId(0), ProcId(0)), Cell::Grant);
    }
}

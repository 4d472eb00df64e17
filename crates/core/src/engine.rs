//! The incremental, allocation-free deadlock detection engine.
//!
//! Every detection entry point in the crate ultimately runs the terminal
//! reduction `ξ` of Algorithm 1, and historically each probe paid the
//! full cold-start price: build a fresh [`StateMatrix`] from the RAG,
//! allocate scratch, reduce, drop everything. Between two probes an RTOS
//! mutates only a handful of edges, so almost all of that work rebuilds
//! state that never changed.
//!
//! [`DetectEngine`] keeps a persistent **mirror** of the state matrix and
//! applies RAG *deltas* instead of rebuilding:
//!
//! * [`Rag`] stamps every successful mutation with a new epoch and
//!   journals the cell-level change ([`RagDelta`]). When the engine's
//!   mirror lags the graph, it replays just the missing deltas;
//!   [`StateMatrix::from_rag`] remains the cold path, used only when the
//!   journal no longer reaches back far enough (or the graph identity
//!   changed).
//! * One **occupancy index** counts the edges of every row and column
//!   and lists the non-empty ones. Every cell write goes through one
//!   choke point that updates the counts and, when a count moves between
//!   0 and 1, the list — so the index is exact after every write path
//!   (delta sync, the DDU's direct cell writes, rebuilds) with nothing to
//!   flush. The row list seeds the reduction's worklist (the column list
//!   seeds the transposed one), so probe cost tracks the *live* rows, not
//!   the matrix size.
//! * The reduction itself runs over an active-row worklist with scratch
//!   buffers owned by the engine ([`ReduceScratch`]) and a working matrix
//!   reused probe to probe — zero allocations on the steady-state path.
//! * An epoch-keyed result cache returns the previous [`DetectOutcome`]
//!   in O(1) when nothing mutated between probes.
//!
//! The engine is *bit-for-bit equivalent* to the cold path: verdict,
//! `iterations` and `steps` all match [`crate::pdda::detect_cold`] (the
//! worklist skips only rows that are provably empty, which can never be
//! terminal and contribute nothing to the column BWO trees). The
//! instruction-metered software PDDA ([`crate::pdda::detect_metered`]) is
//! untouched: the paper's Table 5 models a C implementation that rebuilds
//! kernel tables on every invocation, and its costs must not shift.

use std::sync::Arc;

use crate::matrix::{Cell, StateMatrix};
use crate::par::{ParConfig, WorkerPool};
use crate::pdda::DetectOutcome;
use crate::rag::RagDelta;
use crate::reduction::{reduce_core, ParExec, ReduceScratch};
use crate::sparse::{SparseConfig, SparseState};
use crate::{ProcId, Rag, ResId};

/// Operation counters exposed for tests, benches and DESIGN.md claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Detection probes requested.
    pub probes: u64,
    /// Probes answered from the epoch-keyed result cache (no reduction).
    pub cache_hits: u64,
    /// Syncs satisfied by replaying journal deltas.
    pub delta_syncs: u64,
    /// Individual deltas applied across all delta syncs.
    pub deltas_applied: u64,
    /// Syncs that fell back to a full [`StateMatrix::from_rag`]-style
    /// rebuild (cold path).
    pub full_rebuilds: u64,
    /// Probes answered by a reduction rather than the cache: a dense
    /// reduction, or a read of the sparse mirror's pass labels, which
    /// counts as one reduction.
    pub reductions: u64,
    /// Reductions served by the dense word-parallel engine (row- or
    /// column-major). `dense_reductions + sparse_reductions ==
    /// reductions`.
    pub dense_reductions: u64,
    /// Reductions served by the sparse mirror
    /// ([`crate::sparse::SparseState`]): an O(1) read of its pass labels,
    /// which its edits keep current, after a cold peel if they went stale
    /// while the gate sent probes dense.
    pub sparse_reductions: u64,
    /// Live edges in the mirror at read time (a gauge, not a counter).
    pub live_edges: u64,
    /// `live_edges * 1000 / (m * n)` at read time (a gauge, not a
    /// counter).
    pub density_permille: u64,
}

/// What state the mirror currently reflects — either a specific
/// `(id, epoch)` of some [`Rag`], or a locally-edited state numbered by
/// the engine's own edit counter (the DDU's direct cell writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    Rag { id: u64, epoch: u64 },
    Local { edits: u64 },
}

/// Incremental deadlock detection engine: persistent matrix mirror,
/// delta sync, worklist reduction, result cache.
///
/// # Example
///
/// ```
/// use deltaos_core::engine::DetectEngine;
/// use deltaos_core::{ProcId, Rag, ResId};
///
/// # fn main() -> Result<(), deltaos_core::CoreError> {
/// let mut rag = Rag::new(2, 2);
/// let mut engine = DetectEngine::new(2, 2);
/// rag.add_grant(ResId(0), ProcId(0))?;
/// rag.add_grant(ResId(1), ProcId(1))?;
/// rag.add_request(ProcId(0), ResId(1))?;
/// assert!(!engine.probe(&rag).deadlock);
/// rag.add_request(ProcId(1), ResId(0))?;
/// // Only the one new edge is applied to the mirror before reducing.
/// assert!(engine.probe(&rag).deadlock);
/// assert_eq!(engine.stats().delta_syncs, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DetectEngine {
    /// Persistent image of the current graph state.
    mirror: StateMatrix,
    /// Working copy the reduction destroys each probe.
    work: StateMatrix,
    /// Reusable reduction scratch (col masks, BWO accumulators, worklist).
    scratch: ReduceScratch,
    /// Occupancy of the mirror's rows; the live list seeds the reduction,
    /// so a probe never scans all `m` rows.
    rows: Occupancy,
    /// Occupancy of the mirror's columns; the live list seeds the
    /// column-major reduction. Kept while that path is off too, so
    /// turning it on needs no rescan.
    cols: Occupancy,
    /// Rows the last reduction left non-empty in `work` (the irreducible
    /// residue). Clearing exactly these restores `work` to all-zeros, so
    /// the next probe copies only the live rows instead of the whole
    /// mirror.
    work_residue: Vec<u32>,
    /// Shared worker pool for the sharded reduction path, if any. One
    /// pool serves many engines (e.g. every session of a service shard).
    par_pool: Option<Arc<WorkerPool>>,
    /// Gates for the parallel and column-major paths.
    par_cfg: ParConfig,
    /// `true` when this engine reduces the transposed mirror (tall
    /// matrices, `m >= colmajor_ratio * n`). Fixed by shape + config, so
    /// it never flips between probes.
    colmajor: bool,
    /// Persistent transposed mirror (`n × m`), kept cell-for-cell in sync
    /// with `mirror` by the same O(1) delta writes. Only allocated when
    /// `colmajor` is set.
    mirror_t: Option<StateMatrix>,
    /// Working copy of `mirror_t` plus its residue rows and scratch.
    work_t: Option<StateMatrix>,
    work_t_residue: Vec<u32>,
    scratch_t: ReduceScratch,
    /// Gates for the hybrid dense/sparse dispatch.
    sparse_cfg: SparseConfig,
    /// Edge-array mirror, kept cell-for-cell in sync with `mirror` by
    /// the same delta writes, with its pass labels kept current while
    /// the gate sends probes sparse. Allocated only when the shape is
    /// large enough that the sparse path could ever be selected.
    sparse: Option<Box<SparseState>>,
    /// Live edges in the mirror, maintained O(1) per cell write — the
    /// density input of the hybrid dispatch.
    live_edges: u64,
    /// What the mirror currently holds.
    version: Version,
    /// Monotonic counter for direct (DDU-style) cell edits.
    edits: u64,
    /// Last outcome, keyed by the version it was computed at.
    cache: Option<(Version, DetectOutcome)>,
    stats: EngineStats,
}

impl DetectEngine {
    /// Creates an engine sized for `resources` × `processes`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (same contract as
    /// [`StateMatrix::new`]).
    pub fn new(resources: usize, processes: usize) -> Self {
        Self::with_parallel(resources, processes, None, ParConfig::default())
    }

    /// Creates an engine with an explicit [`ParConfig`] and optional
    /// shared [`WorkerPool`]. With the default config (or no pool and
    /// `colmajor_ratio == 0`) this is exactly [`DetectEngine::new`].
    pub fn with_parallel(
        resources: usize,
        processes: usize,
        pool: Option<Arc<WorkerPool>>,
        cfg: ParConfig,
    ) -> Self {
        let colmajor = cfg.wants_colmajor(resources, processes);
        let sparse_cfg = SparseConfig::default();
        let sparse = sparse_cfg
            .covers_shape(resources, processes)
            .then(|| Box::new(SparseState::new(resources, processes)));
        DetectEngine {
            mirror: StateMatrix::new(resources, processes),
            work: StateMatrix::new(resources, processes),
            scratch: ReduceScratch::new(),
            rows: Occupancy::new(resources),
            cols: Occupancy::new(processes),
            work_residue: Vec::with_capacity(resources),
            par_pool: pool,
            par_cfg: cfg,
            colmajor,
            mirror_t: colmajor.then(|| StateMatrix::new(processes, resources)),
            work_t: colmajor.then(|| StateMatrix::new(processes, resources)),
            work_t_residue: Vec::new(),
            scratch_t: ReduceScratch::new(),
            sparse_cfg,
            sparse,
            live_edges: 0,
            version: Version::Local { edits: 0 },
            edits: 0,
            cache: None,
            stats: EngineStats::default(),
        }
    }

    /// Replaces the parallel configuration (and pool) in place. The
    /// column-major decision is re-evaluated for the engine's shape; if
    /// the transposed mirror becomes live it is built from the current
    /// mirror, so no resync is needed and no cached result is lost.
    pub fn set_parallel(&mut self, pool: Option<Arc<WorkerPool>>, cfg: ParConfig) {
        self.par_pool = pool;
        self.par_cfg = cfg;
        let colmajor = cfg.wants_colmajor(self.resources(), self.processes());
        if colmajor && !self.colmajor {
            let mut t = StateMatrix::new(self.processes(), self.resources());
            self.mirror.transpose_into(&mut t);
            self.mirror_t = Some(t);
            self.work_t = Some(StateMatrix::new(self.processes(), self.resources()));
            self.work_t_residue.clear();
        } else if !colmajor {
            self.mirror_t = None;
            self.work_t = None;
            self.work_t_residue.clear();
        }
        self.colmajor = colmajor;
    }

    /// The active parallel configuration.
    pub fn par_config(&self) -> ParConfig {
        self.par_cfg
    }

    /// `true` when this engine reduces column-major (tall shapes).
    pub fn is_colmajor(&self) -> bool {
        self.colmajor
    }

    /// Number of resource rows.
    pub fn resources(&self) -> usize {
        self.mirror.resources()
    }

    /// Number of process columns.
    pub fn processes(&self) -> usize {
        self.mirror.processes()
    }

    /// The persistent mirror (read-only; the DDU exposes this as its cell
    /// array read-back).
    pub fn mirror(&self) -> &StateMatrix {
        &self.mirror
    }

    /// Operation counters since construction (or [`DetectEngine::reset_stats`]),
    /// with the live-edge and density gauges filled in at read time.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.live_edges = self.live_edges;
        s.density_permille = self.density_permille();
        s
    }

    /// Live edges currently in the mirror.
    pub fn live_edges(&self) -> u64 {
        self.live_edges
    }

    /// Current mirror density in thousandths of the matrix area.
    pub fn density_permille(&self) -> u64 {
        let area = (self.resources() * self.processes()) as u64;
        self.live_edges
            .saturating_mul(1000)
            .checked_div(area)
            .unwrap_or(0)
    }

    /// The active sparse-dispatch configuration.
    pub fn sparse_config(&self) -> SparseConfig {
        self.sparse_cfg
    }

    /// Replaces the sparse-dispatch configuration in place. If the new
    /// gates make the sparse mirror live for this shape it is built from
    /// the current dense mirror (no resync, no cache loss); if they rule
    /// it out the mirror is dropped.
    pub fn set_sparse(&mut self, cfg: SparseConfig) {
        self.sparse_cfg = cfg;
        if cfg.covers_shape(self.resources(), self.processes()) {
            if self.sparse.is_none() {
                self.sparse = Some(Box::new(SparseState::new(
                    self.resources(),
                    self.processes(),
                )));
                self.drop_labels_if_dense();
                if let Some(sp) = self.sparse.as_mut() {
                    sp.rebuild_from_matrix(&self.mirror);
                }
            }
        } else {
            self.sparse = None;
        }
    }

    /// Zeroes the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Reallocates for a new shape, discarding the mirror. Cheap no-op
    /// when the shape already matches.
    pub fn ensure_dims(&mut self, resources: usize, processes: usize) {
        if self.resources() == resources && self.processes() == processes {
            return;
        }
        let sparse_cfg = self.sparse_cfg;
        *self = DetectEngine {
            stats: self.stats,
            edits: self.edits,
            ..DetectEngine::with_parallel(resources, processes, self.par_pool.take(), self.par_cfg)
        };
        if sparse_cfg != SparseConfig::default() {
            self.set_sparse(sparse_cfg);
        }
    }

    fn bump_local(&mut self) {
        self.edits += 1;
        self.version = Version::Local { edits: self.edits };
    }

    /// Writes one cell into the mirror — and, when the column-major path
    /// is live, the transposed cell into `mirror_t` (same O(1) cost; the
    /// axes swap, so the id wrappers swap roles too). The live-edge
    /// count, the occupancy index and the sparse adjacency mirror ride
    /// the same choke point, so delta syncs and the DDU's cell writes
    /// keep them current; a full rebuild re-indexes wholesale.
    #[inline]
    fn write_cell(&mut self, q: ResId, p: ProcId, delta: RagDelta) {
        let had = self.mirror.cell(q, p) != Cell::Empty;
        match delta {
            RagDelta::Request { .. } => self.mirror.set_request(p, q),
            RagDelta::Grant { .. } => self.mirror.set_grant(q, p),
            RagDelta::Clear { .. } => self.mirror.clear(q, p),
        }
        let has = !matches!(delta, RagDelta::Clear { .. });
        match (had, has) {
            (false, true) => {
                self.live_edges += 1;
                self.rows.add(q.index());
                self.cols.add(p.index());
            }
            (true, false) => {
                self.live_edges -= 1;
                self.rows.remove(q.index());
                self.cols.remove(p.index());
            }
            _ => {}
        }
        if let Some(sp) = self.sparse.as_mut() {
            sp.apply_delta(delta);
        }
        if let Some(t) = self.mirror_t.as_mut() {
            let (tq, tp) = (ResId(p.0), ProcId(q.0));
            match delta {
                RagDelta::Request { .. } => t.set_request(tp, tq),
                RagDelta::Grant { .. } => t.set_grant(tq, tp),
                RagDelta::Clear { .. } => t.clear(tq, tp),
            }
        }
    }

    /// Direct cell write (the DDU's bus interface): request edge `p → q`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn set_request(&mut self, p: ProcId, q: ResId) {
        self.write_cell(q, p, RagDelta::Request { p, q });
        self.bump_local();
    }

    /// Direct cell write: grant edge `q → p`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn set_grant(&mut self, q: ResId, p: ProcId) {
        self.write_cell(q, p, RagDelta::Grant { p, q });
        self.bump_local();
    }

    /// Direct cell write: clear cell `(q, p)`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn clear(&mut self, q: ResId, p: ProcId) {
        self.write_cell(q, p, RagDelta::Clear { p, q });
        self.bump_local();
    }

    fn apply_delta(&mut self, delta: RagDelta) {
        let (p, q) = match delta {
            RagDelta::Request { p, q } | RagDelta::Grant { p, q } | RagDelta::Clear { p, q } => {
                (p, q)
            }
        };
        self.write_cell(q, p, delta);
    }

    /// Rebuilds the whole mirror from `rag` into the existing buffers —
    /// the cold path, with no allocation beyond what the engine owns.
    fn full_rebuild(&mut self, rag: &Rag) {
        self.mirror.fill_empty();
        self.mirror.add_rag_edges(rag);
        if let Some(t) = self.mirror_t.as_mut() {
            self.mirror.transpose_into(t);
        }
        // Everything moved: re-index the mirror wholesale.
        self.live_edges = index_mirror(&self.mirror, &mut self.rows, &mut self.cols);
        self.drop_labels_if_dense();
        if let Some(sp) = self.sparse.as_mut() {
            sp.rebuild_from_rag(rag);
        }
        self.stats.full_rebuilds += 1;
    }

    /// Called before a rebuild of the sparse mirror: it keeps its pass
    /// labels only while the gate sends probes sparse. In the dense
    /// regime they go stale (as they do whenever a probe goes dense), the
    /// rebuild and later writes edit the edges alone, and the next sparse
    /// probe re-peels cold, so the dense regime pays no label upkeep.
    fn drop_labels_if_dense(&mut self) {
        let Some(sp) = self.sparse.as_mut() else {
            return;
        };
        let (m, n) = (self.mirror.resources(), self.mirror.processes());
        if !self.sparse_cfg.prefers_sparse(m, n, self.live_edges) {
            sp.mark_stale();
        }
    }

    /// Brings the mirror up to date with `rag`, by delta replay when the
    /// journal allows it, else by full rebuild.
    ///
    /// The RAG must fit the engine (`rag.resources() <= resources()` and
    /// likewise for processes): the DDU loads smaller graphs into a wider
    /// cell array. Use [`DetectEngine::ensure_dims`] first for an exact
    /// fit.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit the engine's dimensions.
    pub fn sync_rag(&mut self, rag: &Rag) {
        assert!(
            rag.resources() <= self.resources() && rag.processes() <= self.processes(),
            "RAG {}x{} does not fit engine {}x{}",
            rag.resources(),
            rag.processes(),
            self.resources(),
            self.processes()
        );
        let target = Version::Rag {
            id: rag.id(),
            epoch: rag.epoch(),
        };
        if self.version == target {
            return;
        }
        match self.version {
            Version::Rag { id, epoch } if id == rag.id() && rag.journal_covers(epoch) => {
                for delta in rag.deltas_since(epoch) {
                    self.apply_delta(delta);
                    self.stats.deltas_applied += 1;
                }
                self.stats.delta_syncs += 1;
            }
            _ => self.full_rebuild(rag),
        }
        self.version = target;
        debug_assert_eq!(
            self.mirror,
            {
                let mut full = StateMatrix::new(self.resources(), self.processes());
                full.add_rag_edges(rag);
                full
            },
            "delta-synced mirror diverged from the graph"
        );
    }

    /// Panics unless the occupancy index matches the mirror's bits: the
    /// counts, and the live lists as sets with consistent positions.
    /// Debug builds run it before every reduction.
    fn check_occupancy(&self) {
        let mut exact = [self.resources(), self.processes()].map(Occupancy::new);
        let [rows, cols] = &mut exact;
        let edges = index_mirror(&self.mirror, rows, cols);
        assert_eq!(self.live_edges, edges, "live-edge count diverged");
        let sorted = |o: &Occupancy| {
            let mut live = o.live.clone();
            live.sort_unstable();
            live
        };
        for (got, want) in [&self.rows, &self.cols].into_iter().zip(&exact) {
            assert_eq!(
                (&got.edges, sorted(got)),
                (&want.edges, sorted(want)),
                "occupancy index diverged from the mirror"
            );
            let placed = |(at, &i): (usize, &u32)| got.pos[i as usize] == at as u32;
            assert!(got.live.iter().enumerate().all(placed), "misplaced line");
        }
    }

    /// Reduces the current mirror state, consulting the result cache.
    pub fn detect_current(&mut self) -> DetectOutcome {
        self.stats.probes += 1;
        if let Some((version, outcome)) = self.cache {
            if version == self.version {
                self.stats.cache_hits += 1;
                return outcome;
            }
        }
        if cfg!(debug_assertions) {
            self.check_occupancy();
        }
        // Hybrid dispatch: the gate compares the live-edge count with
        // the dense engine's per-pass work for this shape (see
        // `SparseConfig`); paper scale always stays dense. The decision
        // depends only on shape and live-edge count, so it is identical
        // at every thread count.
        let prefers_sparse =
            self.sparse_cfg
                .prefers_sparse(self.resources(), self.processes(), self.live_edges);
        match self.sparse.as_mut() {
            Some(sp) if prefers_sparse => {
                debug_assert_eq!(
                    sp.live_edges(),
                    self.live_edges,
                    "sparse mirror edge count diverged from the engine's"
                );
                debug_assert!(
                    sp.labels_match_cold_peel(),
                    "sparse mirror's pass labels diverged from a cold peel"
                );
                // A read of the mirror's pass labels, counted as one
                // reduction like the dense path's.
                let report = sp.reduce();
                self.stats.sparse_reductions += 1;
                self.stats.reductions += 1;
                let outcome: DetectOutcome = report.into();
                self.cache = Some((self.version, outcome));
                return outcome;
            }
            // The dense path serves this probe: until a sparse probe
            // re-peels the mirror cold, its writes edit the edges alone.
            Some(sp) => sp.mark_stale(),
            None => {}
        }
        let par = self.par_pool.as_ref().and_then(|pool| {
            self.par_cfg
                .area_allows(self.mirror.resources(), self.mirror.processes())
                .then_some(ParExec {
                    pool: pool.as_ref(),
                    threads: self.par_cfg.effective_threads(),
                    min_live_rows: self.par_cfg.min_live_rows,
                })
        });
        let report = if self.colmajor {
            // Column-major path for tall shapes: reduce the transposed
            // mirror. The reduction is self-dual under transposition (see
            // `reduction::terminal_reduction_with`), so verdict,
            // `iterations` and `steps` are identical — but each pass
            // walks `n` short rows instead of `m` tall ones.
            debug_assert!(
                self.mirror_t.as_ref().is_some_and(|maintained| {
                    let mut t = StateMatrix::new(self.processes(), self.resources());
                    self.mirror.transpose_into(&mut t);
                    t == *maintained
                }),
                "transposed mirror diverged from the mirror"
            );
            let mirror_t = self.mirror_t.as_ref().expect("colmajor without mirror_t");
            let work_t = self.work_t.as_mut().expect("colmajor without work_t");
            for &t in &self.work_t_residue {
                work_t.clear_row(t as usize);
            }
            self.work_t_residue.clear();
            for &t in &self.cols.live {
                work_t.copy_row_from(mirror_t, t as usize);
            }
            // The seed transposes along with the matrix: live columns
            // become the row worklist.
            let report = reduce_core(
                work_t,
                &mut self.scratch_t,
                Some(&self.cols.live),
                par.as_ref(),
            );
            self.work_t_residue
                .extend_from_slice(self.scratch_t.residue());
            report
        } else {
            // `work` is all-zero outside the residue rows the previous
            // reduction left behind; clear those, then image only the live
            // rows — O(residue + live) row copies, never a full-matrix one.
            for &s in &self.work_residue {
                self.work.clear_row(s as usize);
            }
            self.work_residue.clear();
            for &s in &self.rows.live {
                self.work.copy_row_from(&self.mirror, s as usize);
            }
            let report = reduce_core(
                &mut self.work,
                &mut self.scratch,
                Some(&self.rows.live),
                par.as_ref(),
            );
            self.work_residue.extend_from_slice(self.scratch.residue());
            report
        };
        self.stats.dense_reductions += 1;
        self.stats.reductions += 1;
        let outcome: DetectOutcome = report.into();
        self.cache = Some((self.version, outcome));
        outcome
    }

    /// Full probe: sync the mirror to `rag` and detect. This is the
    /// engine's main entry point — [`crate::pdda::detect`] routes here.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit the engine's dimensions.
    pub fn probe(&mut self, rag: &Rag) -> DetectOutcome {
        self.sync_rag(rag);
        self.detect_current()
    }

    /// The cached [`DetectOutcome`] **for `rag`'s current state**, if the
    /// result cache holds one: the last probe ran against this exact
    /// `(id, epoch)` and nothing mutated since. This is the snapshot
    /// export hook — persisting the outcome alongside the graph lets a
    /// restored engine answer its first unchanged probe from cache, so
    /// `cache_hits`/`reductions` counters replay bit-identically across
    /// a crash/restore boundary.
    pub fn cached_outcome_for(&self, rag: &Rag) -> Option<DetectOutcome> {
        let current = Version::Rag {
            id: rag.id(),
            epoch: rag.epoch(),
        };
        match self.cache {
            Some((version, outcome)) if version == current => Some(outcome),
            _ => None,
        }
    }

    /// Restore hook: rebuilds the mirror from `rag`, overwrites the
    /// operation counters with `stats` (the values captured at snapshot
    /// time), and — when `cached` is given — primes the result cache so
    /// the next probe against an unchanged `rag` is a cache hit, exactly
    /// as it would have been in the uninterrupted run.
    ///
    /// The rebuild performed here is *not* counted in the restored
    /// stats: counters land exactly on the snapshot's values, because
    /// the uninterrupted run never paid for a restore.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit the engine's dimensions.
    pub fn restore(&mut self, rag: &Rag, stats: EngineStats, cached: Option<DetectOutcome>) {
        self.sync_rag(rag);
        self.stats = stats;
        self.cache = cached.map(|outcome| (self.version, outcome));
    }
}

/// One axis of the occupancy index: each line's (row's or column's) edge
/// count, and the list of the non-empty lines, which a line joins or
/// leaves in O(1) when its count moves between 0 and 1.
#[derive(Debug, Clone)]
struct Occupancy {
    /// Edges per line.
    edges: Vec<u32>,
    /// The non-empty lines, in no particular order.
    live: Vec<u32>,
    /// `pos[i]` = index of line `i` in `live` (`u32::MAX` when the line
    /// is empty); makes removal O(1) by swap-remove.
    pos: Vec<u32>,
}

impl Occupancy {
    fn new(lines: usize) -> Self {
        Occupancy {
            edges: vec![0; lines],
            live: Vec::with_capacity(lines),
            pos: vec![u32::MAX; lines],
        }
    }

    /// One more edge on line `i`.
    #[inline]
    fn add(&mut self, i: usize) {
        self.edges[i] += 1;
        if self.edges[i] == 1 {
            self.pos[i] = self.live.len() as u32;
            self.live.push(i as u32);
        }
    }

    /// One edge fewer on line `i`.
    #[inline]
    fn remove(&mut self, i: usize) {
        self.edges[i] -= 1;
        if self.edges[i] == 0 {
            let at = self.pos[i] as usize;
            self.pos[i] = u32::MAX;
            self.live.swap_remove(at);
            if let Some(&moved) = self.live.get(at) {
                self.pos[moved as usize] = at as u32;
            }
        }
    }

    /// Empties every line, in O(live lines).
    fn clear(&mut self) {
        for &i in &self.live {
            self.edges[i as usize] = 0;
            self.pos[i as usize] = u32::MAX;
        }
        self.live.clear();
    }
}

/// Rebuilds `rows` and `cols` from the bits of `mirror` in one word pass
/// — O(live lines + area/64 + edges), not the O(n·m) of a per-column
/// bitmap scan — and returns the edge count.
fn index_mirror(mirror: &StateMatrix, rows: &mut Occupancy, cols: &mut Occupancy) -> u64 {
    rows.clear();
    cols.clear();
    let mut edges = 0;
    for s in 0..mirror.resources() {
        for (w, (&r, &g)) in mirror.row_r(s).iter().zip(mirror.row_g(s)).enumerate() {
            // Request and grant bits are disjoint per cell (writes
            // replace), so one OR covers both planes.
            let mut bits = r | g;
            while bits != 0 {
                rows.add(s);
                cols.add(w * 64 + bits.trailing_zeros() as usize);
                edges += 1;
                bits &= bits - 1;
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdda::detect_cold;

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }
    fn q(i: u16) -> ResId {
        ResId(i)
    }

    fn cycle_rag() -> Rag {
        let mut rag = Rag::new(2, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(1), p(1)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        rag.add_request(p(1), q(0)).unwrap();
        rag
    }

    #[test]
    fn dense_regime_rebuilds_leave_the_sparse_labels_unpeeled() {
        // A full 64² RAG: each row granted to one process and requested
        // by the other 63, 4,096 edges, over the default gate's budget
        // of 12.5 × 64 rows × (1 word + 4) = 4,000.
        let mut rag = Rag::new(64, 64);
        for r in 0..64 {
            rag.add_grant(q(r), p(r)).unwrap();
            for i in (0..64).filter(|&i| i != r) {
                rag.add_request(p(i), q(r)).unwrap();
            }
        }
        assert!(!SparseConfig::default().prefers_sparse(64, 64, 4_096));
        let mut engine = DetectEngine::new(64, 64);
        let peeled = |e: &DetectEngine| e.sparse.as_ref().expect("64² keeps a mirror").visits();
        assert!(engine.probe(&rag).deadlock);
        // A new identity with no delta in between: a second rebuild.
        let mut rag = rag.clone();
        assert!(engine.probe(&rag).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 2);
        assert_eq!(engine.stats().dense_reductions, 2);
        assert_eq!(
            peeled(&engine),
            0,
            "a dense-regime rebuild peeled the labels"
        );
        // Dropping the 126 requests of rows 0-2 brings the graph under
        // the budget: the next probe goes sparse and peels once.
        for r in 0..3 {
            for i in (0..64).filter(|&i| i != r) {
                assert!(rag.remove_request(p(i), q(r)));
            }
        }
        assert_eq!(engine.probe(&rag), detect_cold(&rag));
        assert_eq!(engine.stats().sparse_reductions, 1);
        assert!(peeled(&engine) > 0);
    }

    #[test]
    fn first_probe_is_a_full_rebuild() {
        let rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        assert!(engine.probe(&rag).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 1);
        assert_eq!(engine.stats().delta_syncs, 0);
    }

    #[test]
    fn second_probe_after_edit_uses_deltas() {
        let mut rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        engine.probe(&rag);
        rag.remove_request(p(1), q(0));
        let out = engine.probe(&rag);
        assert!(!out.deadlock);
        assert_eq!(engine.stats().full_rebuilds, 1);
        assert_eq!(engine.stats().delta_syncs, 1);
        assert_eq!(engine.stats().deltas_applied, 1);
        assert_eq!(out, detect_cold(&rag));
    }

    #[test]
    fn unchanged_probe_hits_the_cache() {
        let rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        let a = engine.probe(&rag);
        let b = engine.probe(&rag);
        assert_eq!(a, b);
        assert_eq!(engine.stats().probes, 2);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().reductions, 1, "second probe must not reduce");
    }

    #[test]
    fn journal_overflow_falls_back_to_rebuild() {
        let mut rag = Rag::new(1, 1);
        let mut engine = DetectEngine::new(1, 1);
        engine.probe(&rag);
        for _ in 0..300 {
            rag.add_request(p(0), q(0)).unwrap();
            assert!(rag.remove_request(p(0), q(0)));
        }
        engine.probe(&rag);
        assert_eq!(engine.stats().full_rebuilds, 2);
        assert_eq!(engine.stats().delta_syncs, 0);
    }

    #[test]
    fn different_rag_identity_forces_rebuild() {
        let rag1 = cycle_rag();
        let rag2 = Rag::new(2, 2);
        let mut engine = DetectEngine::new(2, 2);
        assert!(engine.probe(&rag1).deadlock);
        assert!(!engine.probe(&rag2).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 2);
    }

    #[test]
    fn clone_of_rag_is_probed_safely() {
        // A clone keeps the journal but gets a new id, so the engine must
        // not delta-sync across the identity change.
        let mut rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        engine.probe(&rag);
        let copy = rag.clone();
        rag.remove_request(p(1), q(0));
        assert!(engine.probe(&copy).deadlock);
        assert!(!engine.probe(&rag).deadlock);
    }

    #[test]
    fn direct_edits_mirror_the_ddu_interface() {
        let mut engine = DetectEngine::new(2, 2);
        engine.set_grant(q(0), p(0));
        engine.set_grant(q(1), p(1));
        engine.set_request(p(0), q(1));
        engine.set_request(p(1), q(0));
        assert!(engine.detect_current().deadlock);
        let hit = engine.detect_current();
        assert!(hit.deadlock);
        assert_eq!(engine.stats().cache_hits, 1);
        engine.clear(q(1), p(0));
        assert!(!engine.detect_current().deadlock);
        assert_eq!(engine.mirror().edge_count(), 3, "detection preserves cells");
    }

    #[test]
    fn smaller_rag_fits_wider_engine() {
        let mut chain = Rag::new(3, 3);
        chain.add_grant(q(0), p(0)).unwrap();
        chain.add_request(p(1), q(0)).unwrap();
        let mut exact = DetectEngine::new(3, 3);
        let mut wide = DetectEngine::new(8, 64);
        assert_eq!(exact.probe(&chain), wide.probe(&chain));
    }

    #[test]
    fn ensure_dims_reshapes_and_rebuilds() {
        let mut engine = DetectEngine::new(2, 2);
        engine.probe(&cycle_rag());
        engine.ensure_dims(5, 5);
        assert_eq!(engine.resources(), 5);
        let rag = Rag::new(5, 5);
        assert!(!engine.probe(&rag).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_rag_rejected() {
        DetectEngine::new(2, 2).probe(&Rag::new(3, 3));
    }

    #[test]
    fn cached_outcome_export_tracks_the_rag_state() {
        let mut rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        assert_eq!(engine.cached_outcome_for(&rag), None, "no probe yet");
        let out = engine.probe(&rag);
        assert_eq!(engine.cached_outcome_for(&rag), Some(out));
        rag.remove_request(p(1), q(0));
        assert_eq!(
            engine.cached_outcome_for(&rag),
            None,
            "mutation invalidates the exported cache"
        );
    }

    #[test]
    fn restore_primes_stats_and_cache() {
        // Run an "uninterrupted" engine: probe, edit, probe, probe.
        let mut rag = cycle_rag();
        let mut live = DetectEngine::new(2, 2);
        live.probe(&rag);
        rag.remove_request(p(1), q(0));
        let out = live.probe(&rag);
        live.probe(&rag); // cache hit in the live engine

        // Snapshot after the second probe, restore into a fresh engine
        // backed by a freshly rebuilt RAG (new id, epoch 0), then repeat
        // the trailing probe: counters must land where the live engine's
        // did.
        let mut snap_stats = live.stats();
        snap_stats.cache_hits -= 1; // state as of the snapshot point
        snap_stats.probes -= 1;
        let mut restored_rag = Rag::new(2, 2);
        restored_rag.add_grant(q(0), p(0)).unwrap();
        restored_rag.add_grant(q(1), p(1)).unwrap();
        restored_rag.add_request(p(0), q(1)).unwrap();
        let mut restored = DetectEngine::new(2, 2);
        restored.restore(&restored_rag, snap_stats, Some(out));
        assert_eq!(restored.probe(&restored_rag), out, "first probe hits cache");
        assert_eq!(restored.stats().cache_hits, live.stats().cache_hits);
        assert_eq!(restored.stats().probes, live.stats().probes);
        assert_eq!(restored.stats().reductions, live.stats().reductions);
    }

    #[test]
    fn restore_without_cached_outcome_reduces_on_first_probe() {
        let rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        engine.restore(&rag, EngineStats::default(), None);
        let out = engine.probe(&rag);
        assert!(out.deadlock);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().reductions, 1);
        assert_eq!(out, detect_cold(&rag));
    }

    #[test]
    fn hybrid_dispatch_records_path_and_matches_dense() {
        let mut rag = cycle_rag();
        let mut dense = DetectEngine::new(2, 2);
        dense.set_sparse(SparseConfig::disabled());
        let mut sparse = DetectEngine::new(2, 2);
        sparse.set_sparse(SparseConfig::always());
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
        assert_eq!(dense.stats().dense_reductions, 1);
        assert_eq!(dense.stats().sparse_reductions, 0);
        assert_eq!(sparse.stats().sparse_reductions, 1);
        assert_eq!(sparse.stats().dense_reductions, 0);
        rag.remove_request(p(1), q(0));
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
        assert_eq!(dense.stats().live_edges, 3);
        assert_eq!(sparse.stats().live_edges, 3);
        assert_eq!(dense.stats().density_permille, 750);
    }

    #[test]
    fn sparse_engine_tracks_direct_cell_writes() {
        let mut e = DetectEngine::new(4, 4);
        e.set_sparse(SparseConfig::always());
        e.set_grant(q(0), p(0));
        e.set_grant(q(1), p(1));
        e.set_request(p(0), q(1));
        e.set_request(p(1), q(0));
        assert!(e.detect_current().deadlock);
        e.clear(q(1), p(0));
        assert!(!e.detect_current().deadlock);
        assert_eq!(e.stats().sparse_reductions, 2);
        assert_eq!(e.stats().dense_reductions, 0);
        assert_eq!(e.live_edges(), 3);
    }

    #[test]
    fn default_config_keeps_paper_scale_dense() {
        let mut e = DetectEngine::new(5, 5);
        assert!(!e.sparse_config().covers_shape(5, 5));
        e.probe(&Rag::new(5, 5));
        assert_eq!(e.stats().dense_reductions, 1);
        assert_eq!(e.stats().sparse_reductions, 0);
    }

    #[test]
    fn occupancy_index_is_exact_after_every_write_path() {
        // Tall enough for the column-major path, with rows in three words.
        let (m, n) = (130, 16);
        let mut e = DetectEngine::new(m, n);
        // DDU direct cell writes: insert, overwrite in place, clear.
        for (qi, pi, op) in [(0, 0, 'g'), (0, 1, 'r'), (129, 1, 'r'), (0, 1, 'g')]
            .into_iter()
            .chain([(0, 0, 'c'), (129, 1, 'c'), (0, 1, 'c'), (5, 5, 'g')])
        {
            match op {
                'g' => e.set_grant(q(qi), p(pi)),
                'r' => e.set_request(p(pi), q(qi)),
                _ => e.clear(q(qi), p(pi)),
            }
            e.check_occupancy();
        }
        let sync = |e: &mut DetectEngine, rag: &Rag| {
            assert_eq!(e.probe(rag), detect_cold(rag));
            e.check_occupancy();
        };
        // First contact with a graph: a full rebuild over the local edit.
        let mut rag = Rag::new(m, n);
        for i in 0..12 {
            rag.add_grant(q(i * 10), p(i)).unwrap();
            rag.add_request(p(i + 1), q(i * 10)).unwrap();
        }
        sync(&mut e, &rag);
        // Delta sync: empty a row and a column, fill new ones.
        rag.remove_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(129), p(14)).unwrap();
        sync(&mut e, &rag);
        // Journal overflow: the gap outruns the journal.
        for _ in 0..300 {
            rag.add_request(p(0), q(127)).unwrap();
            assert!(rag.remove_request(p(0), q(127)));
        }
        rag.remove_grant(q(10), p(1)).unwrap();
        sync(&mut e, &rag);
        // Graph identity change: a clone has a new id.
        let mut rag = rag.clone();
        rag.add_grant(q(64), p(9)).unwrap();
        sync(&mut e, &rag);
        assert_eq!((e.stats().full_rebuilds, e.stats().delta_syncs), (3, 1));
        // `set_parallel` turns the column-major path on: its reduction
        // seeds from the live columns, which later syncs keep exact.
        let cfg = ParConfig {
            colmajor_ratio: 8,
            colmajor_min_area: 0,
            ..ParConfig::default()
        };
        e.set_parallel(None, cfg);
        assert!(e.is_colmajor());
        e.check_occupancy();
        for i in 0..4 {
            rag.add_request(p(i), q(100 + i)).unwrap();
            rag.remove_grant(q(i * 10 + 30), p(i + 3)).unwrap();
            sync(&mut e, &rag);
        }
        // Restore over an engine holding other cells.
        let mut restored = DetectEngine::new(m, n);
        restored.set_request(p(2), q(2));
        restored.restore(&rag, e.stats(), None);
        sync(&mut restored, &rag);
        // `ensure_dims` reshapes to an empty index of the new size.
        e.ensure_dims(70, 200);
        e.check_occupancy();
        let mut wide = Rag::new(70, 200);
        wide.add_grant(q(69), p(199)).unwrap();
        wide.add_request(p(130), q(69)).unwrap();
        sync(&mut e, &wide);
    }

    #[test]
    fn outcome_matches_cold_path_across_paper_table4_sequence() {
        let mut rag = Rag::new(5, 5);
        let mut engine = DetectEngine::new(5, 5);
        let check = |rag: &Rag, engine: &mut DetectEngine| {
            assert_eq!(engine.probe(rag), detect_cold(rag));
        };
        rag.add_grant(q(1), p(0)).unwrap();
        rag.add_grant(q(0), p(0)).unwrap();
        check(&rag, &mut engine);
        rag.add_grant(q(3), p(2)).unwrap();
        rag.add_request(p(2), q(1)).unwrap();
        check(&rag, &mut engine);
        rag.add_request(p(1), q(1)).unwrap();
        rag.add_request(p(1), q(3)).unwrap();
        check(&rag, &mut engine);
        rag.remove_grant(q(1), p(0)).unwrap();
        check(&rag, &mut engine);
        rag.remove_request(p(1), q(1));
        rag.add_grant(q(1), p(1)).unwrap();
        check(&rag, &mut engine);
        assert!(engine.probe(&rag).deadlock);
        assert_eq!(
            engine.stats().full_rebuilds,
            1,
            "only the first probe rebuilds"
        );
    }
}

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
//! no particular order. Rows and columns are the graph's nodes (row `s`
//! is node `s`, column `t` is node `m + t`), and each node's edges form a
//! chain through the array (a head slot per node, a row link and a
//! column link per edge). A cell read or write costs O(degree) of the
//! touched row and column, and a new edge allocates nothing per node;
//! deleting an edge unlinks it from both chains, swap-removes it and
//! repoints the two links that held the moved edge.
//!
//! **Pass labels.** Each pass of the reduction removes every edge with a
//! terminal end (requests XOR grants, on the counts at the start of the
//! pass). Rather than run the passes, the state keeps a label t(v) per
//! node: the first pass at whose start v lacks requests or lacks grants.
//! Before that pass v holds both kinds and is not terminal; from it on,
//! any edge v still holds makes it terminal. So an edge leaves in pass
//! min(t(u), t(w)) of its two ends, and v lacks a kind from the pass
//! after the last neighbour of that kind leaves:
//!
//! ```text
//! t(v) = 1 + min over kinds κ of max { t(u) : u a κ-neighbour of v }
//! ```
//!
//! with the max over no neighbours 0 (a node lacking a kind is labelled
//! 1), taking the least solution, and ∞ where no finite value exists (a
//! node on a cycle, or waiting on one). With a count of edges per pass a
//! probe reads the report in O(1): `iterations` is the largest finite
//! edge pass (every pass up to it removes an edge), `steps` is
//! `iterations + 1` (the DDU spends a clock on the pass that removes
//! nothing), and the reduction is complete iff no edge has both ends at
//! ∞.
//!
//! **Equivalence.** The per-edge rule is
//! [`crate::reduction::reduce_core`]'s pass restated:
//!
//! * a row is terminal iff it has requests XOR grants — the fused BWO
//!   row scan there;
//! * a column is terminal iff it has requests XOR grants across live
//!   rows — the dense column mask there;
//! * `reduce_core` removes against the pre-removal snapshot the flags
//!   were computed from: terminal rows drop whole rows, non-terminal rows
//!   drop only their terminal-column cells. Together that is exactly "an
//!   edge leaves in the pass in which one of its ends is terminal";
//! * a terminal row or column holds at least one edge, so a pass finds a
//!   terminal iff it removes an edge, and completeness is "no edge
//!   survived" — the dense check that every column accumulator is zero.
//!
//! Since the per-pass removals are equal, `iterations`, `steps` and the
//! verdict are bit-identical to the dense engine on every input. The LCG
//! equivalence suites and the exhaustive small-scope sweep drive both
//! paths through identical write streams to enforce this, and the unit
//! tests check the kept labels against a cold peel after every write.
//!
//! **Cold peel.** One peel labels every node in O(nodes + edges): count
//! each node's requests and grants, label 1 every node that lacks a kind,
//! then take the labelled nodes in label order; when a node's last
//! unlabelled neighbour of some kind is taken at label k, the node is
//! labelled k + 1. Nodes never labelled are at ∞. Rebuilds, and a reduce
//! of stale labels (below), run it.
//!
//! **Incremental updates.** The labels are monotone in the edge set: an
//! added edge can only grow the right-hand side above (a max over more
//! neighbours), and the least solution of a pointwise larger monotone
//! system is larger. So an insert never lowers a label and a delete never
//! raises one. A write therefore re-peels an *affected set* S and holds
//! every label outside S fixed. S grows on the graph after the write,
//! from the labels before it:
//!
//! * **insert:** a node v with finite t(v) rises only if, for every kind
//!   that supports its label (no neighbour of that kind labelled t(v) or
//!   more), some neighbour of that kind rises. So v joins S when every
//!   supporting kind holds a member of S. Nodes at ∞ never join, nor do
//!   nodes at 1 away from the edge: they lack a kind, and only an edge
//!   of their own could give it to them.
//! * **delete:** a node v with t(v) > 1 falls only if, for some kind,
//!   every neighbour of that kind labelled t(v) − 1 or more falls (at ∞:
//!   every neighbour of that kind at ∞). So v joins S when, for some
//!   kind, all such neighbours are in S.
//! * **kind flip:** a delete, then an insert.
//!
//! The written edge's two ends take their counts first, and since those
//! already see the edge in or out, an end joins only if its counts admit
//! it before S has a member. A write that leaves both ends' labels held
//! as before (a new neighbour labelled below the end, a lost one below
//! t(v) − 1, one ∞ neighbour lost among several, a delete between two
//! nodes at 1, an insert whose ends hold no edge of the other kind)
//! grows no set and moves no label: its edge enters or
//! leaves the pass counts at its ends' labels, for the cost of reading
//! the two ends' chains.
//!
//! S holds every node whose label moves. Suppose not, and take the
//! moved node outside S with the least old label (insert) or the least
//! new label (delete). The neighbours its move depends on, in the graph
//! after the write, moved too and come earlier in that order, so they
//! are in S, and the rule admits it. Re-peeling S is the cold peel
//! seeded with the largest fixed label of each kind around each member.
//! It finds the least solution of the system restricted to S, which is
//! the new labelling there. The passes of the edges incident to S leave
//! the counts before the re-peel and re-enter after it. A write costs
//! O(Σ degree) over its two ends, S and the neighbours its growth
//! inspects: a few nodes on the service's sparse sessions, where running
//! the passes visits every surviving edge in every pass of every probe.
//!
//! **Staleness.** A caller that will not probe this state for a while can
//! [`SparseState::mark_stale`] it: writes then edit only the chains, and
//! the next [`SparseState::reduce`] re-peels cold. The engine does this
//! while its gate sends probes dense, so edits and rebuilds there cost
//! what they did before the state kept labels.
//!
//! **Workspace.** The peel's scratch (per-node marks and per-kind counts,
//! the affected set, the label-order queue) lives in one workspace per
//! thread (a `thread_local!`, like [`crate::pdda::detect`]'s engine),
//! shared by every state the thread writes, whatever its shape. A service
//! loop that owns many sessions therefore holds one set of peel buffers,
//! not one per session. The buffers grow to the largest node count the
//! thread has seen. The sharing rests on one invariant: every mark and
//! count is zero between calls. A call touches only its affected set and
//! the neighbours it inspects, and zeroes exactly those before it
//! returns, so it costs nothing in O(m + n) and a call on another shape
//! finds clean scratch.
//!
//! Unlike the matrix paths, `SparseState` is indexed by `usize`, so it
//! represents graphs beyond `u16` ids (e.g. 1M×1M, where a dense
//! bit-matrix pair would need ~500 GB) in memory proportional to its
//! nodes and edges.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::matrix::{Cell, StateMatrix};
use crate::pdda::DetectOutcome;
use crate::reduction::ReductionReport;
use crate::{ProcId, Rag, RagDelta, ResId};

/// Gates for the hybrid dense/sparse dispatch in
/// [`crate::engine::DetectEngine`].
///
/// Both gates are functions of matrix shape and live-edge count alone —
/// never of thread counts or timing — so which engine serves a probe is
/// a deterministic property of the input, and stats stay bit-identical
/// across thread counts.
///
/// The default is fitted to the crossover grid in `BENCH_sparse.json`
/// (the `detect_sparse` bench: forced-dense against forced-sparse edit +
/// probe pairs over six shapes, four densities and two reduction
/// depths). A dense probe runs every pass, visiting each live row at
/// about four words of bookkeeping plus its matrix words. A sparse probe
/// reads the labels its edits kept; an edit reads the counts around its
/// two ends and re-peels only the nodes whose label can move, so its
/// cost follows the degree there and how far the change spreads. The
/// gate compares the live edges with the dense engine's work per pass
/// with every row live: rows × (words per row + 4), in whichever
/// orientation is cheaper (the engine reduces tall matrices
/// column-major).
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
    /// dense engine's work per pass. The default, 12,500, sends every
    /// grid cell with a mirror sparse: in each of three grid runs the
    /// sparse path is the faster one on all 40, up to the densest, 4096×64
    /// at 20% (12.05 edges per word visit). Denser graphs, where the grid
    /// has no cell, stay dense: there one edit whose label change spreads
    /// far can cost O(nodes + edges), against a probe of word-parallel
    /// passes.
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
            edges_per_kilo_work: 12_500,
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

/// One live cell: a request or grant edge between a row node and a
/// column node, with its links in both ends' chains.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// `[row node, column node]`; row `s` is node `s`, column `t` is node
    /// `m + t`.
    ends: [u32; 2],
    /// `next[side]` = slot of the next edge in the chain of `ends[side]`,
    /// or [`NIL`].
    next: [u32; 2],
    grant: bool,
}

/// One row or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// Slot of the node's first edge, or [`NIL`].
    head: u32,
    /// The node's pass label, [`INF`] for ∞.
    label: u32,
}

/// End of a node's edge chain.
const NIL: u32 = u32::MAX;
/// The label of a node that never turns terminal.
const INF: u32 = u32::MAX;

/// The least neighbour label that can hold a node at `label`: one below
/// it, and ∞ at ∞.
fn floor(label: u32) -> u32 {
    if label == INF {
        INF
    } else {
        label - 1
    }
}

/// The edges of node `v` (whose chains run on `side`) as `(other end,
/// kind)`, kind 0 for a request and 1 for a grant.
struct Adj<'a> {
    edges: &'a [Edge],
    side: usize,
    at: u32,
}

impl Iterator for Adj<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        // `NIL` lies past every slot.
        let e = self.edges.get(self.at as usize)?;
        self.at = e.next[self.side];
        Some((e.ends[1 - self.side] as usize, usize::from(e.grant)))
    }
}

/// The edge array and the nodes its chains hang from.
#[derive(Debug, Clone)]
struct Graph {
    /// Rows are nodes `0..m`, columns `m..m + n`.
    m: usize,
    /// Every live edge, in no particular order. A row may hold several
    /// grants: direct DDU-style cell writes can legally produce
    /// multi-grant rows, and the matrix twin represents them.
    edges: Vec<Edge>,
    nodes: Vec<Node>,
}

impl Graph {
    fn adj(&self, v: usize) -> Adj<'_> {
        Adj {
            edges: &self.edges,
            side: usize::from(v >= self.m),
            at: self.nodes[v].head,
        }
    }

    /// Node `v`'s growth counts (see the module doc): per kind, whether
    /// the kind supports v's label and so needs a rising member (insert,
    /// `up`), or the neighbours labelled t(v) - 1 or more (delete). Also
    /// returns the adjacency entries read.
    fn counts(&self, v: usize, up: bool) -> ([u32; 2], u64) {
        let tv = self.nodes[v].label;
        let low = floor(tv);
        let mut top = [0u32; 2];
        let mut count = [0u32; 2];
        let mut read = 0;
        for (w, k) in self.adj(v) {
            read += 1;
            let tw = self.nodes[w].label;
            top[k] = top[k].max(tw);
            count[k] += u32::from(tw >= low);
        }
        if up {
            count = top.map(|x| u32::from(x < tv));
        }
        (count, read)
    }

    /// The slot of the edge between row node `row` and column node
    /// `col`, or [`NIL`].
    fn find(&self, row: usize, col: u32) -> u32 {
        let mut i = self.nodes[row].head;
        while i != NIL && self.edges[i as usize].ends[1] != col {
            i = self.edges[i as usize].next[0];
        }
        i
    }

    /// Adds an edge at the head of both its ends' chains.
    fn link(&mut self, ends: [u32; 2], grant: bool) {
        let slot = u32::try_from(self.edges.len())
            .ok()
            .filter(|&slot| slot != NIL)
            .expect("edge count fits u32 slots");
        let next = ends.map(|v| self.nodes[v as usize].head);
        self.edges.push(Edge { ends, next, grant });
        for v in ends {
            self.nodes[v as usize].head = slot;
        }
    }

    /// The link in node `v`'s chain on `side` that holds slot `i`.
    fn link_to(&mut self, v: u32, side: usize, i: u32) -> &mut u32 {
        let head = &mut self.nodes[v as usize].head;
        if *head == i {
            return head;
        }
        let mut j = *head;
        while self.edges[j as usize].next[side] != i {
            j = self.edges[j as usize].next[side];
        }
        &mut self.edges[j as usize].next[side]
    }

    /// Removes the edge in slot `i`: unlinks it from both chains, and the
    /// last edge moves into the hole.
    fn unlink(&mut self, i: u32) {
        let Edge { ends, next, .. } = self.edges[i as usize];
        for (side, v) in ends.into_iter().enumerate() {
            *self.link_to(v, side, i) = next[side];
        }
        let last = (self.edges.len() - 1) as u32;
        self.edges.swap_remove(i as usize);
        if i != last {
            let moved = self.edges[i as usize].ends;
            for (side, v) in moved.into_iter().enumerate() {
                *self.link_to(v, side, last) = i;
            }
        }
    }
}

/// `true` once a seen node's growth counts let it join the affected
/// set: every kind met by a rising member (insert, `up`), or some kind
/// whose neighbours labelled t(v) - 1 or more are all members (delete).
fn joins(count: [u32; 2], up: bool) -> bool {
    if up {
        count == [0; 2]
    } else {
        count.contains(&0)
    }
}

/// Edges per removal pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Passes {
    /// `per_pass[p - 1]` = edges that leave in pass `p`, with no
    /// trailing zero between writes.
    per_pass: Vec<u32>,
    /// Edges with both ends at ∞: they survive the reduction.
    stuck: u64,
}

impl Passes {
    fn add(&mut self, pass: u32) {
        if pass == INF {
            self.stuck += 1;
        } else {
            let p = pass as usize;
            if self.per_pass.len() < p {
                self.per_pass.resize(p, 0);
            }
            self.per_pass[p - 1] += 1;
        }
    }

    fn remove(&mut self, pass: u32) {
        if pass == INF {
            self.stuck -= 1;
        } else {
            self.per_pass[pass as usize - 1] -= 1;
        }
    }

    fn clear(&mut self) {
        self.per_pass.clear();
        self.stuck = 0;
    }

    /// Drops the trailing empty passes a write left.
    fn trim(&mut self) {
        while self.per_pass.last() == Some(&0) {
            self.per_pass.pop();
        }
    }

    fn report(&self) -> ReductionReport {
        let iterations = self.per_pass.len() as u32;
        ReductionReport {
            iterations,
            steps: iterations + 1,
            complete: self.stuck == 0,
        }
    }
}

/// Workspace marks: a node outside the affected set, a neighbour whose
/// counts the growth has taken, a member, and a member whose edges the
/// growth has walked.
const OUT: u8 = 0;
const SEEN: u8 = 1;
const IN: u8 = 2;
const WALKED: u8 = 3;

/// One node's scratch.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    mark: u8,
    /// Per kind. In the growth, the members a neighbour still misses
    /// before it joins; in the peel, the members not yet labelled.
    count: [u32; 2],
    /// Per kind, in the peel: the largest label outside the set.
    fixed: [u32; 2],
}

/// The peel's scratch, zero (or empty) between calls (see the module
/// doc).
#[derive(Debug, Default)]
struct Workspace {
    /// Per node.
    slots: Vec<Slot>,
    /// The affected set.
    set: Vec<u32>,
    /// The nodes marked [`SEEN`].
    seen: Vec<u32>,
    /// The peel's queue of `(label, node)`: labels one above the current
    /// one in order, and the rest in a heap.
    fifo: Vec<(u32, u32)>,
    later: BinaryHeap<Reverse<(u32, u32)>>,
}

thread_local! {
    /// The workspace every sparse state written on this thread shares.
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// The peel's label-order queue. Every label pushed is above the label
/// being taken, so labels one above it arrive in order and queue first
/// in, first out; only a label seeded by a larger fixed neighbour goes
/// to the heap. A cold peel never uses the heap. One heap for every
/// label would also serve, but it doubled the cold peels of a
/// `detect_mix`-shaped set-up (sixteen sessions rebuilt and reduced:
/// 2.66 ms against 1.33 ms, slower in 41 of 41 alternating rounds on a
/// 2-vCPU host) and took the 1024² peel chain from 46 µs to 70 µs.
struct Queue<'a> {
    fifo: &'a mut Vec<(u32, u32)>,
    at: usize,
    later: &'a mut BinaryHeap<Reverse<(u32, u32)>>,
}

impl Queue<'_> {
    fn push(&mut self, label: u32, v: usize, now: u32) {
        if label == now + 1 {
            self.fifo.push((label, v as u32));
        } else if label != INF {
            self.later.push(Reverse((label, v as u32)));
        }
    }

    fn pop(&mut self) -> Option<(u32, usize)> {
        let front = self.fifo.get(self.at).copied();
        let (label, v) = match (front, self.later.peek()) {
            (Some(f), Some(&Reverse(h))) if h < f => self.later.pop().map(|r| r.0)?,
            (Some(f), _) => {
                self.at += 1;
                f
            }
            (None, _) => self.later.pop().map(|r| r.0)?,
        };
        Some((label, v as usize))
    }
}

impl Workspace {
    fn fit(&mut self, nodes: usize) {
        if self.slots.len() < nodes {
            self.slots.resize(nodes, Slot::default());
            // At most every node, each queued once per kind.
            self.set.reserve(nodes);
            self.fifo.reserve(2 * nodes);
        }
    }

    /// Grows the affected set of an insert (`up`) or a delete between
    /// `ends`, on the graph after the write and the labels from before
    /// it (see the module doc for the rules), and takes the passes of the
    /// set's edges out of `passes`. `counts` are the ends' own counts,
    /// `None` for an end whose label cannot move. Returns the adjacency
    /// entries visited.
    fn grow(
        &mut self,
        g: &Graph,
        ends: [u32; 2],
        counts: [Option<[u32; 2]>; 2],
        up: bool,
        passes: &mut Passes,
    ) -> u64 {
        for (v, count) in ends.into_iter().zip(counts) {
            if let Some(count) = count {
                self.see(v as usize, count);
                self.join_if_due(v as usize, up);
            }
        }
        let mut visits = 0;
        let mut at = 0;
        while let Some(&u) = self.set.get(at) {
            at += 1;
            let u = u as usize;
            self.slots[u].mark = WALKED;
            let tu = g.nodes[u].label;
            for (v, kind) in g.adj(u) {
                visits += 1;
                let tv = g.nodes[v].label;
                // The first end of an edge that the growth walks takes
                // its pass out.
                if self.slots[v].mark != WALKED {
                    passes.remove(tu.min(tv));
                }
                // Away from the written edge, labels of 1 and ∞ stay put
                // under an insert, and 1 under a delete. A delete moves
                // v only through neighbours labelled t(v) - 1 or more.
                let moves = tv > 1 && if up { tv != INF } else { tu >= floor(tv) };
                if self.slots[v].mark >= IN || !moves {
                    continue;
                }
                if self.slots[v].mark == OUT {
                    let (count, read) = g.counts(v, up);
                    visits += read;
                    self.see(v, count);
                }
                let count = &mut self.slots[v].count;
                count[kind] = if up { 0 } else { count[kind] - 1 };
                self.join_if_due(v, up);
            }
        }
        // The peel reuses the counts: hand them over zeroed.
        for &v in &self.seen {
            self.slots[v as usize].count = [0; 2];
        }
        visits
    }

    /// Marks `v` seen, with its growth counts.
    fn see(&mut self, v: usize, count: [u32; 2]) {
        self.slots[v].count = count;
        self.slots[v].mark = SEEN;
        self.seen.push(v as u32);
    }

    /// Lets seen node `v` join the set once its counts allow.
    fn join_if_due(&mut self, v: usize, up: bool) {
        if joins(self.slots[v].count, up) {
            self.slots[v].mark = IN;
            self.set.push(v as u32);
        }
    }

    /// Seeds the peel of the affected set: unlabels the members and
    /// counts, per member and kind, the neighbours in the set and the
    /// largest label outside it. Returns the adjacency entries visited.
    fn seed(&mut self, g: &mut Graph) -> u64 {
        let mut visits = 0;
        for &v in &self.set {
            g.nodes[v as usize].label = INF;
        }
        for &v in &self.set {
            let v = v as usize;
            for (u, k) in g.adj(v) {
                visits += 1;
                if self.slots[u].mark >= IN {
                    self.slots[v].count[k] += 1;
                } else {
                    let fixed = &mut self.slots[v].fixed[k];
                    *fixed = (*fixed).max(g.nodes[u].label);
                }
            }
        }
        visits
    }

    /// Labels the seeded affected set by the peel, every label outside it
    /// held fixed, and adds the passes of the set's edges to `passes`.
    /// Returns the adjacency entries visited.
    fn peel(&mut self, g: &mut Graph, passes: &mut Passes) -> u64 {
        let Workspace {
            slots,
            set,
            fifo,
            later,
            ..
        } = self;
        let mut visits = 0;
        let mut queue = Queue { fifo, at: 0, later };
        for &v in set.iter() {
            let s = slots[v as usize];
            for k in 0..2 {
                if s.count[k] == 0 {
                    queue.push(s.fixed[k].saturating_add(1), v as usize, 0);
                }
            }
        }
        while let Some((label, v)) = queue.pop() {
            if g.nodes[v].label != INF {
                continue;
            }
            g.nodes[v].label = label;
            for (u, k) in g.adj(v) {
                visits += 1;
                let tu = g.nodes[u].label;
                if slots[u].mark < IN {
                    passes.add(label.min(tu));
                } else if tu == INF {
                    // u takes a label no lower than this one, or none:
                    // the edge leaves now.
                    passes.add(label);
                    let s = &mut slots[u];
                    s.count[k] -= 1;
                    if s.count[k] == 0 {
                        queue.push(s.fixed[k].max(label).saturating_add(1), u, label);
                    }
                }
            }
        }
        fifo.clear();
        // The members left at ∞: their edges to the outside, and those
        // between two of them once (from the row).
        for &v in set.iter() {
            let v = v as usize;
            if g.nodes[v].label != INF {
                continue;
            }
            for (u, _) in g.adj(v) {
                visits += 1;
                let tu = g.nodes[u].label;
                if slots[u].mark < IN || (tu == INF && v < g.m) {
                    passes.add(tu);
                }
            }
        }
        visits
    }

    /// Zeroes what the growth and the peel left.
    fn finish(&mut self) {
        for &v in self.set.iter().chain(&self.seen) {
            self.slots[v as usize] = Slot::default();
        }
        self.set.clear();
        self.seen.clear();
    }
}

/// Flat edge-array encoding of the state matrix, with the same cell
/// semantics as [`StateMatrix`] (a cell is Empty, Request or Grant;
/// writing one kind clears the other), plus the pass labels that give
/// its terminal reduction report, bit-identical to the dense engine's
/// (see the module doc).
#[derive(Debug, Clone)]
pub struct SparseState {
    n: usize,
    g: Graph,
    passes: Passes,
    /// The labels and pass counts match the edges. Cleared by
    /// [`SparseState::mark_stale`], set again by the next cold peel.
    fresh: bool,
    /// Adjacency entries visited keeping the labels.
    visits: u64,
}

impl SparseState {
    /// Creates an empty `resources` × `processes` sparse state.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if together they do not
    /// fit `u32` node ids.
    pub fn new(resources: usize, processes: usize) -> Self {
        assert!(
            resources > 0 && processes > 0,
            "dimensions must be non-zero"
        );
        let nodes = resources
            .checked_add(processes)
            .filter(|&nodes| nodes < NIL as usize)
            .expect("dimensions must fit u32 node ids");
        // Every node of the empty graph lacks both kinds.
        let isolated = Node {
            head: NIL,
            label: 1,
        };
        SparseState {
            n: processes,
            g: Graph {
                m: resources,
                edges: Vec::new(),
                nodes: vec![isolated; nodes],
            },
            passes: Passes::default(),
            fresh: true,
            visits: 0,
        }
    }

    /// Number of resource rows.
    pub fn resources(&self) -> usize {
        self.g.m
    }

    /// Number of process columns.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Total live edges (requests + grants).
    pub fn live_edges(&self) -> u64 {
        self.g.edges.len() as u64
    }

    /// `true` if no edge is present.
    pub fn is_empty(&self) -> bool {
        self.g.edges.is_empty()
    }

    /// Adjacency entries visited so far keeping the pass labels (updates
    /// and cold peels): a cost count that holds on any host.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Reads cell `(q, p)`.
    pub fn cell(&self, q: usize, p: usize) -> Cell {
        assert!(q < self.g.m && p < self.n, "cell ({q},{p}) out of range");
        match self.g.find(q, (self.g.m + p) as u32) {
            NIL => Cell::Empty,
            i if self.g.edges[i as usize].grant => Cell::Grant,
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
    /// mirror current.
    pub fn apply_delta(&mut self, delta: RagDelta) {
        match delta {
            RagDelta::Request { p, q } => self.set_request(p.index(), q.index()),
            RagDelta::Grant { p, q } => self.set_grant(q.index(), p.index()),
            RagDelta::Clear { p, q } => self.clear(q.index(), p.index()),
        }
    }

    fn write(&mut self, s: usize, t: usize, kind: Cell) {
        assert!(
            s < self.g.m && t < self.n,
            "cell ({s},{t}) out of {}x{}",
            self.g.m,
            self.n
        );
        let ends = [s as u32, (self.g.m + t) as u32];
        let grant = kind == Cell::Grant;
        match (self.g.find(s, ends[1]), kind) {
            (NIL, Cell::Empty) => {}
            (NIL, _) => self.insert(ends, grant),
            (i, Cell::Empty) => self.delete(i),
            (i, _) if self.g.edges[i as usize].grant != grant => {
                self.delete(i);
                self.insert(ends, grant);
            }
            _ => {}
        }
    }

    fn insert(&mut self, ends: [u32; 2], grant: bool) {
        self.relabel(ends, true, |g| g.link(ends, grant));
    }

    fn delete(&mut self, i: u32) {
        let ends = self.g.edges[i as usize].ends;
        self.relabel(ends, false, |g| g.unlink(i));
    }

    /// Applies `edit`, one edge in (`up`) or out between `ends`, and
    /// re-peels its affected set — or only the edit while the labels are
    /// stale.
    fn relabel(&mut self, ends: [u32; 2], up: bool, edit: impl FnOnce(&mut Graph)) {
        if !self.fresh {
            edit(&mut self.g);
            return;
        }
        // The edge enters or leaves at its ends' labels before the write;
        // if an end moves, the growth takes that pass out again and the
        // peel puts the new one in.
        let [a, b] = ends.map(|v| self.g.nodes[v as usize].label);
        if up {
            self.passes.add(a.min(b));
        } else {
            self.passes.remove(a.min(b));
        }
        edit(&mut self.g);
        // The ends take their counts first, and those see the edge in or
        // out already. An insert cannot raise ∞, nor a delete lower 1.
        let mut read = 0;
        let counts = ends.map(|v| {
            let v = v as usize;
            (self.g.nodes[v].label != if up { INF } else { 1 }).then(|| {
                let (count, entries) = self.g.counts(v, up);
                read += entries;
                count
            })
        });
        self.visits += read;
        if !counts.into_iter().flatten().any(|count| joins(count, up)) {
            // Neither end can move, so no label does.
            self.passes.trim();
            return;
        }
        WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            ws.fit(self.g.nodes.len());
            self.visits += ws.grow(&self.g, ends, counts, up, &mut self.passes);
            self.visits += ws.seed(&mut self.g);
            self.visits += ws.peel(&mut self.g, &mut self.passes);
            self.passes.trim();
            ws.finish();
        });
    }

    /// Labels every node from scratch in O(nodes + edges) and recounts
    /// the passes: the cold path.
    fn peel_cold(&mut self) {
        if !self.fresh {
            // Stale writes leave old labels on nodes that lost every edge.
            for node in &mut self.g.nodes {
                node.label = 1;
            }
        }
        WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            ws.fit(self.g.nodes.len());
            // Every node with an edge joins the set, and the seed counts
            // its requests and grants off the edge array. The others lack
            // both kinds and keep label 1.
            let Graph { edges, nodes, .. } = &mut self.g;
            for e in edges.iter() {
                for v in e.ends {
                    let slot = &mut ws.slots[v as usize];
                    if slot.mark == OUT {
                        slot.mark = IN;
                        ws.set.push(v);
                        nodes[v as usize].label = INF;
                    }
                    slot.count[usize::from(e.grant)] += 1;
                }
            }
            self.visits += self.g.edges.len() as u64;
            self.passes.clear();
            self.visits += ws.peel(&mut self.g, &mut self.passes);
            ws.finish();
        });
        self.fresh = true;
    }

    /// Stops keeping the labels: later writes edit only the edges, and
    /// the next [`SparseState::reduce`] re-peels cold.
    pub fn mark_stale(&mut self) {
        self.fresh = false;
    }

    /// `true` unless the kept labels and pass counts differ from a cold
    /// peel's (stale labels claim nothing). The engine checks it before
    /// every label read in debug builds.
    pub fn labels_match_cold_peel(&self) -> bool {
        !self.fresh || {
            let mut cold = self.clone();
            cold.mark_stale();
            cold.reduce();
            cold.g.nodes == self.g.nodes && cold.passes == self.passes
        }
    }

    /// Removes every edge in O(edges), not O(m + n).
    pub fn clear_all(&mut self) {
        for e in &self.g.edges {
            for v in e.ends {
                self.g.nodes[v as usize] = Node {
                    head: NIL,
                    label: 1,
                };
            }
        }
        self.g.edges.clear();
        self.passes.clear();
    }

    /// Rebuilds from a RAG (the cold path's sparse twin): the edges go
    /// in without label updates, then one cold peel labels them.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit these dimensions.
    pub fn rebuild_from_rag(&mut self, rag: &Rag) {
        assert!(
            rag.resources() <= self.g.m && rag.processes() <= self.n,
            "RAG {}x{} does not fit sparse state {}x{}",
            rag.resources(),
            rag.processes(),
            self.g.m,
            self.n
        );
        self.clear_all();
        let m = self.g.m;
        let col = |p: ProcId| (m + p.index()) as u32;
        for qi in 0..rag.resources() {
            let q = ResId(qi as u16);
            // A RAG never holds a request and a grant in one cell.
            if let Some(p) = rag.owner(q) {
                self.g.link([qi as u32, col(p)], true);
            }
            for &p in rag.requesters(q) {
                self.g.link([qi as u32, col(p)], false);
            }
        }
        self.relabel_all();
    }

    /// Rebuilds from a dense matrix (used when the hybrid engine turns
    /// the sparse mirror on mid-life), peeling once like
    /// [`SparseState::rebuild_from_rag`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not fit these dimensions.
    pub fn rebuild_from_matrix(&mut self, mat: &StateMatrix) {
        assert!(
            mat.resources() <= self.g.m && mat.processes() <= self.n,
            "matrix {}x{} does not fit sparse state {}x{}",
            mat.resources(),
            mat.processes(),
            self.g.m,
            self.n
        );
        self.clear_all();
        for s in 0..mat.resources() {
            for (w, (&rw, &gw)) in mat.row_r(s).iter().zip(mat.row_g(s)).enumerate() {
                for (mut bits, grant) in [(rw, false), (gw, true)] {
                    while bits != 0 {
                        let t = w * 64 + bits.trailing_zeros() as usize;
                        self.g.link([s as u32, (self.g.m + t) as u32], grant);
                        bits &= bits - 1;
                    }
                }
            }
        }
        self.relabel_all();
    }

    /// After a bulk write: one cold peel, unless the labels are stale
    /// anyway.
    fn relabel_all(&mut self) {
        if self.fresh {
            self.peel_cold();
        }
    }

    /// The terminal reduction report: a read of the kept labels, after a
    /// cold peel if they went stale. The same report the dense
    /// [`crate::reduction::reduce_core`] gives on the equivalent matrix —
    /// same `iterations`, same `steps`, same completeness.
    pub fn reduce(&mut self) -> ReductionReport {
        if !self.fresh {
            self.peel_cold();
        }
        self.passes.report()
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
        assert!(!cfg.covers_shape(50, 50), "paper scale stays dense");
        assert!(!cfg.covers_shape(16, 16), "16² sessions keep no mirror");
        assert!(cfg.covers_shape(64, 64));
        assert!(cfg.covers_shape(512, 512));
        assert!(cfg.covers_shape(1024, 1024));
        // The svcbench `detect_mix` populations: 512² at ~416 edges and
        // 1024² at ~1,200 go sparse.
        assert!(cfg.prefers_sparse(512, 512, 416));
        assert!(cfg.prefers_sparse(1024, 1024, 1_200));
        // At 1024²: 12.5 × 1024 rows × (16 words + 4) = 256,000 edges.
        assert!(cfg.prefers_sparse(1024, 1024, 209_715));
        assert!(cfg.prefers_sparse(1024, 1024, 256_000));
        assert!(!cfg.prefers_sparse(1024, 1024, 256_001));
        // Tall shapes are costed column-major: 64 × (64 + 4), not
        // 4096 × (1 + 4), so 12.5 × 4,352 = 54,400 edges.
        assert!(cfg.prefers_sparse(4096, 64, 54_400));
        assert!(!cfg.prefers_sparse(4096, 64, 54_401));
        assert_eq!(
            cfg.prefers_sparse(4096, 64, 4_000),
            cfg.prefers_sparse(64, 4096, 4_000)
        );
        assert!(SparseConfig::always().prefers_sparse(1, 1, u64::MAX));
        assert!(!SparseConfig::disabled().prefers_sparse(usize::MAX - 1, 1, 0));
    }

    /// Panics unless `sp`'s kept labels and pass counts equal a cold
    /// peel's, naming the first node that differs.
    fn assert_labels_exact(sp: &SparseState, at: &dyn Fn() -> String) {
        assert!(sp.fresh, "{}: labels stale", at());
        let mut cold = sp.clone();
        cold.mark_stale();
        cold.reduce();
        let label = |s: &SparseState, v: usize| s.g.nodes[v].label;
        if let Some(v) = (0..sp.g.nodes.len()).find(|&v| label(&cold, v) != label(sp, v)) {
            panic!(
                "{}: node {v} kept label {} but a cold peel gives {}",
                at(),
                label(sp, v),
                label(&cold, v)
            );
        }
        assert_eq!(sp.passes, cold.passes, "{}: pass counts", at());
    }

    /// A random RAG of the given shape, for mid-stream rebuilds.
    fn random_rag(rng: &mut Lcg, m: usize, n: usize, ops: usize) -> Rag {
        let mut rag = Rag::new(m, n);
        for _ in 0..ops {
            let p = ProcId(rng.below(n as u64) as u16);
            let q = ResId(rng.below(m as u64) as u16);
            let _ = if rng.below(3) == 0 {
                rag.add_grant(q, p)
            } else {
                rag.add_request(p, q)
            };
        }
        rag
    }

    /// Drives one state through `steps` random cell writes inside the
    /// window of rows `rows.0..rows.0 + rows.1` and columns likewise:
    /// grants (so rows may hold several), requests, clears (often of
    /// empty cells) and kind flips of live edges, with a bulk write every
    /// 61st step (`clear_all`, either rebuild, or a stale spell). After
    /// every write the kept labels must equal a cold peel, and where the
    /// shape fits a [`StateMatrix`] the report must equal the dense
    /// reduction of the twin matrix the same writes went to.
    fn label_stream(
        seed: u64,
        (m, n): (usize, usize),
        rows: (usize, usize),
        cols: (usize, usize),
        steps: usize,
    ) {
        let twin_fits = m <= 1 << 16 && n <= 1 << 16;
        let mut rng = Lcg::new(seed);
        let mut sp = SparseState::new(m, n);
        let mut mat = twin_fits.then(|| StateMatrix::new(m, n));
        let cell = |rng: &mut Lcg| {
            let s = rows.0 + rng.below(rows.1 as u64) as usize;
            let t = cols.0 + rng.below(cols.1 as u64) as usize;
            (s, t)
        };
        for step in 0..steps {
            let at = || format!("{m}x{n} seed {seed:#x} step {step}");
            if step % 61 == 60 {
                match rng.below(4) {
                    0 => {
                        sp.clear_all();
                        mat = twin_fits.then(|| StateMatrix::new(m, n));
                    }
                    1 if twin_fits => {
                        let ops = rng.below(4 * (m + n) as u64) as usize;
                        let rag = random_rag(&mut rng, m, n, ops);
                        sp.rebuild_from_rag(&rag);
                        mat = Some(StateMatrix::from_rag(&rag));
                    }
                    2 if twin_fits => {
                        let (fresh, _) = random_pair(&mut rng, m, n, 3 * (m + n));
                        sp.rebuild_from_matrix(&fresh);
                        mat = Some(fresh);
                    }
                    _ => {
                        // A stale spell: writes skip the labels, and the
                        // next reduce peels them cold.
                        sp.mark_stale();
                        for _ in 0..5 {
                            let (s, t) = cell(&mut rng);
                            sp.set_request(t, s);
                            if let Some(mat) = mat.as_mut() {
                                mat.set_request(ProcId(t as u16), ResId(s as u16));
                            }
                        }
                        sp.reduce();
                    }
                }
            } else {
                let (s, t) = if rng.below(5) == 0 && !sp.is_empty() {
                    // Flip a live edge's kind.
                    let e = sp.g.edges[rng.below(sp.live_edges()) as usize];
                    (e.ends[0] as usize, e.ends[1] as usize - m)
                } else {
                    cell(&mut rng)
                };
                let kind = match sp.cell(s, t) {
                    Cell::Grant if rng.below(2) == 0 => Cell::Request,
                    Cell::Request if rng.below(2) == 0 => Cell::Grant,
                    _ => [Cell::Grant, Cell::Request, Cell::Request, Cell::Empty]
                        [rng.below(4) as usize],
                };
                sp.write(s, t, kind);
                if let Some(mat) = mat.as_mut() {
                    let (q, p) = (ResId(s as u16), ProcId(t as u16));
                    match kind {
                        Cell::Grant => mat.set_grant(q, p),
                        Cell::Request => mat.set_request(p, q),
                        Cell::Empty => mat.clear(q, p),
                    }
                }
            }
            assert_labels_exact(&sp, &at);
            if let Some(mat) = &mat {
                assert_eq!(mat.edge_count() as u64, sp.live_edges(), "{}", at());
                let dense = terminal_reduction(&mut mat.clone());
                assert_eq!(sp.reduce(), dense, "{}: report vs dense reduction", at());
            }
        }
    }

    #[test]
    fn kept_labels_match_a_cold_peel_after_every_write() {
        let shapes = [
            (1, 1),
            (1, 4),
            (3, 2),
            (4, 4),
            (5, 5),
            (7, 3),
            (12, 12),
            (40, 30),
        ];
        for (i, (m, n)) in shapes.into_iter().enumerate() {
            for seed in 0..3u64 {
                label_stream(
                    0x1AB3 ^ (i as u64) << 8 ^ seed,
                    (m, n),
                    (0, m),
                    (0, n),
                    1_200,
                );
            }
        }
        // Ids beyond u16, straddling 65,535 on both axes; no dense twin.
        label_stream(0xB16, (70_000, 70_000), (65_530, 10), (65_531, 9), 300);
    }

    /// One session-shaped RAG stream mirrored into a sparse state: random
    /// grants, requests and releases held near `held` grants and `waits`
    /// requests, plus `WouldDeadlock`-style insert/delete request pairs.
    fn service_stream(seed: u64, dim: usize, held: usize, waits: usize, writes: usize) {
        let mut rng = Lcg::new(seed);
        let mut rag = Rag::new(dim, dim);
        let mut sp = SparseState::new(dim, dim);
        // Writes so far, and how many left the state deadlocked.
        let (mut seen, mut grants) = ([0usize; 2], 0usize);
        let check = |sp: &SparseState, rag: &Rag, seen: &mut [usize; 2]| {
            seen[0] += 1;
            seen[1] += usize::from(sp.passes.stuck > 0);
            let at = || format!("{dim}² seed {seed:#x} write {}", seen[0]);
            assert_labels_exact(sp, &at);
            if seen[0].is_multiple_of(256) {
                let dense = terminal_reduction(&mut StateMatrix::from_rag(rag));
                assert_eq!(sp.passes.report(), dense, "{}", at());
            }
        };
        while seen[0] < writes {
            let p = ProcId(rng.below(dim as u64) as u16);
            let q = ResId(rng.below(dim as u64) as u16);
            match rng.below(8) {
                // Grant a free resource (consuming any request of the
                // grantee: a kind flip), or release a held one.
                0 | 1 => match rag.owner(q) {
                    None if grants < held => {
                        rag.add_grant(q, p).expect("free");
                        grants += 1;
                        sp.set_grant(q.index(), p.index());
                        check(&sp, &rag, &mut seen);
                    }
                    None => {}
                    Some(owner) => {
                        rag.remove_grant(q, owner).expect("held");
                        grants -= 1;
                        sp.clear(q.index(), owner.index());
                        check(&sp, &rag, &mut seen);
                    }
                },
                2..=4 if sp.live_edges() < (held + waits) as u64 => {
                    if rag.add_request(p, q).is_ok() {
                        sp.set_request(p.index(), q.index());
                        check(&sp, &rag, &mut seen);
                    }
                }
                2..=5 => {
                    if let Some(&r) = rag.requesters(q).first() {
                        assert!(rag.remove_request(r, q));
                        sp.clear(q.index(), r.index());
                        check(&sp, &rag, &mut seen);
                    }
                }
                _ => {
                    // A WouldDeadlock query: admit, read, roll back.
                    if rag.add_request(p, q).is_ok() {
                        sp.set_request(p.index(), q.index());
                        check(&sp, &rag, &mut seen);
                        assert!(rag.remove_request(p, q));
                        sp.clear(q.index(), p.index());
                        check(&sp, &rag, &mut seen);
                    }
                }
            }
        }
        assert!(
            seen[1] > 0 && seen[1] < seen[0],
            "{dim}² seed {seed:#x}: the stream must visit deadlocked and live states ({seen:?})"
        );
    }

    /// The release-only long stream (a CI step): about 200k writes on
    /// `detect_mix`-shaped sessions, 1024² near 600 grants and 600
    /// requests and 512² near 256 and 160.
    #[test]
    #[ignore = "release-only long stream: cargo test --release -p deltaos-core --lib -- --ignored"]
    fn kept_labels_match_a_cold_peel_at_service_scale() {
        service_stream(0x1024, 1024, 600, 600, 100_000);
        service_stream(0x512, 512, 256, 160, 100_000);
    }

    #[test]
    fn service_shaped_stream_keeps_exact_labels() {
        service_stream(0x5E55, 128, 64, 64, 3_000);
    }

    /// The padded peel chain of `detect_sparse`'s deep grid cells on
    /// `m` × `n` with `target` edges (same generator, same seed).
    fn deep_chain(m: usize, n: usize, target: usize) -> Rag {
        let mut rng = Lcg::new(((m * n) as u64) << 20 ^ (m as u64) << 8 ^ target as u64);
        let mut rag = Rag::new(m, n);
        let k = m.min(n).min(target.div_ceil(2)).max(1);
        for s in 0..k {
            rag.add_grant(ResId(s as u16), ProcId(s as u16)).unwrap();
            if s + 1 < k {
                rag.add_request(ProcId(s as u16 + 1), ResId(s as u16))
                    .unwrap();
            }
        }
        // `Rag::edge_count` scans every row; count here instead.
        let mut edges = 2 * k - 1;
        while edges < target {
            let q = ResId(rng.below(m as u64) as u16);
            let Some(owner) = rag.owner(q) else {
                let o = rng.below(k as u64) as u16;
                rag.add_grant(q, ProcId(o)).unwrap();
                edges += 1;
                continue;
            };
            if owner.index() + 1 < n {
                let span = (n - owner.index() - 1) as u64;
                let p = owner.index() + 1 + rng.below(span) as usize;
                edges += usize::from(rag.add_request(ProcId(p as u16), q).is_ok());
            }
        }
        rag
    }

    /// Adjacency entries per node or edge that a cold peel may visit: it
    /// reads each edge once to count and walks it from both ends to label.
    const COLD_VISITS: u64 = 3;
    /// The same for one write: the growth walks the set's edges and its
    /// neighbours' edges, and the peel walks the set's edges twice.
    const WRITE_VISITS: u64 = 8;

    #[test]
    fn deep_chain_peels_in_linear_visits() {
        // The 4096² chain at 8,192 and 167,772 edges, where running the
        // passes one by one visits O(chain²) edges. The expected reports
        // come from such a pass-by-pass reduction: on the base chain,
        // with the bottom grant R0 → P0 removed, and with P0 → R4095
        // closing a cycle through the whole chain.
        let (m, n) = (4096, 4096);
        let report = |iterations, complete| ReductionReport {
            iterations,
            steps: iterations + 1,
            complete,
        };
        for target in [8_192, 167_772] {
            let rag = deep_chain(m, n, target);
            assert_eq!(rag.edge_count(), target);
            let items = (m + n + target) as u64;
            let mut sp = SparseState::new(m, n);
            sp.rebuild_from_rag(&rag);
            let cold = sp.visits();
            let bound = COLD_VISITS * items;
            assert!(
                cold <= bound,
                "{target}: cold peel visited {cold} > {bound}"
            );
            assert_eq!(sp.reduce(), report(4096, true), "{target}: base");
            // One toggle at each end of the chain. Each write moves the
            // label of every chain node, in O(nodes + edges) visits.
            let writes = [
                ("-grant R0", (0, 0, Cell::Empty), report(4095, true)),
                ("+grant R0", (0, 0, Cell::Grant), report(4096, true)),
                ("+request P0", (4095, 0, Cell::Request), report(0, false)),
                ("-request P0", (4095, 0, Cell::Empty), report(4096, true)),
            ];
            for (name, (row, col, cell), want) in writes {
                let before = sp.visits();
                sp.write(row, col, cell);
                let spent = sp.visits() - before;
                let bound = WRITE_VISITS * items;
                assert!(spent <= bound, "{target} {name}: {spent} visits > {bound}");
                assert_eq!(sp.reduce(), want, "{target} {name}");
                assert!(sp.labels_match_cold_peel(), "{target} {name}");
            }
        }
    }
}

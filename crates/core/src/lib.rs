//! # deltaos-core — deadlock detection and avoidance for MPSoC
//!
//! The primary contribution of Lee & Mooney's DATE 2003 paper
//! *"Hardware/Software Partitioning of Operating Systems: Focus on
//! Deadlock Detection and Avoidance"*, reimplemented as a standalone,
//! dependency-free Rust library:
//!
//! * [`Rag`] — the Resource Allocation Graph system model with the
//!   paper's single-unit / release-by-holder invariants, plus a DFS cycle
//!   oracle.
//! * [`matrix::StateMatrix`] — the bit-plane matrix encoding of
//!   Definition 6, packed so reductions run word-parallel like the DDU's
//!   cell array.
//! * [`reduction`] — the terminal reduction sequence `ξ` (Algorithm 1).
//! * [`engine::DetectEngine`] — the incremental, allocation-free
//!   detection engine: a persistent matrix mirror kept in sync with the
//!   RAG by delta replay, a worklist reduction over reusable scratch and
//!   an epoch-keyed result cache. All functional detection entry points
//!   route through it.
//! * [`sparse::SparseState`] — the flat edge-array twin of the matrix
//!   for large, mostly-empty graphs. It keeps each row's and column's
//!   reduction pass across edits, re-peeling only the nodes an edit can
//!   move, so a probe reads a bit-identical reduction report in O(1).
//!   [`engine::DetectEngine`] dispatches between dense and sparse per
//!   probe via [`sparse::SparseConfig`].
//! * [`pdda`] — the Parallel Deadlock Detection Algorithm (Algorithm 2),
//!   in both the word-parallel form and the instruction-metered
//!   *software* form the paper benchmarks as RTOS1.
//! * [`ddu::Ddu`] — the Deadlock Detection hardware Unit, cycle model.
//! * [`avoid::Avoider`] — the Deadlock Avoidance Algorithm (Algorithm 3)
//!   with R-dl/G-dl classification, priority-directed give-up and
//!   livelock resolution.
//! * [`daa::SwDaa`] / [`dau::Dau`] — the software (RTOS3) and hardware
//!   (RTOS4) packagings of the avoider, each with its native cost
//!   accounting.
//! * [`cost`] — the instruction-level cost meter that makes software
//!   run-times emerge from real execution.
//! * [`recovery`] — detection's companion: irreducible-core extraction
//!   and lowest-priority victim selection (Section 3.3.1's
//!   detect-and-recover).
//! * [`worst_case`] — adversarial and exhaustive state generators for the
//!   Table 1 step-count study.
//!
//! # Quickstart
//!
//! ```
//! use deltaos_core::dau::{Command, Dau};
//! use deltaos_core::{Priority, ProcId, ResId};
//!
//! # fn main() -> Result<(), deltaos_core::CoreError> {
//! // A 5-process / 5-resource MPSoC with a hardware avoidance unit.
//! let mut dau = Dau::new(5, 5);
//! for i in 0..5 {
//!     dau.set_priority(ProcId(i), Priority::new(i as u8 + 1));
//! }
//! // p1 takes q1; p2 requests q1 and is queued, deadlock-free.
//! let r = dau.execute(Command::Request { process: ProcId(0), resource: ResId(0) })?;
//! assert!(r.status.successful);
//! let r = dau.execute(Command::Request { process: ProcId(1), resource: ResId(0) })?;
//! assert!(r.status.pending);
//! # Ok(())
//! # }
//! ```

pub mod avoid;
pub mod baselines;
pub mod cost;
pub mod daa;
pub mod dau;
pub mod ddu;
pub mod engine;
mod error;
mod ids;
pub mod matrix;
pub mod par;
pub mod pdda;
mod rag;
pub mod recovery;
pub mod reduction;
pub mod sparse;
pub mod worst_case;

pub use error::CoreError;
pub use ids::{Priority, ProcId, ResId};
pub use rag::{Rag, RagDelta};

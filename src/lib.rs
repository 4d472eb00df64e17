//! # deltaos — hardware/software partitioning of operating systems
//!
//! A full-system Rust reproduction of Lee & Mooney, *"Hardware/Software
//! Partitioning of Operating Systems: Focus on Deadlock Detection and
//! Avoidance"* (DATE 2003).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`core`] — the paper's primary contribution: the Parallel Deadlock
//!   Detection Algorithm (PDDA), the Deadlock Avoidance Algorithm (DAA) and
//!   their hardware implementations, the DDU and DAU.
//! * [`sim`] — deterministic discrete-event simulation kernel.
//! * [`mpsoc`] — the base MPSoC platform model: bus + arbiter, memory
//!   controller, L1 caches, processing elements and the five hardware
//!   resources (VI, MPEG, DSP, IDCT, WI).
//! * [`hwunits`] — the prior-work hardware RTOS components: the SoC Lock
//!   Cache (SoCLC) and the SoC Dynamic Memory Management Unit (SoCDMMU).
//! * [`rtos`] — an Atalanta-like shared-memory multiprocessor RTOS model.
//! * [`apps`] — the paper's application workloads.
//! * [`rtl`] — parameterized Verilog generators and the NAND2 area
//!   estimator.
//! * [`service`] — sharded multi-session deadlock detection/avoidance
//!   service: session-per-RAG incremental engines run inline on pinned
//!   per-core loops, served over a length-prefixed TCP protocol and to
//!   in-process clients.
//! * [`cluster`] — the multi-process layer over [`service`]: a
//!   consistent-hash front-end routing sessions across N service
//!   processes, live session migration, and failover onto WAL-streaming
//!   replicas.
//! * [`framework`] — the δ framework: configuration, RTOS1–RTOS7 presets,
//!   system generation and design-space exploration.
//!
//! # Quickstart
//!
//! Detect a deadlock with PDDA and avoid it with the DAU:
//!
//! ```
//! use deltaos::core::{pdda, Priority, ProcId, Rag, ResId};
//!
//! let mut rag = Rag::new(2, 2);
//! rag.add_grant(ResId(0), ProcId(0)).unwrap();
//! rag.add_grant(ResId(1), ProcId(1)).unwrap();
//! rag.add_request(ProcId(0), ResId(1)).unwrap();
//! rag.add_request(ProcId(1), ResId(0)).unwrap();
//! let outcome = pdda::detect(&rag);
//! assert!(outcome.deadlock);
//! # let _ = Priority::new(1);
//! ```

pub use deltaos_apps as apps;
pub use deltaos_cluster as cluster;
pub use deltaos_core as core;
pub use deltaos_framework as framework;
pub use deltaos_hwunits as hwunits;
pub use deltaos_mpsoc as mpsoc;
pub use deltaos_rtl as rtl;
pub use deltaos_rtos as rtos;
pub use deltaos_service as service;
pub use deltaos_sim as sim;

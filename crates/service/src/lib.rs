//! # deltaos-service — sharded multi-session deadlock service
//!
//! The paper's DDU/DAU is a *shared* unit: one hardware block arbitrates
//! deadlock questions for every PE in the SoC. This crate is the
//! software analogue at fleet scale — one service owning many
//! independent RAG **sessions**, sharded across per-core loops, each
//! session backed by its own persistent incremental
//! [`DetectEngine`](deltaos_core::engine::DetectEngine) so the PR-1
//! epoch/journal/result-cache machinery pays off across batches.
//!
//! Layering:
//!
//! * [`session`] — one RAG + engine, applying [`proto::Event`]s in order.
//! * [`broker`] — per-session deadlock-*avoidance* sessions: clients
//!   acquire/release through the wire and the Algorithm-3 avoider decides,
//!   deferring (blocking) conflicting acquires until a release frees them.
//! * [`shard`] (unix) — one shard's deadlock unit: session and broker
//!   tables, the parked-waiter table, admission control, per-shard
//!   [`deltaos_sim::Stats`], and the typed [`ServiceError`].
//! * [`durable`] — opt-in persistence: per-shard WAL + checkpoints via
//!   `deltaos-store`, bit-identical recovery.
//! * [`core_runtime`] (unix) — the server and shard executor: N pinned
//!   shared-nothing loops owning their shards outright and executing
//!   them inline, with connection migration (fd hand-off) to the owning
//!   loop, self-pipe-woken cross-core forwarding, the group-commit
//!   scheduler for pipelined WALs, and the in-process [`Client`] handle.
//! * [`replica`] (unix) — the WAL-streaming follower: a tailer pulling
//!   wire `Subscribe` segments into a replica-mode runtime, heartbeat
//!   death detection and epoch-fenced promotion.
//! * [`proto`] — the length-prefixed binary wire protocol with a total,
//!   panic-free decoder.
//! * [`tcp`] — a blocking `std::net` client over [`proto`].
//!
//! The runtime, its [`Client`] and the [`ReplicaTailer`] need `poll(2)`
//! and Unix sockets, so they build only on unix targets; the protocol,
//! sessions, broker, durability layer and [`TcpClient`] build
//! everywhere.
//!
//! ```
//! # #[cfg(unix)] {
//! use deltaos_service::{CoreConfig, CoreRuntime, Event};
//! use deltaos_core::{ProcId, ResId};
//!
//! let runtime = CoreRuntime::bind("127.0.0.1:0", CoreConfig::default()).unwrap();
//! let client = runtime.client();
//! let sid = client.open(8, 8).unwrap();
//! client
//!     .batch(
//!         sid,
//!         vec![
//!             Event::Grant { q: ResId(0), p: ProcId(0) },
//!             Event::WouldDeadlock { p: ProcId(1), q: ResId(0) },
//!         ],
//!     )
//!     .unwrap();
//! runtime.stop();
//! # }
//! ```

pub mod broker;
#[cfg(unix)]
pub mod core_runtime;
// Only the unix runtime drives the shard-side recovery helpers.
#[cfg_attr(not(unix), allow(dead_code))]
pub mod durable;
pub mod proto;
#[cfg(unix)]
pub mod replica;
pub mod session;
#[cfg(unix)]
pub mod shard;
pub mod tcp;
#[cfg(unix)]
mod transport;

pub use broker::{Broker, BrokerCounters};
#[cfg(unix)]
pub use core_runtime::{Client, CoreConfig, CoreRuntime, PendingBatch};
pub use deltaos_store::FsyncPolicy;
pub use durable::{DurabilityConfig, RecoveryInfo};
pub use proto::{
    AvoidanceMode, CoreStats, ErrorCode, Event, EventResult, FrontendStats, RejectReason,
    ReplStatus, Request, Response, SessionId, ShardStats, WireError, MAX_BATCH, MAX_FRAME,
};
#[cfg(unix)]
pub use replica::{ReplicaTailer, TailerConfig, TailerReport};
pub use session::{BatchTally, Session};
#[cfg(unix)]
pub use shard::ServiceError;
pub use tcp::TcpClient;

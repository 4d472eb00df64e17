//! Durability glue between the shards and `deltaos-store`.
//!
//! With a [`DurabilityConfig`] set on the runtime's `CoreConfig`, every
//! shard owns a [`ShardStore`]: state-mutating jobs (`Open`/`Batch`/`Close`/
//! `Restore` and the broker commands) are appended to the shard's WAL
//! and committed **before** they are applied or replied to —
//! write-ahead in the literal sense, so anything a client saw
//! acknowledged is re-creatable. On startup the owning loop loads the
//! shard's latest checkpoint, replays the surviving WAL suffix through
//! [`apply_wal_op`], whose helpers are the ones the live ops apply
//! through, and then serves — which is why recovered sessions are
//! *bit-identical* to an uninterrupted run: same code, same order, same
//! counters.
//!
//! Probe-only batches are logged too. Probes mutate no RAG edges, but
//! they advance engine counters (`probes`, `cache_hits`, `reductions`)
//! that the service reports through `sim::Stats`; skipping them would
//! make recovery observably different.
//!
//! Durability I/O failures panic the owning core loop. The alternative —
//! acknowledging work that was not logged — silently breaks the
//! recovery contract; fail-stop is the honest behavior for a WAL.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use deltaos_core::par::{ParConfig, WorkerPool};
use deltaos_core::{ProcId, ResId};
use deltaos_store::{
    BrokerWalOp, FsyncPolicy, SessionSnapshot, ShardCheckpoint, ShardCounters, ShardStore,
    StoreError, WalOp,
};

use crate::broker::Broker;
use crate::proto::{Event, EventResult, Response};
use crate::session::Session;

/// Durability settings carried in the runtime's `CoreConfig`. Absent
/// (`None`), the service runs memory-only — the store is default-off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Store directory (created if missing). Holds `store.meta`, one
    /// `wal-<shard>.log` and one `checkpoint-<shard>.snap` per shard.
    pub dir: PathBuf,
    /// When the WAL fsyncs relative to commits. With
    /// [`FsyncPolicy::Pipelined`] the front-end runs a per-core group-
    /// commit scheduler: durable replies are withheld until their LSN
    /// is flushed, amortizing one fsync over every session the core
    /// serves.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint (and truncate the WAL) after this many logged
    /// records per shard. Bounds both disk growth and recovery time.
    pub checkpoint_every_records: u64,
    /// Write a final checkpoint during graceful shutdown, so the next
    /// start recovers from the checkpoint alone with an empty WAL.
    pub checkpoint_on_shutdown: bool,
    /// Durable-on-follower acks: withhold every logged op's reply until
    /// a subscribed follower has acknowledged the op's LSN durable on
    /// *its* disk (in addition to the local fsync frontier). An
    /// acknowledged op then survives the loss of the whole primary, not
    /// just a primary crash — the contract the failover-promotion path
    /// relies on. Off by default; meaningless without a follower
    /// polling `Subscribe`.
    pub repl_ack: bool,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the balanced defaults: pipelined
    /// group commit (a flush at 32 unsynced records or 500 µs after the
    /// oldest withheld reply, so a mutation is acknowledged only once it
    /// is fsynced), checkpoint every 4096 records, final checkpoint on
    /// shutdown, no follower-ack gating.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Pipelined {
                max_records: 32,
                deadline: std::time::Duration::from_micros(500),
            },
            checkpoint_every_records: 4096,
            checkpoint_on_shutdown: true,
            repl_ack: false,
        }
    }
}

/// What one shard recovered at startup, surfaced through
/// `CoreRuntime::recovery` and as `store.*`
/// counters in shard stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Shard index.
    pub shard: usize,
    /// Sessions restored from the checkpoint.
    pub checkpoint_sessions: u64,
    /// WAL records replayed after the checkpoint.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated from the WAL.
    pub torn_bytes: u64,
    /// Highest recovered WAL sequence number.
    pub last_seq: u64,
    /// Lowest session id this shard has never used (0 when it never
    /// opened one) — the service seeds its id allocator at the maximum
    /// across shards so live ids are never reissued.
    pub next_session: u64,
    /// Sessions live after recovery.
    pub live_sessions: u64,
}

/// One shard's persistence handle: the open [`ShardStore`] plus
/// the knobs and recovery info the shard needs at serve time.
pub(crate) struct ShardPersist {
    pub store: ShardStore,
    pub checkpoint_every: u64,
    pub checkpoint_on_shutdown: bool,
    pub info: RecoveryInfo,
}

impl ShardPersist {
    /// Appends `op` and commits it per the fsync policy, returning its
    /// WAL sequence number (the op's commit LSN). Called before the op
    /// is applied; a failure here panics (fail-stop, see module docs).
    ///
    /// Under [`FsyncPolicy::Pipelined`] the returned LSN is *not yet
    /// durable* — the caller withholds the client reply until a group
    /// flush advances [`ShardPersist::durable_seq`] past it.
    pub fn log(&mut self, op: &WalOp) -> u64 {
        let lsn = self.store.append(op);
        self.store
            .commit()
            .unwrap_or_else(|e| panic!("WAL commit failed: {e}"));
        lsn
    }

    /// Group flush: forces staged + written records to the device and
    /// returns the new durable frontier. The pipelined scheduler's one
    /// fsync per batch; a no-op fast path when nothing is unsynced.
    pub fn sync(&mut self) -> u64 {
        if self.store.unsynced_records() > 0 {
            self.store
                .sync()
                .unwrap_or_else(|e| panic!("WAL sync failed: {e}"));
        }
        self.store.durable_seq()
    }

    /// Highest WAL sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.store.durable_seq()
    }

    /// The pipelined group-commit parameters (`None` under
    /// [`FsyncPolicy::Os`], which never fsyncs).
    pub fn pipeline(&self) -> Option<(u32, std::time::Duration)> {
        match self.store.policy() {
            FsyncPolicy::Pipelined {
                max_records,
                deadline,
            } => Some((max_records, deadline)),
            FsyncPolicy::Os => None,
        }
    }

    /// Writes a checkpoint if `checkpoint_every` records accumulated
    /// since the last one (`force` skips the threshold — shutdown path).
    /// Returns whether it wrote one.
    pub fn maybe_checkpoint(&mut self, shard: usize, state: &ShardState, force: bool) -> bool {
        if !force && self.store.records_since_checkpoint() < self.checkpoint_every {
            return false;
        }
        let mut snaps: Vec<SessionSnapshot> = state
            .sessions
            .iter()
            .map(|(&id, sess)| sess.snapshot(id))
            .chain(state.brokers.iter().map(|(&id, b)| b.snapshot(id)))
            .collect();
        // HashMap iteration order is arbitrary; checkpoint bytes should
        // not be.
        snaps.sort_by_key(|s| s.session);
        let ckpt = ShardCheckpoint {
            shard: shard as u32,
            last_seq: 0, // overwritten by ShardStore::checkpoint
            next_session: state.next_session,
            epoch: 0, // overwritten by ShardStore::checkpoint
            counters: state.counters,
            sessions: snaps,
        };
        self.store
            .checkpoint(ckpt)
            .unwrap_or_else(|e| panic!("checkpoint failed: {e}"));
        true
    }
}

/// Result of [`open_shard`]: the persistence handle plus the recovered
/// state the shard starts from.
pub(crate) struct RecoveredShard {
    pub persist: ShardPersist,
    pub state: ShardState,
    /// The replayed WAL suffix as `(seq, epoch, encoded op)` — seeds the
    /// shard's replication buffer so a follower can resume tailing from
    /// any record the checkpoint has not yet swallowed.
    pub wal_tail: Vec<(u64, u64, Vec<u8>)>,
}

/// Engine-construction context threaded through WAL apply: the shard's
/// shared reduction pool and its parallelism gate, which travel
/// together into every `Session`/`Broker` (re)construction.
pub(crate) struct EngineCtx {
    pub pool: Option<Arc<WorkerPool>>,
    pub par: ParConfig,
}

/// Everything the WAL reproduces about one shard: its session and
/// broker tables, its counters and its session-id floor. Live ops and
/// [`apply_wal_op`] change it only through the helpers below, which is
/// why recovery and replica apply are a replay of the live code.
#[derive(Default)]
pub(crate) struct ShardState {
    pub sessions: HashMap<u64, Session>,
    pub brokers: HashMap<u64, Broker>,
    pub counters: ShardCounters,
    /// Lowest session id this shard has never used.
    pub next_session: u64,
}

impl ShardState {
    /// Sessions and brokers open on the shard.
    pub fn live(&self) -> usize {
        self.sessions.len() + self.brokers.len()
    }

    /// Counts a newly opened session `id`.
    fn opened(&mut self, id: u64) {
        self.counters.sessions_opened += 1;
        self.next_session = self.next_session.max(id + 1);
    }

    /// Rebuilds the session `snap` holds under `snap.session` — a broker
    /// when the snapshot has a broker section, so the blob decides the
    /// kind — and counts the open unless `counted` already did (a
    /// checkpoint's counters count their sessions).
    pub fn restore(
        &mut self,
        snap: &SessionSnapshot,
        engine: &EngineCtx,
        counted: bool,
    ) -> Result<(), StoreError> {
        if snap.broker.is_some() {
            let b = Broker::restore_from(snap, engine.pool.clone(), engine.par)?;
            self.brokers.insert(snap.session, b);
        } else {
            let sess = Session::restore_from(snap, engine.pool.clone(), engine.par)?;
            self.sessions.insert(snap.session, sess);
        }
        if !counted {
            self.opened(snap.session);
        }
        Ok(())
    }

    /// Removes session `id`, folding its engine (and broker) counters
    /// into the shard's retired totals so they survive the teardown.
    fn retire(&mut self, id: u64) {
        let c = &mut self.counters;
        let es = if let Some(sess) = self.sessions.remove(&id) {
            sess.engine_stats()
        } else if let Some(b) = self.brokers.remove(&id) {
            let bc = b.counters();
            c.retired_broker_grants += bc.grants;
            c.retired_broker_deferrals += bc.deferrals;
            c.retired_broker_give_ups += bc.give_ups;
            c.retired_broker_livelocks += b.livelock_events();
            b.engine_stats()
        } else {
            return;
        };
        c.retired_cache_hits += es.cache_hits;
        c.retired_reductions += es.reductions;
        c.retired_dense_reductions += es.dense_reductions;
        c.retired_sparse_reductions += es.sparse_reductions;
        c.sessions_closed += 1;
    }
}

/// Applies one batch to `sess` and counts it into `counters` — the one
/// batch path of live serving and WAL apply.
pub(crate) fn apply_batch(
    counters: &mut ShardCounters,
    sess: &mut Session,
    events: &[Event],
) -> Vec<EventResult> {
    let mut results = Vec::new();
    let tally = sess.apply_batch(events, &mut results);
    counters.batches += 1;
    counters.events += tally.events;
    counters.probes += tally.probes;
    counters.rejected += tally.rejected;
    results
}

/// Runs one broker command other than `Open`, returning the decision
/// and the waiting edges it granted — the one broker path of live
/// serving and WAL apply. Broker commands are logged, not their
/// decisions: replaying the command against identical state re-derives
/// the identical decision (rejections included), and the broker's own
/// grant/deferral/give-up counters advance exactly as they did live.
pub(crate) fn broker_step(b: &mut Broker, op: &BrokerWalOp) -> (Response, Vec<(ProcId, ResId)>) {
    match *op {
        BrokerWalOp::Open { .. } => unreachable!("a broker open installs, it does not step"),
        BrokerWalOp::SetPriority { p, priority } => (b.set_priority(p, priority), Vec::new()),
        BrokerWalOp::Acquire { p, q } => b.acquire(p, q),
        BrokerWalOp::Release { p, q } => b.release(p, q),
        BrokerWalOp::GiveUpAck { p } => b.give_up_ack(p),
    }
}

/// Applies one WAL op to a shard's state — the path live `open`,
/// `open_avoid` and `close` take after logging, and the one crash
/// recovery ([`open_shard`]) and replica apply
/// ([`crate::shard::ShardCore`]) replay, which is why a follower ends
/// up *bit-identical* to the primary: same code, same order, same
/// counters. Woken waiters need no replay — a grant is broker state,
/// and the reply slots died with the connections.
///
/// # Panics
///
/// Panics on an op referencing an unknown session or an undecodable
/// embedded snapshot — a forged or desynced log, fail-stop either way.
pub(crate) fn apply_wal_op(shard: usize, op: &WalOp, state: &mut ShardState, engine: &EngineCtx) {
    let EngineCtx { pool, par } = engine;
    match op {
        WalOp::Open {
            session,
            resources,
            processes,
        } => {
            let sess = Session::with_parallel(*resources, *processes, pool.clone(), *par);
            state.sessions.insert(*session, sess);
            state.opened(*session);
        }
        WalOp::Batch { session, events } => {
            // A logged batch always follows a logged open/restore of
            // its session; a miss would mean the log was forged.
            let Some(sess) = state.sessions.get_mut(session) else {
                panic!("shard {shard}: WAL batch for unknown session {session}");
            };
            apply_batch(&mut state.counters, sess, events);
        }
        WalOp::Close { session } => state.retire(*session),
        WalOp::Restore { snapshot } => {
            state
                .restore(snapshot, engine, false)
                .unwrap_or_else(|e| panic!("shard {shard}: WAL restore: {e}"));
        }
        WalOp::Broker {
            session,
            op:
                BrokerWalOp::Open {
                    resources,
                    processes,
                    metered,
                },
        } => {
            let b = Broker::new(*resources, *processes, *metered, pool.clone(), *par);
            state.brokers.insert(*session, b);
            state.opened(*session);
        }
        WalOp::Broker { session, op } => {
            let Some(b) = state.brokers.get_mut(session) else {
                panic!("shard {shard}: WAL broker op for unknown session {session}");
            };
            broker_step(b, op);
        }
    }
}

/// Opens shard `shard`'s store and rebuilds its state: checkpoint
/// sessions first, then the WAL suffix replayed through
/// [`apply_wal_op`] — the same apply path as live serving.
///
/// # Panics
///
/// Panics on storage failure or a corrupt (CRC-valid but semantically
/// invalid) checkpoint — both are fail-stop conditions for a WAL.
pub(crate) fn open_shard(
    cfg: &DurabilityConfig,
    shard: usize,
    engine: &EngineCtx,
) -> RecoveredShard {
    let (store, recovery) = ShardStore::open(&cfg.dir, shard as u32, cfg.fsync)
        .unwrap_or_else(|e| panic!("shard {shard}: store open failed: {e}"));
    let mut state = ShardState::default();
    let mut checkpoint_sessions = 0u64;
    if let Some(ckpt) = &recovery.checkpoint {
        state.counters = ckpt.counters;
        state.next_session = ckpt.next_session;
        checkpoint_sessions = ckpt.sessions.len() as u64;
        for snap in &ckpt.sessions {
            state
                .restore(snap, engine, true)
                .unwrap_or_else(|e| panic!("shard {shard}: checkpoint restore: {e}"));
        }
    }
    let replayed_records = recovery.wal_ops.len() as u64;
    let mut wal_tail = Vec::with_capacity(recovery.wal_ops.len());
    for (seq, epoch, op) in &recovery.wal_ops {
        apply_wal_op(shard, op, &mut state, engine);
        let mut bytes = Vec::new();
        op.encode_into(&mut bytes);
        wal_tail.push((*seq, *epoch, bytes));
    }
    let info = RecoveryInfo {
        shard,
        checkpoint_sessions,
        replayed_records,
        torn_bytes: recovery.torn_bytes,
        last_seq: store.last_seq(),
        next_session: state.next_session,
        live_sessions: state.live() as u64,
    };
    RecoveredShard {
        persist: ShardPersist {
            store,
            checkpoint_every: cfg.checkpoint_every_records.max(1),
            checkpoint_on_shutdown: cfg.checkpoint_on_shutdown,
            info,
        },
        state,
        wal_tail,
    }
}

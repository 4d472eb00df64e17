//! Durability glue between the shards and `deltaos-store`.
//!
//! With a [`DurabilityConfig`] set on the runtime's `CoreConfig`, every
//! shard owns a [`ShardStore`]: state-mutating jobs (`Open`/`Batch`/`Close`/
//! `Restore` and the broker commands) are appended to the shard's WAL
//! and committed **before**
//! they are applied or replied to — write-ahead in the literal sense, so
//! anything a client saw acknowledged is re-creatable. On startup the
//! owning loop loads the shard's latest checkpoint, replays the surviving WAL suffix
//! through the exact same [`Session::apply_batch`] path the live service
//! uses, and then serves — which is why recovered sessions are
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
use deltaos_store::wal::WalEvent;
use deltaos_store::{
    BrokerWalOp, FsyncPolicy, SessionSnapshot, ShardCheckpoint, ShardCounters, ShardStore, WalOp,
};

use crate::broker::Broker;
use crate::proto::Event;
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
    /// Durability rooted at `dir` with the balanced defaults: group
    /// commit every 32 commits, checkpoint every 4096 records, final
    /// checkpoint on shutdown, no follower-ack gating.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(32),
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

pub(crate) fn wal_event(ev: &Event) -> WalEvent {
    match *ev {
        Event::Request { p, q } => WalEvent::Request { p, q },
        Event::Grant { q, p } => WalEvent::Grant { q, p },
        Event::Release { q, p } => WalEvent::Release { q, p },
        Event::Probe => WalEvent::Probe,
        Event::WouldDeadlock { p, q } => WalEvent::WouldDeadlock { p, q },
    }
}

pub(crate) fn proto_event(ev: &WalEvent) -> Event {
    match *ev {
        WalEvent::Request { p, q } => Event::Request { p, q },
        WalEvent::Grant { q, p } => Event::Grant { q, p },
        WalEvent::Release { q, p } => Event::Release { q, p },
        WalEvent::Probe => Event::Probe,
        WalEvent::WouldDeadlock { p, q } => Event::WouldDeadlock { p, q },
    }
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

    /// The pipelined group-commit parameters, when that policy is
    /// configured (`None` under every self-syncing policy).
    pub fn pipeline(&self) -> Option<(u32, std::time::Duration)> {
        match self.store.policy() {
            FsyncPolicy::Pipelined {
                max_records,
                deadline,
            } => Some((max_records, deadline)),
            _ => None,
        }
    }

    /// Writes a checkpoint if `checkpoint_every` records accumulated
    /// since the last one (`force` skips the threshold — shutdown path).
    /// Returns whether it wrote one.
    pub fn maybe_checkpoint(
        &mut self,
        shard: usize,
        counters: ShardCounters,
        next_session: u64,
        sessions: &HashMap<u64, Session>,
        brokers: &HashMap<u64, Broker>,
        force: bool,
    ) -> bool {
        if !force && self.store.records_since_checkpoint() < self.checkpoint_every {
            return false;
        }
        let mut snaps: Vec<SessionSnapshot> = sessions
            .iter()
            .map(|(&id, sess)| sess.snapshot(id))
            .chain(brokers.iter().map(|(&id, b)| b.snapshot(id)))
            .collect();
        // HashMap iteration order is arbitrary; checkpoint bytes should
        // not be.
        snaps.sort_by_key(|s| s.session);
        let ckpt = ShardCheckpoint {
            shard: shard as u32,
            last_seq: 0, // overwritten by ShardStore::checkpoint
            next_session,
            epoch: 0, // overwritten by ShardStore::checkpoint
            counters,
            sessions: snaps,
        };
        self.store
            .checkpoint(ckpt)
            .unwrap_or_else(|e| panic!("checkpoint failed: {e}"));
        true
    }
}

/// Result of [`open_shard`]: the persistence handle plus the recovered
/// session table and counter state the shard starts from.
pub(crate) struct RecoveredShard {
    pub persist: ShardPersist,
    pub sessions: HashMap<u64, Session>,
    pub brokers: HashMap<u64, Broker>,
    pub counters: ShardCounters,
    pub next_session: u64,
    /// The replayed WAL suffix as `(seq, epoch, encoded op)` — seeds the
    /// shard's replication buffer so a follower can resume tailing from
    /// any record the checkpoint has not yet swallowed.
    pub wal_tail: Vec<(u64, u64, Vec<u8>)>,
}

/// Engine-construction context threaded through WAL apply: the shard's
/// shared reduction pool and its parallelism gate, which travel
/// together into every `Session`/`Broker` (re)construction.
#[derive(Clone, Copy)]
pub(crate) struct EngineCtx<'a> {
    pub pool: &'a Option<Arc<WorkerPool>>,
    pub par: ParConfig,
}

/// Applies one WAL op to a shard's session/broker tables — the single
/// ingestion path shared by crash recovery ([`open_shard`]) and live
/// replica apply ([`crate::shard::ShardCore`]), which is why a follower
/// ends up *bit-identical* to the primary: same code, same order, same
/// counters.
///
/// # Panics
///
/// Panics on an op referencing an unknown session or an undecodable
/// embedded snapshot — a forged or desynced log, fail-stop either way.
pub(crate) fn apply_wal_op(
    shard: usize,
    op: &WalOp,
    sessions: &mut HashMap<u64, Session>,
    brokers: &mut HashMap<u64, Broker>,
    counters: &mut ShardCounters,
    next_session: &mut u64,
    engine: EngineCtx<'_>,
) {
    let EngineCtx { pool, par } = engine;
    match op {
        WalOp::Open {
            session,
            resources,
            processes,
        } => {
            sessions.insert(
                *session,
                Session::with_parallel(*resources, *processes, pool.clone(), par),
            );
            counters.sessions_opened += 1;
            *next_session = (*next_session).max(*session + 1);
        }
        WalOp::Batch { session, events } => {
            // A logged batch always follows a logged open/restore of
            // its session; a miss would mean the log was forged.
            let Some(sess) = sessions.get_mut(session) else {
                panic!("shard {shard}: WAL batch for unknown session {session}");
            };
            let events: Vec<Event> = events.iter().map(proto_event).collect();
            let mut results = Vec::new();
            let tally = sess.apply_batch(&events, &mut results);
            counters.batches += 1;
            counters.events += tally.events;
            counters.probes += tally.probes;
            counters.rejected += tally.rejected;
        }
        WalOp::Close { session } => {
            if let Some(sess) = sessions.remove(session) {
                let es = sess.engine_stats();
                counters.retired_cache_hits += es.cache_hits;
                counters.retired_reductions += es.reductions;
                counters.retired_dense_reductions += es.dense_reductions;
                counters.retired_sparse_reductions += es.sparse_reductions;
                counters.sessions_closed += 1;
            } else if let Some(b) = brokers.remove(session) {
                let es = b.engine_stats();
                counters.retired_cache_hits += es.cache_hits;
                counters.retired_reductions += es.reductions;
                counters.retired_dense_reductions += es.dense_reductions;
                counters.retired_sparse_reductions += es.sparse_reductions;
                let bc = b.counters();
                counters.retired_broker_grants += bc.grants;
                counters.retired_broker_deferrals += bc.deferrals;
                counters.retired_broker_give_ups += bc.give_ups;
                counters.retired_broker_livelocks += b.livelock_events();
                counters.sessions_closed += 1;
            }
        }
        WalOp::Restore { snapshot } => {
            if snapshot.broker.is_some() {
                let b = Broker::restore_from(snapshot, pool.clone(), par)
                    .unwrap_or_else(|e| panic!("shard {shard}: WAL broker restore: {e}"));
                brokers.insert(snapshot.session, b);
            } else {
                let sess = Session::restore_from(snapshot, pool.clone(), par)
                    .unwrap_or_else(|e| panic!("shard {shard}: WAL session restore: {e}"));
                sessions.insert(snapshot.session, sess);
            }
            counters.sessions_opened += 1;
            *next_session = (*next_session).max(snapshot.session + 1);
        }
        WalOp::Broker { session, op } => match op {
            // Broker commands are logged, not their decisions:
            // replaying the command against identical state re-derives
            // the identical decision (including rejections), and the
            // broker's own grant/deferral/give-up counters advance
            // exactly as they did live. Woken waiters need no replay —
            // a grant is broker state, and the reply slots died with
            // the connections.
            BrokerWalOp::Open {
                resources,
                processes,
                metered,
            } => {
                brokers.insert(
                    *session,
                    Broker::new(*resources, *processes, *metered, pool.clone(), par),
                );
                counters.sessions_opened += 1;
                *next_session = (*next_session).max(*session + 1);
            }
            op => {
                let Some(b) = brokers.get_mut(session) else {
                    panic!("shard {shard}: WAL broker op for unknown session {session}");
                };
                match *op {
                    BrokerWalOp::Open { .. } => unreachable!("handled above"),
                    BrokerWalOp::SetPriority { p, priority } => {
                        b.set_priority(p, priority);
                    }
                    BrokerWalOp::Acquire { p, q } => {
                        b.acquire(p, q);
                    }
                    BrokerWalOp::Release { p, q } => {
                        b.release(p, q);
                    }
                    BrokerWalOp::GiveUpAck { p } => {
                        b.give_up_ack(p);
                    }
                }
            }
        },
    }
}

/// Opens shard `shard`'s store and rebuilds its state: checkpoint
/// sessions first, then the WAL suffix replayed through
/// [`Session::apply_batch`] — the same ingestion path as live serving.
///
/// # Panics
///
/// Panics on storage failure or a corrupt (CRC-valid but semantically
/// invalid) checkpoint — both are fail-stop conditions for a WAL.
pub(crate) fn open_shard(
    cfg: &DurabilityConfig,
    shard: usize,
    pool: Option<Arc<WorkerPool>>,
    par: ParConfig,
) -> RecoveredShard {
    let (store, recovery) = ShardStore::open(&cfg.dir, shard as u32, cfg.fsync)
        .unwrap_or_else(|e| panic!("shard {shard}: store open failed: {e}"));
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut brokers: HashMap<u64, Broker> = HashMap::new();
    let mut counters = ShardCounters::default();
    let mut next_session = 0u64;
    let mut checkpoint_sessions = 0u64;
    if let Some(ckpt) = &recovery.checkpoint {
        counters = ckpt.counters;
        next_session = ckpt.next_session;
        checkpoint_sessions = ckpt.sessions.len() as u64;
        for snap in &ckpt.sessions {
            if snap.broker.is_some() {
                let b = Broker::restore_from(snap, pool.clone(), par)
                    .unwrap_or_else(|e| panic!("shard {shard}: checkpoint broker restore: {e}"));
                brokers.insert(snap.session, b);
            } else {
                let sess = Session::restore_from(snap, pool.clone(), par)
                    .unwrap_or_else(|e| panic!("shard {shard}: checkpoint session restore: {e}"));
                sessions.insert(snap.session, sess);
            }
        }
    }
    let replayed_records = recovery.wal_ops.len() as u64;
    let mut wal_tail = Vec::with_capacity(recovery.wal_ops.len());
    for (seq, epoch, op) in &recovery.wal_ops {
        apply_wal_op(
            shard,
            op,
            &mut sessions,
            &mut brokers,
            &mut counters,
            &mut next_session,
            EngineCtx { pool: &pool, par },
        );
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
        next_session,
        live_sessions: (sessions.len() + brokers.len()) as u64,
    };
    RecoveredShard {
        persist: ShardPersist {
            store,
            checkpoint_every: cfg.checkpoint_every_records.max(1),
            checkpoint_on_shutdown: cfg.checkpoint_on_shutdown,
            info,
        },
        sessions,
        brokers,
        counters,
        next_session,
        wal_tail,
    }
}

//! One shard's deadlock unit (`ShardCore`) and the service's typed
//! error ([`ServiceError`]).
//!
//! `session_id % shards` pins every session to exactly one shard, so a
//! session's events are applied in submission order with no locks
//! around the RAG or engine. The [`crate::core_runtime`] loops own the
//! shards and run them inline; this module decides, parks and wakes,
//! while reply delivery stays the loop's job.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use deltaos_core::par::{ParConfig, WorkerPool};
use deltaos_core::{Priority, ProcId, ResId};
use deltaos_sim::{Histogram, Stats};
use deltaos_store::{BrokerWalOp, SessionSnapshot, WalOp};

use crate::core_runtime::Ticket;
use crate::durable::{self, DurabilityConfig, EngineCtx, RecoveryInfo, ShardState};
use crate::proto::{
    AvoidanceMode, ErrorCode, Event, EventResult, ReplStatus, Response, SessionId, MAX_FRAME,
};

/// Typed in-process service failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// No such session (never opened, closed, or routed elsewhere).
    UnknownSession,
    /// The shard's session table is at `max_sessions_per_shard`.
    TooManySessions,
    /// Batch longer than `max_batch`.
    BatchTooLarge,
    /// Open with a zero or over-`max_dim` dimension.
    BadDimensions,
    /// The service has shut down.
    Shutdown,
    /// A `restore` payload did not decode as a session snapshot, or its
    /// content violated RAG invariants.
    InvalidSnapshot,
    /// A `snapshot` of this session would not fit in one wire frame.
    SnapshotTooLarge,
    /// A broker command (`SetPriority`/`Acquire`/`Release`/`GiveUpAck`)
    /// was sent to a plain detection session.
    AvoidanceOff,
    /// A raw edit `Batch` was sent to a broker session, whose graph is
    /// owned by the avoider.
    AvoidanceOn,
    /// A state-mutating command reached a replica; writes go to the
    /// primary.
    ReadOnlyReplica,
    /// The command carried a stale fencing epoch (a deposed primary's
    /// WAL tail, or a `Promote` that does not advance the epoch).
    EpochFenced,
    /// A WAL subscription (or replica apply) needed records older than
    /// the replication buffer retains; re-seed from a snapshot.
    SubscribeGap,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession => write!(f, "unknown session"),
            ServiceError::TooManySessions => write!(f, "shard session table full"),
            ServiceError::BatchTooLarge => write!(f, "batch exceeds configured cap"),
            ServiceError::BadDimensions => write!(f, "bad session dimensions"),
            ServiceError::Shutdown => write!(f, "service is shut down"),
            ServiceError::InvalidSnapshot => write!(f, "invalid session snapshot"),
            ServiceError::SnapshotTooLarge => write!(f, "session snapshot exceeds frame cap"),
            ServiceError::AvoidanceOff => write!(f, "broker command on a plain session"),
            ServiceError::AvoidanceOn => write!(f, "raw batch on a broker session"),
            ServiceError::ReadOnlyReplica => write!(f, "mutation on a read-only replica"),
            ServiceError::EpochFenced => write!(f, "stale epoch fenced"),
            ServiceError::SubscribeGap => {
                write!(f, "subscription behind the replication buffer")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for ErrorCode {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::UnknownSession => ErrorCode::UnknownSession,
            ServiceError::TooManySessions => ErrorCode::TooManySessions,
            ServiceError::BatchTooLarge => ErrorCode::BatchTooLarge,
            ServiceError::BadDimensions => ErrorCode::BadDimensions,
            ServiceError::Shutdown => ErrorCode::Shutdown,
            ServiceError::InvalidSnapshot => ErrorCode::InvalidSnapshot,
            ServiceError::SnapshotTooLarge => ErrorCode::SnapshotTooLarge,
            ServiceError::AvoidanceOff => ErrorCode::AvoidanceOff,
            ServiceError::AvoidanceOn => ErrorCode::AvoidanceOn,
            ServiceError::ReadOnlyReplica => ErrorCode::ReadOnlyReplica,
            ServiceError::EpochFenced => ErrorCode::EpochFenced,
            ServiceError::SubscribeGap => ErrorCode::SubscribeGap,
        }
    }
}

/// The avoidance commands a broker session executes.
pub(crate) enum BrokerCmd {
    SetPriority { p: ProcId, priority: Priority },
    Acquire { p: ProcId, q: ResId, wait: bool },
    Release { p: ProcId, q: ResId },
    GiveUpAck { p: ProcId },
}

/// A blocked `Acquire`'s parked reply slot, filled by the grant a later
/// `Release`/`GiveUpAck` fixes.
struct Waiter {
    p: ProcId,
    q: ResId,
    slot: Ticket,
}

/// Pipelined group-commit telemetry: flush batch sizes, withheld-reply
/// depth and append→release commit latency, reported under the
/// `store.pipeline_*` stats keys. All zeros outside
/// `FsyncPolicy::Pipelined`.
#[derive(Default)]
pub(crate) struct PipelineMeter {
    /// Non-empty flushes (fsyncs covering ≥ 1 new record).
    batches: u64,
    /// Largest record count one flush made durable.
    batch_max: u64,
    /// High-water mark of simultaneously withheld replies.
    withheld_peak: u64,
    /// Append→release commit latency in microseconds.
    commit_us: Histogram,
}

impl PipelineMeter {
    /// A reply was just withheld; `depth` is the new queue depth.
    pub(crate) fn on_withheld(&mut self, depth: u64) {
        self.withheld_peak = self.withheld_peak.max(depth);
    }

    /// A flush made `records` new records durable (0 = frontier was
    /// already current; not counted as a batch).
    pub(crate) fn on_flush(&mut self, records: u64) {
        if records > 0 {
            self.batches += 1;
            self.batch_max = self.batch_max.max(records);
        }
    }

    /// A withheld reply was released `waited` after its append.
    pub(crate) fn on_release(&mut self, waited: Duration) {
        self.commit_us
            .record(waited.as_micros().min(u64::MAX as u128) as u64);
    }
}

/// Replication buffer cap: the primary retains this many recent WAL
/// records in memory for `Subscribe` polls; a follower that falls
/// further behind gets [`ServiceError::SubscribeGap`] and must re-seed
/// from a snapshot.
const REPL_BUF_CAP: usize = 16_384;

/// Byte budget for one `WalSegment` reply (op bytes, excluding the
/// fixed per-record framing) — keeps the response inside one wire frame
/// with comfortable header room.
const SEGMENT_BYTE_BUDGET: usize = MAX_FRAME / 2;

/// One shard's replication posture: role, fencing epoch, the
/// follower-ack frontier and the bounded in-memory WAL suffix served to
/// `Subscribe` polls.
pub(crate) struct ReplState {
    /// `false` = replica: mutations answer `ReadOnlyReplica` and state
    /// advances only through [`ShardCore::repl_apply`].
    primary: bool,
    /// Fencing epoch; mirrors the stamp on every WAL record appended.
    epoch: u64,
    /// Promotions accepted since start.
    promotions: u64,
    /// Highest WAL seq a follower acknowledged durable on its disk.
    follower_acked: u64,
    /// True once any follower subscribed — gates the lag gauge so a
    /// standalone primary reports 0 lag, not `last_seq`.
    has_follower: bool,
    /// Withhold acknowledgements until the follower ack covers them
    /// (durable-on-follower replies; `DurabilityConfig::repl_ack`).
    gate: bool,
    /// Highest WAL seq appended/applied locally (the store's `last_seq`
    /// when durable; the memory-only follower's only frontier
    /// otherwise).
    last_seq: u64,
    /// Recent WAL suffix as `(seq, epoch, encoded op)`, capped at
    /// [`REPL_BUF_CAP`].
    buf: VecDeque<(u64, u64, Vec<u8>)>,
}

impl ReplState {
    fn new(primary: bool, gate: bool) -> ReplState {
        ReplState {
            primary,
            epoch: 0,
            promotions: 0,
            follower_acked: 0,
            has_follower: false,
            gate,
            last_seq: 0,
            buf: VecDeque::new(),
        }
    }

    /// Mirrors one appended WAL record into the subscription buffer and
    /// advances the local frontier.
    fn push(&mut self, seq: u64, epoch: u64, op_bytes: Vec<u8>) {
        self.last_seq = self.last_seq.max(seq);
        self.buf.push_back((seq, epoch, op_bytes));
        while self.buf.len() > REPL_BUF_CAP {
            self.buf.pop_front();
        }
    }
}

/// Outcome of one [`ShardCore::broker`] command: the command's own reply
/// with its slot (absent when the slot parked in the waiter table), plus
/// any previously parked slots the command's grants just woke — each of
/// those answers `Granted { cycles: 0, probes: 0 }`.
pub(crate) struct BrokerOutcome {
    pub reply: Option<(Ticket, Result<Response, ServiceError>)>,
    pub woken: Vec<Ticket>,
}

/// One shard's deadlock unit: the session and broker tables, the
/// parked-waiter table, write-ahead durability and the per-shard
/// counters — everything `session_id % shards` pins to one owner. The
/// owning [`crate::core_runtime`] loop runs it inline; reply delivery is
/// the *caller's* job — the core only decides, parks and wakes.
pub(crate) struct ShardCore {
    shard_id: usize,
    max_sessions: usize,
    max_dim: u16,
    engine: EngineCtx,
    /// Sessions, brokers, counters and the id floor: what the WAL
    /// reproduces, changed only through `durable`'s shared helpers.
    state: ShardState,
    /// Blocked Acquire reply slots per broker session. Reconstructed
    /// waiting state after recovery lives in the avoiders; slots reappear
    /// as reconnecting clients re-issue (re-attach) their acquires.
    waiters: HashMap<u64, Vec<Waiter>>,
    persist: Option<durable::ShardPersist>,
    /// Under `FsyncPolicy::Pipelined`: the LSN the last logged op's reply
    /// must wait out before delivery. Consumed (and reset) by the
    /// front-end via [`ShardCore::take_withhold_lsn`] right after the op.
    withhold_lsn: Option<u64>,
    /// Group-commit telemetry, reported under `store.pipeline_*`.
    pub(crate) pipeline: PipelineMeter,
    /// Replication posture: role, epoch, follower frontier, WAL-suffix
    /// buffer.
    repl: ReplState,
}

impl ShardCore {
    /// Builds the shard's state, recovering checkpoint + WAL first when
    /// durability is configured (fail-stop on storage errors). With
    /// `replica` set the shard starts read-only, serving probes and
    /// subscriptions until promoted.
    pub(crate) fn new(
        shard_id: usize,
        max_sessions: usize,
        max_dim: u16,
        par: ParConfig,
        pool: Option<Arc<WorkerPool>>,
        durability: Option<&DurabilityConfig>,
        replica: bool,
    ) -> ShardCore {
        let engine = EngineCtx { pool, par };
        let (state, persist, repl) = match durability {
            None => (ShardState::default(), None, ReplState::new(!replica, false)),
            Some(d) => {
                let recovered = durable::open_shard(d, shard_id, &engine);
                let mut repl = ReplState::new(!replica, d.repl_ack);
                repl.epoch = recovered.persist.store.epoch();
                repl.last_seq = recovered.persist.store.last_seq();
                for (seq, epoch, bytes) in recovered.wal_tail {
                    repl.push(seq, epoch, bytes);
                }
                (recovered.state, Some(recovered.persist), repl)
            }
        };
        ShardCore {
            shard_id,
            max_sessions,
            max_dim,
            engine,
            state,
            waiters: HashMap::new(),
            persist,
            withhold_lsn: None,
            pipeline: PipelineMeter::default(),
            repl,
        }
    }

    /// What recovery found, when durability is on.
    pub(crate) fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.persist.as_ref().map(|p| p.info)
    }

    /// `Some((max_records, deadline))` when the WAL runs
    /// [`deltaos_store::FsyncPolicy::Pipelined`] — the front-end is then
    /// the commit scheduler and must drive [`ShardCore::sync_barrier`].
    pub(crate) fn pipeline_params(&self) -> Option<(u32, Duration)> {
        self.persist.as_ref().and_then(|p| p.pipeline())
    }

    /// Records appended but not yet made durable (0 without durability).
    pub(crate) fn unsynced_records(&self) -> u64 {
        self.persist
            .as_ref()
            .map_or(0, |p| p.store.unsynced_records())
    }

    /// The durable-LSN frontier: every WAL record with seq ≤ this
    /// survives a crash (0 without durability).
    pub(crate) fn durable_lsn(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.durable_seq())
    }

    /// Fsync barrier: forces everything appended durable and returns the
    /// new frontier. A no-op (beyond reading the frontier) when nothing
    /// is unsynced; 0 without durability.
    pub(crate) fn sync_barrier(&mut self) -> u64 {
        self.persist.as_mut().map_or(0, |p| p.sync())
    }

    /// Takes (and resets) the LSN the just-run op's reply must wait out.
    /// `Some` only when the op was logged under the pipelined policy or
    /// follower-ack gating and is durable-visible (probe-only batches
    /// and broker re-attaches reply immediately). The front-end calls
    /// this after *every* op; a `None` means deliver now.
    pub(crate) fn take_withhold_lsn(&mut self) -> Option<u64> {
        self.withhold_lsn.take()
    }

    /// The reply-release frontier: the durable LSN, further clamped to
    /// the follower's acknowledged LSN under `repl_ack` gating — an op
    /// is acknowledged only once it survives the loss of this whole
    /// process, not just a crash.
    pub(crate) fn release_floor(&self) -> u64 {
        let durable = self.durable_lsn();
        if self.repl.gate {
            durable.min(self.repl.follower_acked)
        } else {
            durable
        }
    }

    /// Write-ahead one op: append + commit through the persistence
    /// handle, mirror it into the replication buffer, and return its LSN
    /// plus whether the reply must be withheld (pipelined policy or
    /// follower-ack gating).
    fn log_mirrored(
        persist: &mut durable::ShardPersist,
        repl: &mut ReplState,
        op: &WalOp,
    ) -> (u64, bool) {
        let lsn = persist.log(op);
        let mut bytes = Vec::new();
        op.encode_into(&mut bytes);
        repl.push(lsn, persist.store.epoch(), bytes);
        (lsn, persist.pipeline().is_some() || repl.gate)
    }

    /// Write-ahead `op` when durable, withholding its reply for its LSN
    /// when the policy says so.
    fn write_ahead(&mut self, op: &WalOp) {
        if let Some(p) = self.persist.as_mut() {
            let (lsn, withhold) = Self::log_mirrored(p, &mut self.repl, op);
            if withhold {
                self.withhold_lsn = Some(lsn);
            }
        }
    }

    /// Write-ahead `op`, then apply it through [`durable::apply_wal_op`]
    /// — the exact code recovery and replica apply replay.
    fn log_and_apply(&mut self, op: WalOp) {
        self.write_ahead(&op);
        durable::apply_wal_op(self.shard_id, &op, &mut self.state, &self.engine);
    }

    /// Admission for an op that adds a session: primaries only, and only
    /// below the shard's session cap.
    fn admit_new(&self) -> Result<(), ServiceError> {
        if !self.repl.primary {
            Err(ServiceError::ReadOnlyReplica)
        } else if self.state.live() >= self.max_sessions {
            Err(ServiceError::TooManySessions)
        } else {
            Ok(())
        }
    }

    /// Opens a plain detection session under `session`.
    pub(crate) fn open(
        &mut self,
        session: SessionId,
        resources: u16,
        processes: u16,
    ) -> Result<SessionId, ServiceError> {
        self.admit_new()?;
        // Write-ahead: the open is durable before it exists.
        self.log_and_apply(WalOp::Open {
            session: session.0,
            resources,
            processes,
        });
        Ok(session)
    }

    /// Opens an avoidance session under `session` (mode `Off` is
    /// literally a plain open: a probe-only session, logged as one,
    /// indistinguishable from it).
    pub(crate) fn open_avoid(
        &mut self,
        session: SessionId,
        resources: u16,
        processes: u16,
        mode: AvoidanceMode,
    ) -> Result<SessionId, ServiceError> {
        if mode == AvoidanceMode::Off {
            return self.open(session, resources, processes);
        }
        self.admit_new()?;
        self.log_and_apply(WalOp::Broker {
            session: session.0,
            op: BrokerWalOp::Open {
                resources,
                processes,
                metered: mode == AvoidanceMode::Metered,
            },
        });
        Ok(session)
    }

    /// Applies a batch to its session, WAL-first.
    pub(crate) fn batch(
        &mut self,
        session: SessionId,
        events: &[Event],
    ) -> Result<Vec<EventResult>, ServiceError> {
        let Some(sess) = self.state.sessions.get_mut(&session.0) else {
            return Err(if self.state.brokers.contains_key(&session.0) {
                ServiceError::AvoidanceOn
            } else {
                ServiceError::UnknownSession
            });
        };
        let read_only = events
            .iter()
            .all(|e| matches!(e, Event::Probe | Event::WouldDeadlock { .. }));
        if !self.repl.primary && !read_only {
            return Err(ServiceError::ReadOnlyReplica);
        }
        // Every accepted batch is logged — probe-only ones too, because
        // probes advance the engine counters recovery must reproduce.
        // Read-only batches (probes and would-deadlock queries, which
        // mutate no client-visible edge state) still reply immediately
        // under the pipelined policy, before their record is durable:
        // read latency is untouched.
        //
        // Exception: a replica serves read-only batches without logging.
        // Its WAL is a byte mirror of the primary's and must not diverge
        // by local appends; the price is that a probed replica's engine
        // counters run ahead of the primary's.
        if self.repl.primary {
            if let Some(p) = self.persist.as_mut() {
                let (lsn, withhold) = Self::log_mirrored(
                    p,
                    &mut self.repl,
                    &WalOp::Batch {
                        session: session.0,
                        events: events.to_vec(),
                    },
                );
                if !read_only && withhold {
                    self.withhold_lsn = Some(lsn);
                }
            }
        }
        Ok(durable::apply_batch(&mut self.state.counters, sess, events))
    }

    /// Tears a session down, folding its engine counters into the shard
    /// totals. Returns any parked waiter slots of a closed broker
    /// session — they can never be granted now, so the caller must fail
    /// them with [`ServiceError::UnknownSession`] instead of leaking
    /// silent hangs.
    pub(crate) fn close(&mut self, session: SessionId) -> (Result<(), ServiceError>, Vec<Ticket>) {
        if !self.repl.primary {
            return (Err(ServiceError::ReadOnlyReplica), Vec::new());
        }
        if !self.state.sessions.contains_key(&session.0)
            && !self.state.brokers.contains_key(&session.0)
        {
            return (Err(ServiceError::UnknownSession), Vec::new());
        }
        self.log_and_apply(WalOp::Close { session: session.0 });
        let dead = self
            .waiters
            .remove(&session.0)
            .unwrap_or_default()
            .into_iter()
            .map(|w| w.slot)
            .collect();
        (Ok(()), dead)
    }

    /// Serializes a live session (plain or broker) into a checkpoint
    /// blob that fits one wire frame.
    pub(crate) fn snapshot_blob(&self, session: SessionId) -> Result<Vec<u8>, ServiceError> {
        let ShardState {
            sessions, brokers, ..
        } = &self.state;
        let snap = match (sessions.get(&session.0), brokers.get(&session.0)) {
            (Some(sess), _) => sess.snapshot(session.0),
            (None, Some(b)) => b.snapshot(session.0),
            (None, None) => return Err(ServiceError::UnknownSession),
        };
        let bytes = snap.encode();
        // Leave header room so the reply still frames.
        if bytes.len() > MAX_FRAME - 16 {
            Err(ServiceError::SnapshotTooLarge)
        } else {
            Ok(bytes)
        }
    }

    /// Validates, write-aheads and installs a snapshot blob under the
    /// freshly assigned `session` id. A snapshot with a broker section
    /// restores as a broker session — the blob decides the kind, so a
    /// broker snapshotted on one service instance resumes avoiding on
    /// another.
    pub(crate) fn restore(
        &mut self,
        session: SessionId,
        snapshot: &[u8],
    ) -> Result<SessionId, ServiceError> {
        self.admit_new()?;
        let mut snap =
            SessionSnapshot::decode(snapshot).map_err(|_| ServiceError::InvalidSnapshot)?;
        if snap.resources > self.max_dim || snap.processes > self.max_dim {
            return Err(ServiceError::BadDimensions);
        }
        // The restored session lives under the freshly assigned id, not
        // whatever id it had in its previous life.
        snap.session = session.0;
        // Validate before logging: a snapshot that cannot restore must
        // never reach the WAL, where replay would fail-stop on it.
        // Restoring is the validation, so the session is in place before
        // its record is appended; the reply still waits for the record.
        self.state
            .restore(&snap, &self.engine, false)
            .map_err(|_| ServiceError::InvalidSnapshot)?;
        self.write_ahead(&WalOp::Restore {
            snapshot: Box::new(snap),
        });
        Ok(session)
    }

    /// Runs one brokered avoidance command: route, re-attach or
    /// write-ahead + execute, wake granted waiters, reply — or park
    /// `slot` in the waiter table when a `wait`ing Acquire defers.
    pub(crate) fn broker(
        &mut self,
        session: SessionId,
        cmd: BrokerCmd,
        slot: Ticket,
    ) -> BrokerOutcome {
        let mut out = BrokerOutcome {
            reply: None,
            woken: Vec::new(),
        };
        let ShardCore {
            state,
            waiters,
            persist,
            withhold_lsn,
            repl,
            ..
        } = self;
        if !repl.primary {
            out.reply = Some((slot, Err(ServiceError::ReadOnlyReplica)));
            return out;
        }
        let Some(broker) = state.brokers.get_mut(&session.0) else {
            let e = if state.sessions.contains_key(&session.0) {
                ServiceError::AvoidanceOff
            } else {
                ServiceError::UnknownSession
            };
            out.reply = Some((slot, Err(e)));
            return out;
        };
        if let BrokerCmd::Acquire { p, q, wait } = cmd {
            // Re-attach: an acquire for an edge already waiting (a client
            // polling, or reconnecting after its connection died) must not
            // re-run the command — it just (re)binds a reply slot to the
            // pending grant. Not logged: no state changes.
            if broker.is_waiting(p, q) {
                if wait {
                    waiters
                        .entry(session.0)
                        .or_default()
                        .push(Waiter { p, q, slot });
                } else {
                    out.reply = Some((
                        slot,
                        Ok(Response::Deferred {
                            cycles: 0,
                            probes: 0,
                        }),
                    ));
                }
                return out;
            }
            // Likewise idempotent: a grant delivered while the client was
            // away answers `Granted` on the next poll, not a rejection.
            if p.index() < broker.rag().processes()
                && q.index() < broker.rag().resources()
                && broker.rag().owner(q) == Some(p)
            {
                out.reply = Some((
                    slot,
                    Ok(Response::Granted {
                        cycles: 0,
                        probes: 0,
                    }),
                ));
                return out;
            }
        }
        let (op, wait) = match cmd {
            BrokerCmd::SetPriority { p, priority } => {
                (BrokerWalOp::SetPriority { p, priority }, false)
            }
            BrokerCmd::Acquire { p, q, wait } => (BrokerWalOp::Acquire { p, q }, wait),
            BrokerCmd::Release { p, q } => (BrokerWalOp::Release { p, q }, false),
            BrokerCmd::GiveUpAck { p } => (BrokerWalOp::GiveUpAck { p }, false),
        };
        // Write-ahead: the *command* is durable before it runs, not its
        // decision — replay re-runs it against identical state and
        // re-derives the identical decision, rejections included.
        if let Some(persist) = persist.as_mut() {
            let wal_op = WalOp::Broker {
                session: session.0,
                op,
            };
            let (lsn, withhold) = Self::log_mirrored(persist, repl, &wal_op);
            // The command's reply AND any waiters its grants wake ride
            // this LSN: a grant exists only because the logged command
            // ran, so neither may be seen before the command is durable.
            // (The unlogged re-attach paths above replied immediately.)
            if withhold {
                *withhold_lsn = Some(lsn);
            }
        }
        let (resp, grants) = durable::broker_step(broker, &op);
        Self::wake_waiters(waiters, session.0, &grants, &mut out.woken);
        match op {
            // The blocking primitive: the reply slot fills when a later
            // command's grant names this edge. An R-dl acquire
            // (`GiveUp`) still answers immediately even with `wait` set
            // — the client must see the ask to act on it.
            BrokerWalOp::Acquire { p, q } if wait && matches!(resp, Response::Deferred { .. }) => {
                waiters
                    .entry(session.0)
                    .or_default()
                    .push(Waiter { p, q, slot });
            }
            _ => out.reply = Some((slot, Ok(resp))),
        }
        out
    }

    /// Collects any parked reply slots whose `(p, q)` edges a broker
    /// command just granted. Grants with no registered slot (the
    /// command's own immediate grant, or a waiter whose client polls
    /// instead of blocking) are simply broker state — the next re-attach
    /// answers `Granted`.
    fn wake_waiters(
        waiters: &mut HashMap<u64, Vec<Waiter>>,
        session: u64,
        grants: &[(ProcId, ResId)],
        woken: &mut Vec<Ticket>,
    ) {
        if grants.is_empty() {
            return;
        }
        let Some(list) = waiters.get_mut(&session) else {
            return;
        };
        for &(p, q) in grants {
            while let Some(i) = list.iter().position(|w| w.p == p && w.q == q) {
                woken.push(list.remove(i).slot);
            }
        }
        if list.is_empty() {
            waiters.remove(&session);
        }
    }

    /// Serves one replication poll: a bounded run of WAL records
    /// starting at `from_seq`, plus the current frontiers so the
    /// follower knows how far behind it is. The follower's piggybacked
    /// `acked_seq` (highest seq durable on *its* disk) advances the
    /// `repl_ack` release floor. An empty segment doubles as the
    /// heartbeat a caught-up follower keeps polling for.
    pub(crate) fn subscribe(
        &mut self,
        from_seq: u64,
        acked_seq: u64,
    ) -> Result<Response, ServiceError> {
        self.repl.has_follower = true;
        self.repl.follower_acked = self.repl.follower_acked.max(acked_seq);
        let (epoch, last_seq) = (self.repl.epoch, self.repl.last_seq);
        let durable_seq = self.durable_lsn();
        let shard = self.shard_id as u16;
        if from_seq > last_seq {
            // Caught up: empty heartbeat segment carrying the frontiers.
            return Ok(Response::WalSegment {
                shard,
                epoch,
                durable_seq,
                last_seq,
                records: Vec::new(),
            });
        }
        // The wanted record must still be buffered.
        match self.repl.buf.front() {
            Some((oldest, _, _)) if from_seq >= *oldest => {}
            _ => return Err(ServiceError::SubscribeGap),
        }
        let mut records = Vec::new();
        let mut budget = SEGMENT_BYTE_BUDGET;
        for (seq, rec_epoch, bytes) in &self.repl.buf {
            if *seq < from_seq {
                continue;
            }
            let cost = 8 + 8 + 4 + bytes.len();
            if cost > budget {
                if records.is_empty() {
                    // A single record too big for any segment (a huge
                    // Restore snapshot): unstreamable — the follower
                    // re-seeds from a snapshot, the documented gap
                    // remedy.
                    return Err(ServiceError::SubscribeGap);
                }
                break;
            }
            budget -= cost;
            records.push((*seq, *rec_epoch, bytes.clone()));
            if records.len() >= crate::proto::MAX_BATCH {
                break;
            }
        }
        Ok(Response::WalSegment {
            shard,
            epoch,
            durable_seq,
            last_seq,
            records,
        })
    }

    /// This shard's replication posture, as the wire row.
    pub(crate) fn replica_status(&self) -> ReplStatus {
        ReplStatus {
            shard: self.shard_id as u16,
            primary: self.repl.primary,
            epoch: self.repl.epoch,
            last_seq: self.repl.last_seq,
            durable_seq: self.durable_lsn(),
            acked_seq: self.repl.follower_acked,
            promotions: self.repl.promotions,
        }
    }

    /// Promotes this shard to primary under `epoch`, which must strictly
    /// advance the current one — the fence that keeps a deposed primary
    /// from ever splitting the brain: its WAL tail carries the old
    /// epoch, and [`ShardCore::repl_apply`] on any promoted node refuses
    /// records below its own. Forces a checkpoint so the new epoch
    /// survives an immediate crash. Promoting a primary is how a
    /// standalone node bumps its fencing epoch; it is idempotent in
    /// role, never in epoch.
    pub(crate) fn promote(&mut self, epoch: u64) -> Result<Response, ServiceError> {
        if epoch <= self.repl.epoch {
            return Err(ServiceError::EpochFenced);
        }
        self.repl.primary = true;
        self.repl.epoch = epoch;
        self.repl.promotions += 1;
        if let Some(p) = self.persist.as_mut() {
            p.store.set_epoch(epoch);
        }
        self.maybe_checkpoint(true);
        Ok(Response::ReplicaStatus(self.replica_status()))
    }

    /// Follower ingest: mirrors the primary's WAL records byte-for-byte
    /// (same seqs, same epochs) into the local WAL and applies each
    /// through the same interpreter recovery uses — a follower's state
    /// is, by construction, exactly what replaying the primary's log
    /// produces. Strictly contiguous: a record that skips past
    /// `last_seq + 1` answers [`ServiceError::SubscribeGap`] (re-seed);
    /// one stamped below the local epoch answers
    /// [`ServiceError::EpochFenced`] (a deposed primary's tail);
    /// already-applied seqs are skipped (idempotent re-delivery).
    /// Refused on a primary: it owns its log.
    pub(crate) fn repl_apply(
        &mut self,
        records: &[(u64, u64, Vec<u8>)],
    ) -> Result<Response, ServiceError> {
        if self.repl.primary {
            return Err(ServiceError::EpochFenced);
        }
        let mut applied = false;
        for (seq, epoch, bytes) in records {
            if *seq <= self.repl.last_seq {
                continue;
            }
            if *seq != self.repl.last_seq + 1 {
                return Err(ServiceError::SubscribeGap);
            }
            if *epoch < self.repl.epoch {
                return Err(ServiceError::EpochFenced);
            }
            let op = WalOp::decode(bytes).map_err(|_| ServiceError::InvalidSnapshot)?;
            if let Some(p) = self.persist.as_mut() {
                p.store.append_at(*seq, *epoch, &op);
                p.store
                    .commit()
                    .unwrap_or_else(|e| panic!("replica WAL commit failed: {e}"));
            }
            durable::apply_wal_op(self.shard_id, &op, &mut self.state, &self.engine);
            self.repl.epoch = *epoch;
            self.repl.push(*seq, *epoch, bytes.clone());
            applied = true;
        }
        if applied {
            // Fsync what we just mirrored: the status row this returns is
            // what the tailer acks back to the primary, and under
            // `repl_ack` the primary releases client replies against it —
            // an ack must mean durable-on-this-disk, not merely buffered.
            if let Some(p) = self.persist.as_mut() {
                p.sync();
            }
        }
        Ok(Response::ReplicaStatus(self.replica_status()))
    }

    /// This shard's counters as a [`Stats`] row.
    pub(crate) fn report(&self) -> Stats {
        let counters = &self.state.counters;
        let mut cache_hits = counters.retired_cache_hits;
        let mut reductions = counters.retired_reductions;
        let mut dense_reductions = counters.retired_dense_reductions;
        let mut sparse_reductions = counters.retired_sparse_reductions;
        // Live-graph gauges: summed edges and the shard-wide density over
        // the combined area of all open sessions (permille, like the
        // engine's).
        let mut live_edges = 0u64;
        let mut live_area = 0u64;
        for sess in self.state.sessions.values() {
            let es = sess.engine_stats();
            cache_hits += es.cache_hits;
            reductions += es.reductions;
            dense_reductions += es.dense_reductions;
            sparse_reductions += es.sparse_reductions;
            live_edges += es.live_edges;
            let rag = sess.rag();
            live_area += (rag.resources() as u64).saturating_mul(rag.processes() as u64);
        }
        // Broker sessions fold in the same way: their fast-path probes
        // run through an ordinary detect engine, and their tracked RAGs
        // count toward the live-graph gauges. The broker-specific
        // counters are retired totals plus live brokers, like the engine
        // counters.
        let mut broker_grants = counters.retired_broker_grants;
        let mut broker_deferrals = counters.retired_broker_deferrals;
        let mut broker_give_ups = counters.retired_broker_give_ups;
        let mut broker_livelocks = counters.retired_broker_livelocks;
        // Logically waiting acquires (queued + parked) across live
        // brokers — a gauge that survives recovery bit-identically,
        // unlike the parked reply *slots*, which die with their
        // connections.
        let mut broker_waiters = 0u64;
        for b in self.state.brokers.values() {
            let es = b.engine_stats();
            cache_hits += es.cache_hits;
            reductions += es.reductions;
            dense_reductions += es.dense_reductions;
            sparse_reductions += es.sparse_reductions;
            let bc = b.counters();
            broker_grants += bc.grants;
            broker_deferrals += bc.deferrals;
            broker_give_ups += bc.give_ups;
            broker_livelocks += b.livelock_events();
            broker_waiters += b.waiter_depth();
            let rag = b.rag();
            live_edges += rag.edge_count() as u64;
            live_area += (rag.resources() as u64).saturating_mul(rag.processes() as u64);
        }
        let density_permille = live_edges
            .saturating_mul(1000)
            .checked_div(live_area)
            .unwrap_or(0);
        let mut s = Stats::new();
        s.add("service.shard_id", self.shard_id as u64);
        s.add("service.events", counters.events);
        s.add("service.batches", counters.batches);
        s.add("service.probes", counters.probes);
        s.add("service.rejected_events", counters.rejected);
        s.add("service.cache_hits", cache_hits);
        s.add("service.reductions", reductions);
        s.add("service.dense_reductions", dense_reductions);
        s.add("service.sparse_reductions", sparse_reductions);
        s.add("service.live_edges", live_edges);
        s.add("service.density_permille", density_permille);
        s.add("service.sessions_opened", counters.sessions_opened);
        s.add("service.sessions_closed", counters.sessions_closed);
        s.add("service.sessions_open", self.state.live() as u64);
        s.add("service.broker_grants", broker_grants);
        s.add("service.broker_deferrals", broker_deferrals);
        s.add("service.broker_give_ups", broker_give_ups);
        s.add("service.broker_livelocks", broker_livelocks);
        s.add("service.broker_waiters", broker_waiters);
        // Replication gauges, emitted unconditionally: a standalone
        // primary legitimately reports epoch 0 and zero lag.
        s.add("store.epoch", self.repl.epoch);
        s.add("store.promotions", self.repl.promotions);
        s.add("store.follower_acked_seq", self.repl.follower_acked);
        s.add(
            "store.repl_lag_records",
            if self.repl.has_follower {
                self.repl.last_seq.saturating_sub(self.repl.follower_acked)
            } else {
                0
            },
        );
        if let Some(p) = &self.persist {
            s.add("store.last_seq", p.store.last_seq());
            s.add("store.wal_records", p.store.wal_records());
            s.add("store.commits", p.store.commits());
            s.add("store.fsyncs", p.store.fsyncs());
            s.add("store.checkpoints", p.store.checkpoints());
            s.add("store.recovered_sessions", p.info.live_sessions);
            s.add("store.replayed_records", p.info.replayed_records);
            s.add("store.torn_bytes", p.info.torn_bytes);
            s.add("store.durable_seq", p.store.durable_seq());
            s.add("store.pipeline_batches", self.pipeline.batches);
            s.add("store.pipeline_batch_max", self.pipeline.batch_max);
            s.add("store.pipeline_withheld_peak", self.pipeline.withheld_peak);
            s.add(
                "store.pipeline_commit_p50_us",
                self.pipeline.commit_us.percentile(0.50),
            );
            s.add(
                "store.pipeline_commit_p99_us",
                self.pipeline.commit_us.percentile(0.99),
            );
        }
        s
    }

    /// Compaction: checkpoint + WAL truncation once enough records
    /// accumulated since the last one (`force` skips the threshold).
    /// Returns whether a checkpoint was written.
    pub(crate) fn maybe_checkpoint(&mut self, force: bool) -> bool {
        let (shard, state) = (self.shard_id, &self.state);
        self.persist
            .as_mut()
            .is_some_and(|p| p.maybe_checkpoint(shard, state, force))
    }

    /// Shutdown durability: final checkpoint, or at least a WAL sync —
    /// nothing logged may be lost to a clean stop, neither `Os` records
    /// still in the page cache nor pipelined read-only records that
    /// replied before their flush.
    pub(crate) fn finish(&mut self) {
        if self.persist.is_none() {
            return;
        }
        if self
            .persist
            .as_ref()
            .is_some_and(|p| p.checkpoint_on_shutdown)
        {
            self.maybe_checkpoint(true);
        } else if let Some(p) = self.persist.as_mut() {
            p.store
                .sync()
                .unwrap_or_else(|e| panic!("WAL sync failed: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_runtime::{CoreConfig, CoreRuntime};
    use deltaos_core::{ProcId, ResId};

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }
    fn q(i: u16) -> ResId {
        ResId(i)
    }

    fn small() -> CoreRuntime {
        CoreRuntime::bind(
            "127.0.0.1:0",
            CoreConfig {
                shards: 2,
                max_sessions_per_shard: 4,
                max_batch: 16,
                max_dim: 64,
                ..CoreConfig::default()
            },
        )
        .expect("bind runtime")
    }

    #[test]
    fn open_batch_probe_close_roundtrip() {
        let service = small();
        let client = service.client();
        let sid = client.open(2, 2).unwrap();
        let results = client
            .batch(
                sid,
                vec![
                    Event::Grant { q: q(0), p: p(0) },
                    Event::Grant { q: q(1), p: p(1) },
                    Event::Request { p: p(0), q: q(1) },
                    Event::Request { p: p(1), q: q(0) },
                    Event::Probe,
                ],
            )
            .unwrap();
        assert_eq!(results.len(), 5);
        match results[4] {
            EventResult::Outcome(o) => assert!(o.deadlock),
            other => panic!("unexpected {other:?}"),
        }
        client.close(sid).unwrap();
        assert_eq!(
            client.batch(sid, vec![Event::Probe]),
            Err(ServiceError::UnknownSession)
        );
        let stats = service.stop();
        let merged = {
            let mut m = Stats::new();
            for s in &stats {
                m.merge(s);
            }
            m
        };
        // The post-close batch was refused before ingestion, so only the
        // accepted 5-event batch counts.
        assert_eq!(merged.counter("service.events"), 5);
        assert_eq!(merged.counter("service.probes"), 1);
        assert_eq!(merged.counter("service.sessions_closed"), 1);
    }

    #[test]
    fn sessions_spread_across_shards_and_ids_are_unique() {
        let service = small();
        let client = service.client();
        let ids: Vec<SessionId> = (0..8).map(|_| client.open(4, 4).unwrap()).collect();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        let per_shard = client.stats().unwrap();
        assert_eq!(per_shard.len(), 2);
        for s in &per_shard {
            assert_eq!(s.counter("service.sessions_open"), 4);
        }
        service.stop();
    }

    #[test]
    fn admission_control_rejects_bad_opens_and_big_batches() {
        let service = small();
        let client = service.client();
        assert_eq!(client.open(0, 4), Err(ServiceError::BadDimensions));
        assert_eq!(client.open(4, 65), Err(ServiceError::BadDimensions));
        // Shard capacity: 4 per shard × 2 shards; the 9th (round-robin)
        // open must hit a full shard.
        let mut hit_cap = false;
        for _ in 0..9 {
            match client.open(2, 2) {
                Ok(_) => {}
                Err(ServiceError::TooManySessions) => {
                    hit_cap = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(hit_cap, "per-shard session cap must engage");
        let sid = SessionId(0);
        assert_eq!(
            client.batch(sid, vec![Event::Probe; 17]),
            Err(ServiceError::BatchTooLarge)
        );
        service.stop();
    }

    #[test]
    fn snapshot_restore_clones_a_live_session() {
        let service = small();
        let client = service.client();
        let sid = client.open(4, 4).unwrap();
        let results = client
            .batch(
                sid,
                vec![
                    Event::Grant { q: q(0), p: p(0) },
                    Event::Grant { q: q(1), p: p(1) },
                    Event::Request { p: p(0), q: q(1) },
                    Event::Request { p: p(1), q: q(0) },
                    Event::Probe,
                ],
            )
            .unwrap();
        let EventResult::Outcome(orig) = results[4] else {
            panic!("probe must yield an outcome");
        };
        let blob = client.snapshot(sid).unwrap();
        let copy = client.restore(blob.clone()).unwrap();
        assert_ne!(copy, sid, "restore allocates a fresh id");
        // The clone answers probes exactly as the original would.
        let probe = client.batch(copy, vec![Event::Probe]).unwrap();
        assert_eq!(probe[0], EventResult::Outcome(orig));
        // And both sessions stay independently live.
        client.close(sid).unwrap();
        let probe = client.batch(copy, vec![Event::Probe]).unwrap();
        assert_eq!(probe[0], EventResult::Outcome(orig));
        // Garbage is refused with a typed error.
        assert_eq!(
            client.restore(vec![0xAB; 10]),
            Err(ServiceError::InvalidSnapshot)
        );
        assert_eq!(
            client.snapshot(SessionId(9999)),
            Err(ServiceError::UnknownSession)
        );
        service.stop();
    }

    #[test]
    fn the_default_durability_replies_only_once_fsynced() {
        let dir =
            std::env::temp_dir().join(format!("deltaos-shard-default-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = CoreRuntime::bind(
            "127.0.0.1:0",
            CoreConfig {
                shards: 1,
                durability: Some(DurabilityConfig::new(&dir)),
                ..CoreConfig::default()
            },
        )
        .expect("bind runtime");
        let client = service.client();
        let sid = client.open(4, 4).unwrap();
        for i in 0..4u16 {
            client
                .batch(
                    sid,
                    vec![
                        Event::Grant { q: q(i), p: p(i) },
                        Event::Request {
                            p: p(i),
                            q: q((i + 1) % 4),
                        },
                    ],
                )
                .unwrap();
            // No `Sync`: the reply itself must mean the record is on disk.
            let stats = client.stats_merged().unwrap();
            assert_eq!(
                stats.counter("store.durable_seq"),
                stats.counter("store.last_seq"),
                "batch {i} was acknowledged before its fsync"
            );
        }
        service.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submissions_after_shutdown_fail_typed() {
        let service = small();
        let client = service.client();
        let sid = client.open(2, 2).unwrap();
        service.stop();
        assert_eq!(
            client.batch(sid, vec![Event::Probe]),
            Err(ServiceError::Shutdown)
        );
        assert_eq!(client.open(2, 2), Err(ServiceError::Shutdown));
    }
}
